"""Relaxation engines for clamped-input inference.

Every scheme applies the layer update rule of :mod:`ffinit.network`:
hidden layer ``k`` has the target ``T_k = rho((d_bu + d_td) / 2)``
(``rho(d_bu)`` at the top layer). Within an iteration, every
odd-indexed hidden layer is updated simultaneously from the current
even layers, then every even layer from the new odd layers. Layers of
equal parity are never adjacent, so the simultaneous update within a
parity class is exact. A layer moves to

    s_k <- (1 - 1/tau) s_k + (1/tau) (T_k + noise)

``direct-alternating`` is ``tau = 1`` without noise (a full jump to the
target), ``leaky`` is ``tau >= 1`` without noise, and ``langevin`` adds
i.i.d. Gaussian noise of standard deviation ``noise_scale``. One
iteration is one full odd+even sweep, and its recorded step magnitude
is the L2 norm of the change of the concatenation of all hidden layers
over that sweep.

One engine relaxes a block of ``B`` clamped inputs, an ``(B, n_k)``
state per layer; :func:`relax` and :func:`infer_from_feedforward` take
one input's vector or a ``(B, n_0)`` block. The visible layer never
changes, so the clamped drive into layer 1, ``b_1 + W_1 rho(v)``, is
formed once per run: :func:`infer_from_feedforward` takes it from the
feedforward sweep, and :func:`relax` forms it before the first sweep.
The block contract:

* A single input is a batch of one, and it is bit-identical to the
  per-item sweep (the straight-line oracle of the tests).
* A block of ``B > 1`` inputs differs from the per-item runs of its
  rows only by BLAS matrix-matrix versus matrix-vector rounding, about
  1e-14; iteration counts and convergence flags agree.
* Rows stop independently: a row whose step drops below ``tol`` is
  frozen and leaves the block, and its row of the block's one trace is
  NaN after its last sweep (a non-finite step raises, so a recorded one is finite).
* Langevin noise is shared across rows: each layer update draws one
  noise vector from the ``cfg.seed`` stream and adds it to every row,
  so every row sees the noise its own single-input run would see.
  Langevin rows never stop early.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigurationError, DimensionError, InvalidInputError, check_count,
                         check_member, check_real)
from .network import (
    NetworkParams,
    NetworkState,
    _drive,
    _feedforward,
    _layer_target,
    apply_activation,
    check_state,
    feedforward_init,   # noqa: F401  uncalled; only for perfbench's tracer, whose span is empty
    layer_rates,
)
from .energy import EnergyModel, energy


class Scheme(enum.Enum):
    DIRECT_ALTERNATING = "direct-alternating"
    LEAKY = "leaky"
    LANGEVIN = "langevin"


@dataclass(frozen=True)
class RelaxationConfig:
    """Settings for one relaxation run.

    Attributes:
        scheme: Update rule, a :class:`Scheme` or its value string;
            ``direct-alternating`` always performs full jumps, so
            construction sets its ``tau`` to 1.
        tau: Time constant of the leaky/Langevin mixing, ``>= 1``.
        noise_scale: Standard deviation of the per-unit Gaussian noise;
            must be positive for ``langevin`` and zero for the
            deterministic schemes.
        max_iters: Iteration budget.
        tol: Stop once the full-sweep step magnitude drops below this.
        seed: Seed for the noise stream; fixed seed gives bit-identical
            trajectories.
    """

    scheme: Scheme = Scheme.DIRECT_ALTERNATING
    tau: float = 1.0
    noise_scale: float = 0.0
    max_iters: int = 100
    tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scheme", check_member("scheme", self.scheme, Scheme))
        check_real("tau", self.tau, 1.0)
        check_real("noise_scale", self.noise_scale, 0.0)
        if self.scheme is Scheme.LANGEVIN and self.noise_scale == 0.0:
            raise ConfigurationError("langevin requires noise_scale > 0")
        if self.scheme is not Scheme.LANGEVIN and self.noise_scale != 0.0:
            raise ConfigurationError(
                f"scheme {self.scheme.value} is deterministic; noise_scale must be 0")
        check_count("max_iters", self.max_iters, 1)
        check_real("tol", self.tol, 0.0, strict=True)
        check_count("seed", self.seed, 0)
        if self.scheme is Scheme.DIRECT_ALTERNATING:
            object.__setattr__(self, "tau", 1.0)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration record of a relaxation run.

    ``step_magnitudes[i]`` is the step of iteration ``i``. When recorded,
    ``energies`` carries one extra leading entry for the initial state,
    so ``energies[i + 1]`` is the energy after iteration ``i``. A block's
    trace has a leading row axis, as a block state has: ``(B, sweeps)``
    steps for its longest row's ``sweeps``, NaN after a row's last
    sweep, and ``(B,)`` ``converged`` and ``iters_run``.
    """

    step_magnitudes: np.ndarray
    converged: bool | np.ndarray
    energies: np.ndarray | None = None

    @property
    def iters_run(self) -> int | np.ndarray:
        steps = self.step_magnitudes
        return len(steps) if steps.ndim == 1 else np.count_nonzero(~np.isnan(steps), axis=1)


def direct_update_layer(params: NetworkParams, state: NetworkState, k: int) -> np.ndarray:
    """Direct update target for hidden layer ``k`` given the current state.

    Interior layers combine the bottom-up and top-down branch
    predictions; the top layer has only its bottom-up branch. The state
    is not modified.
    """
    check_state(params, state)
    if not 1 <= k <= params.n_layers:
        raise DimensionError(f"layer index {k} out of range 1..{params.n_layers}")
    return _layer_target(params, layer_rates(params, state), k)


def _relax_block(params: NetworkParams, visible: np.ndarray, hidden: list[np.ndarray],
                 drive: np.ndarray, cfg: RelaxationConfig, energy_model: EnergyModel | None):
    """The relaxation engine: relax ``B`` clamped inputs as one block.

    ``visible`` is ``(B, n_0)``, ``hidden[k - 1]`` ``(B, n_k)`` and the clamped
    ``drive`` ``(B, n_1)``; the engine writes none of them.
    Only the rows still relaxing are updated: a row whose step drops
    below ``cfg.tol`` is written to the result and dropped from the
    working block. Returns the final hidden blocks and the block's
    trace, whose records hold NaN for the rows that have stopped.
    """
    act = params.activation
    L = params.n_layers
    n_rows = len(visible)
    result = [np.empty_like(h) for h in hidden]
    work = list(hidden)   # a sweep replaces a layer's array, never writes into it
    # rates[0] is never read: layer 1 takes the clamped drive.
    rates = [None] + [apply_activation(act, h) for h in work]
    rows = np.arange(n_rows)   # block row of every working row
    rng = np.random.default_rng(cfg.seed) if cfg.noise_scale > 0.0 else None
    # One column per sweep (energies: plus the initial state's), NaN for stopped
    # rows; the columns double when full, as an array per sweep fragments the heap.
    steps = np.full((n_rows, 8), np.nan)
    energies = np.full((n_rows, 8), np.nan) if energy_model is not None else None
    converged = np.zeros(n_rows, dtype=bool)

    def record(into, j, values):
        if j == into.shape[1]:
            into = np.concatenate([into, np.full_like(into, np.nan)], axis=1)
        into[rows, j] = values
        return into

    for sweep in range(cfg.max_iters + 1):   # sweeps done so far
        if energies is not None:
            vis = visible if len(rows) == n_rows else visible[rows]
            vis.setflags(write=False)   # as the sweep's blocks are: the state adopts them
            energies = record(energies, sweep,
                              energy(energy_model, NetworkState(visible=vis, hidden=tuple(work))))
        if rng is None and sweep:
            done = step < cfg.tol
            if done.any():
                converged[rows[done]] = True
                for out, h in zip(result, work):
                    out[rows[done]] = h[done]
                keep = ~done
                rows, drive = rows[keep], drive[keep]
                work = [h[keep] for h in work]
                rates = [None] + [r[keep] for r in rates[1:]]
        if sweep == cfg.max_iters or not len(rows):
            break
        before = np.concatenate(work, axis=1)
        for first in (1, 2):
            # Targets read only the other parity's rates, so a rate is replaced at once.
            for k in range(first, L + 1, 2):
                t = _layer_target(params, rates, k, drive if k == 1 else None)
                if rng is not None:
                    # One draw per layer update, shared by every row.
                    t += rng.normal(0.0, cfg.noise_scale, size=t.shape[1])
                t *= 1.0 / cfg.tau
                h = (1.0 - 1.0 / cfg.tau) * work[k - 1]
                h += t
                h.setflags(write=False)
                work[k - 1], rates[k] = h, apply_activation(act, h)
        # Row by row: a norm over axis 1 rounds differently from the
        # norm of one input's vector.
        step = np.array([np.linalg.norm(d) for d in np.concatenate(work, axis=1) - before])
        if not np.isfinite(step).all():
            # A NaN step never drops below tol, so stop at the first one.
            raise InvalidInputError(
                f"relaxation overflowed to a non-finite state in sweep {sweep + 1}")
        steps = record(steps, sweep, step)
    for out, h in zip(result, work):
        out[rows] = h
        out.setflags(write=False)   # NetworkState adopts it
    return result, ConvergenceTrace(
        step_magnitudes=steps[:, :sweep], converged=converged,
        energies=None if energies is None else energies[:, :sweep + 1])


def relax(params: NetworkParams, state: NetworkState, cfg: RelaxationConfig,
          energy_model: EnergyModel | None = None, *,
          _clamped_drive: np.ndarray | None = None) -> tuple[NetworkState, ConvergenceTrace]:
    """Run the configured relaxation scheme from a given state.

    Iterates until the full-sweep step magnitude drops below ``cfg.tol``
    or ``cfg.max_iters`` is reached. Noisy (Langevin) runs have no
    deterministic fixed point, so they never set ``converged`` and always
    run the full budget. The input state is left untouched; the visible
    layer of the returned state is the clamped input, bit for bit.

    Args:
        params: Network parameters (shared, read-only).
        state: Starting state, one input's or a block of ``B`` inputs';
            exclusively owned by this run.
        cfg: Time constant, noise, budget, and tolerance.
        energy_model: When given, the trace records the energy of the
            initial state and after every iteration. Construct it via
            :class:`ffinit.energy.EnergyModel`, which rejects untied
            parameters.

    Returns:
        The relaxed state and its convergence trace; a block's trace has
        a leading row axis (see :class:`ConvergenceTrace`).

    Raises:
        InvalidInputError: If the run overflows to a non-finite state;
            raised in the sweep where that happens.
    """
    check_state(params, state)
    visible = np.atleast_2d(state.visible)
    drive = _drive(params, visible) if _clamped_drive is None else np.atleast_2d(_clamped_drive)
    hidden, trace = _relax_block(params, visible, [np.atleast_2d(h) for h in state.hidden],
                                 drive, cfg, energy_model)
    if state.visible.ndim == 1:
        hidden = [h[0] for h in hidden]
        trace = ConvergenceTrace(
            step_magnitudes=trace.step_magnitudes[0], converged=bool(trace.converged[0]),
            energies=None if trace.energies is None else trace.energies[0])
    return NetworkState(visible=state.visible, hidden=tuple(hidden)), trace


def infer_from_feedforward(params: NetworkParams, visible: np.ndarray,
                           cfg: RelaxationConfig,
                           energy_model: EnergyModel | None = None
                           ) -> tuple[NetworkState, ConvergenceTrace]:
    """Feedforward-initialize on a clamped input, then relax.

    Equivalent to ``relax(params, feedforward_init(params, visible), cfg)``, with the
    clamped drive taken from the feedforward pass (still through :func:`relax`, which
    perfbench's tracer wraps); ``visible`` is one input or a ``(B, n_0)`` block of them.
    When consecutive layers reconstruct each other well, the feedforward pass already
    lands near the relaxation fixed point and the run converges after very few sweeps.
    """
    state, drive = _feedforward(params, visible)
    return relax(params, state, cfg, energy_model=energy_model, _clamped_drive=drive)
