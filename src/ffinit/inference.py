"""Relaxation engines for clamped-input inference.

Every scheme applies the layer update rule of :mod:`ffinit.network`:
hidden layer ``k`` has the target ``T_k = rho(branch_combine(d_bu,
d_td))``. Within an iteration, every odd-indexed hidden layer is updated
simultaneously from the current even layers, then every even layer from
the new odd layers. Layers of equal parity are never adjacent, so the
simultaneous update within a parity class is exact. A layer moves to

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
computed once per run instead of once per sweep. The block contract:

* A single input is a batch of one, and it is bit-identical to the
  per-item sweep (the straight-line oracle of the tests).
* A block of ``B > 1`` inputs differs from the per-item runs of its
  rows only by BLAS matrix-matrix versus matrix-vector rounding, about
  1e-14; iteration counts and convergence flags agree.
* Rows stop independently: a row whose step drops below ``tol`` is
  frozen and leaves the block, and its trace ends at its own
  convergence.
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
    apply_activation,
    branch_combine,
    branch_predictions,
    check_state,
    feedforward_init,
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

    ``step_magnitudes[i]`` is the step of iteration ``i`` (one entry per
    iteration run). When recorded, ``energies`` carries one extra leading
    entry for the initial state, so ``energies[i + 1]`` is the energy
    after iteration ``i``.
    """

    step_magnitudes: np.ndarray
    converged: bool
    energies: np.ndarray | None = None

    @property
    def iters_run(self) -> int:
        return len(self.step_magnitudes)


def _layer_target(params: NetworkParams, rates, k: int,
                  d_bu: np.ndarray | None = None) -> np.ndarray:
    """Update target ``rho(branch_combine(d_bu, d_td))`` of hidden layer ``k``."""
    return apply_activation(params.activation,
                            branch_combine(params, *branch_predictions(params, rates, k, d_bu)))


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
                 cfg: RelaxationConfig, energy_model: EnergyModel | None):
    """The relaxation engine: relax ``B`` clamped inputs as one block.

    ``visible`` is ``(B, n_0)`` and ``hidden[k - 1]`` is ``(B, n_k)``,
    all read-only like a state's layers.
    Only the rows still relaxing are updated: a row whose step drops
    below ``cfg.tol`` is written to the result and dropped from the
    working block. Returns the final hidden blocks and, per row, the
    step magnitudes, the converged flag and the energies (None without
    an energy model).
    """
    act = params.activation
    L = params.n_layers
    n_rows = len(visible)
    result = [np.empty_like(h) for h in hidden]
    work = list(hidden)   # a sweep replaces a layer's array, never writes into it
    rows = np.arange(n_rows)   # block row of every working row
    rng = np.random.default_rng(cfg.seed) if cfg.noise_scale > 0.0 else None
    # The visible layer is clamped, so its drive into layer 1 is fixed.
    drive = params.ff_offsets[0] + apply_activation(act, visible) @ params.ff_weights[0].T
    steps: list[list[float]] = [[] for _ in range(n_rows)]
    converged = np.zeros(n_rows, dtype=bool)
    energies = [[] for _ in range(n_rows)] if energy_model is not None else None

    def snapshot():
        if energies is not None:
            vis = visible if len(rows) == n_rows else visible[rows]
            vis.setflags(write=False)   # as the sweep's blocks are: the state adopts them
            block = NetworkState(visible=vis, hidden=tuple(work))
            for r, e in zip(rows, energy(energy_model, block)):
                energies[r].append(float(e))

    snapshot()
    for sweep in range(1, cfg.max_iters + 1):
        if not len(rows):
            break
        before = np.concatenate(work, axis=1)
        for first in (1, 2):
            # rates[0] is never read: layer 1 takes the clamped drive.
            rates = [None] + [apply_activation(act, h) for h in work]
            for k in range(first, L + 1, 2):
                t = _layer_target(params, rates, k, drive if k == 1 else None)
                if rng is not None:
                    # One draw per layer update, shared by every row.
                    t = t + rng.normal(0.0, cfg.noise_scale, size=t.shape[1])
                work[k - 1] = (1.0 - 1.0 / cfg.tau) * work[k - 1] + (1.0 / cfg.tau) * t
                work[k - 1].setflags(write=False)
        # Row by row: a norm over axis 1 rounds differently from the
        # norm of one input's vector.
        step = np.array([np.linalg.norm(d) for d in np.concatenate(work, axis=1) - before])
        if not np.isfinite(step).all():
            # A NaN step never drops below tol, so stop at the first one.
            raise InvalidInputError(
                f"relaxation overflowed to a non-finite state in sweep {sweep}")
        for r, m in zip(rows, step):
            steps[r].append(float(m))
        snapshot()
        if rng is None:
            done = step < cfg.tol
            if done.any():
                converged[rows[done]] = True
                for out, h in zip(result, work):
                    out[rows[done]] = h[done]
                keep = ~done
                rows, drive = rows[keep], drive[keep]
                work = [h[keep] for h in work]
    for out, h in zip(result, work):
        out[rows] = h
        out.setflags(write=False)   # NetworkState adopts it
    return result, steps, converged, energies


def relax(params: NetworkParams, state: NetworkState, cfg: RelaxationConfig,
          energy_model: EnergyModel | None = None
          ) -> tuple[NetworkState, ConvergenceTrace | list[ConvergenceTrace]]:
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
        The relaxed state and its convergence trace; for a block state,
        the relaxed block and a list of one trace per row.

    Raises:
        InvalidInputError: If the run overflows to a non-finite state;
            raised in the sweep where that happens.
    """
    check_state(params, state)
    single = state.visible.ndim == 1
    hidden, steps, converged, energies = _relax_block(
        params, np.atleast_2d(state.visible), [np.atleast_2d(h) for h in state.hidden],
        cfg, energy_model)
    traces = [ConvergenceTrace(
        step_magnitudes=np.asarray(steps[i]),
        converged=bool(converged[i]),
        energies=np.asarray(energies[i]) if energies is not None else None,
    ) for i in range(len(steps))]
    if single:
        return NetworkState(visible=state.visible, hidden=tuple(h[0] for h in hidden)), traces[0]
    return NetworkState(visible=state.visible, hidden=tuple(hidden)), traces


def infer_from_feedforward(params: NetworkParams, visible: np.ndarray,
                           cfg: RelaxationConfig,
                           energy_model: EnergyModel | None = None
                           ) -> tuple[NetworkState, ConvergenceTrace | list[ConvergenceTrace]]:
    """Feedforward-initialize on a clamped input, then relax.

    Equivalent to ``relax(params, feedforward_init(params, visible), cfg)``;
    ``visible`` is one input or a ``(B, n_0)`` block of them. When
    consecutive layers reconstruct each other well, the feedforward
    pass already lands near the relaxation fixed point and the run
    converges after very few sweeps.
    """
    state = feedforward_init(params, visible)
    return relax(params, state, cfg, energy_model=energy_model)
