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
formed once per input and carried by the state, from the feedforward
sweep (or :func:`relax`, for a state that carries none) to the residual.
Each energy snapshot also reads the last sweep's predictions into the
even layers; at L = 2 only the first forms a product. The block contract:

* A single input is a batch of one, and it is bit-identical to the
  per-item sweep (the straight-line oracle of the tests).
* A block of ``B > 1`` inputs differs from the per-item runs of its
  rows only by BLAS matrix-matrix versus matrix-vector rounding, about
  1e-14; iteration counts and convergence flags agree.
* Rows stop independently: a row whose step drops below ``tol`` is
  frozen and leaves the block, and its row of the block's one trace is
  NaN after its last sweep (a non-finite state, or a step beyond the float
  range, raises, so a recorded one is finite).
* Langevin noise is shared across rows: each layer update draws one
  noise vector from the ``cfg.seed`` stream and adds it to every row,
  so every row sees the noise its own single-input run would see.
  Langevin rows never stop early.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigurationError, InvalidInputError, check_count,
                         check_member, check_real)
from .network import (NetworkParams, NetworkState, _layer_target, _read, check_state,
                      feedforward_init)
from .energy import EnergyModel, energy


class Scheme(enum.Enum):
    DIRECT_ALTERNATING = "direct-alternating"
    LEAKY = "leaky"
    LANGEVIN = "langevin"


@dataclass(frozen=True)
class RelaxationConfig:
    """Settings for one relaxation run.

    Attributes:
        scheme: Update rule, a :class:`Scheme` or its value string.
        tau: Time constant of the leaky/Langevin mixing, ``>= 1``;
            ``direct-alternating`` always performs full jumps, so it
            must be 1 there.
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
        if self.scheme is Scheme.DIRECT_ALTERNATING and self.tau != 1.0:
            raise ConfigurationError(
                "scheme direct-alternating jumps to the target; tau must be 1")
        check_count("max_iters", self.max_iters, 1)
        check_real("tol", self.tol, 0.0, strict=True)
        check_count("seed", self.seed, 0)


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
    is not modified; the bottom-up predictions it carries are used.
    """
    rates, bottom_up = _read(params, state)
    if (isinstance(k, bool) or not isinstance(k, numbers.Integral)
            or not 1 <= k <= params.n_layers):
        raise InvalidInputError(f"layer index {k!r} out of range 1..{params.n_layers}")
    return _layer_target(params, rates, k, bottom_up.get(k))


@np.errstate(over="ignore")   # every overflow is handled here
def _step_norms(diff: np.ndarray, work: list[np.ndarray], sweep: int) -> np.ndarray:
    """The L2 norm of every row of ``diff``, the step of sweep ``sweep`` to ``work``.

    Row by row, with the bits of np.linalg.norm of one input's vector,
    sqrt(d @ d); a norm over axis 1 rounds differently. A row whose d @ d
    overflows is scaled by its largest magnitude first. Raises
    InvalidInputError when a state of ``work`` is non-finite or a step
    exceeds the float range; a NaN step never drops below tol, so the
    engine stops at the first one.
    """
    step = np.sqrt(np.vecdot(diff, diff))
    if step.max() < np.inf:
        return step
    over = ~(step < np.inf)
    if not all(np.isfinite(h[over]).all() for h in work):
        raise InvalidInputError(
            f"relaxation overflowed to a non-finite state in sweep {sweep}")
    d = diff[over]
    scale = np.abs(d).max(axis=1)
    d /= scale[:, None]
    step[over] = scale * np.sqrt(np.vecdot(d, d))
    if not step.max() < np.inf:
        raise InvalidInputError(
            f"relaxation step exceeded the float range in sweep {sweep}")
    return step


def _relax_block(params: NetworkParams, visible: np.ndarray, hidden: list[np.ndarray],
                 drive: np.ndarray, cfg: RelaxationConfig, energy_model: EnergyModel | None):
    """The relaxation engine: relax ``B`` clamped inputs as one block.

    ``visible`` is ``(B, n_0)``, ``hidden[k - 1]`` ``(B, n_k)`` and the clamped
    ``drive`` ``(B, n_1)``; the engine writes none of them.
    Only the rows still relaxing are updated: a row whose step drops
    below ``cfg.tol`` is written to the result and dropped from the
    working block. Returns the final hidden blocks, the bottom-up
    predictions the last sweep formed last (none if rows had stopped) and
    the trace ``(steps, converged, energies)``, NaN for stopped rows.

    No block outlives its last read. An energy snapshot is dropped once its
    energy is recorded. A sweep forms its step's difference layer by layer
    into one block as each layer is replaced, so the old layer goes at once
    and no concatenation of the states is formed; the difference goes with
    the sweep. Stopped rows leave one layer at a time. The result blocks are
    allocated only when rows first stop apart; otherwise the working blocks
    are the result.
    """
    L = params.n_layers
    n_rows = len(visible)
    result = None   # the blocks stopped rows are written to, once rows stop apart
    work = list(hidden)   # a sweep replaces a layer's array, never writes into it
    # rates[0] is never read: layer 1 takes the clamped drive.
    rates = [None] + [h.clip(0.0, 1.0) for h in work]
    rows = np.arange(n_rows)   # block row of every working row
    rng = np.random.default_rng(cfg.seed) if cfg.noise_scale > 0.0 else None
    jump = rng is None and cfg.tau == 1.0   # a clipped target is the new state and its rate
    bottom_up = {}   # the predictions into the layers a sweep updates last, all current after it
    ends = np.cumsum([0, *params.spec.sizes[1:]])
    cols = [None] + [slice(a, b) for a, b in zip(ends, ends[1:])]   # layer k's in a step
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

    def snapshot_energy():
        # The snapshot, its gathered visible rows and its carried dict die on return.
        vis = visible if len(rows) == n_rows else visible[rows]
        carried = {**bottom_up, 1: drive}   # current for the working rows
        for a in (vis, *work, *carried.values()):
            a.setflags(write=False)   # the state adopts them
        return energy(energy_model,
                      NetworkState(visible=vis, hidden=tuple(work))._carrying(params, carried))

    for sweep in range(cfg.max_iters + 1):   # sweeps done so far
        if energies is not None:
            energies = record(energies, sweep, snapshot_energy())
        if rng is None and sweep and step.min() < cfg.tol:
            done = step < cfg.tol
            converged[rows] = done
            if done.all():
                break
            if result is None:
                result = [np.empty((n_rows, h.shape[1])) for h in work]
            keep = ~done
            for k in range(1, L + 1):
                # One layer at a time: no list still holds the old block.
                result[k - 1][rows[done]] = work[k - 1][done]
                work[k - 1] = work[k - 1][keep]
                rates[k] = work[k - 1] if jump else rates[k][keep]
            rows, drive = rows[keep], drive[keep]
        if sweep == cfg.max_iters or not n_rows:
            break
        bottom_up = {}   # the last sweep's predictions are read by its snapshot only
        diff = np.empty((len(rows), ends[-1]))   # the step, formed as each layer is replaced
        for first in (1, 2):
            # Targets read only the other parity's rates, so a rate is replaced at once.
            for k in range(first, L + 1, 2):
                h = _layer_target(params, rates, k, drive if k == 1 else None,
                                  bottom_up if first == 2 else None)
                if not jump:
                    if rng is not None:
                        # One draw per layer update, shared by every row.
                        h += rng.normal(0.0, cfg.noise_scale, size=h.shape[1])
                    h *= 1.0 / cfg.tau
                    h += (1.0 - 1.0 / cfg.tau) * work[k - 1]
                np.subtract(h, work[k - 1], out=diff[:, cols[k]])
                work[k - 1] = h
                rates[k] = h if jump else h.clip(0.0, 1.0)
        step = _step_norms(diff, work, sweep + 1)
        steps = record(steps, sweep, step)
        del h, diff   # so neither pins a block into the next snapshot or regather
    if result is None:
        result = work
    else:
        for out, h in zip(result, work):
            out[rows] = h
    # The predictions cover the working rows only: keep none once rows have stopped.
    bottom_up = bottom_up if len(rows) == n_rows else {}
    for a in (*result, *bottom_up.values()):
        a.setflags(write=False)   # NetworkState adopts them
    return (result, bottom_up, steps[:, :sweep], converged,
            None if energies is None else energies[:, :sweep + 1])


def relax(params: NetworkParams, state: NetworkState, cfg: RelaxationConfig,
          energy_model: EnergyModel | None = None) -> tuple[NetworkState, ConvergenceTrace]:
    """Run the configured relaxation scheme from a given state.

    Iterates until the full-sweep step magnitude drops below ``cfg.tol``
    or ``cfg.max_iters`` is reached. Noisy (Langevin) runs have no
    deterministic fixed point, so they never set ``converged`` and always
    run the full budget. The input state is left untouched; the visible
    layer of the returned state is the clamped input, bit for bit.
    The returned state carries the clamped drive and the last sweep's even-layer predictions.

    Args:
        params: Network parameters (shared, read-only).
        state: Starting state, one input's or a block of ``B`` inputs';
            exclusively owned by this run.
        cfg: Time constant, noise, budget, and tolerance.
        energy_model: When given, the trace records the energy of the
            initial state and after every iteration. Construct it via
            :class:`ffinit.energy.EnergyModel`, which rejects untied
            parameters, from ``params`` or parameters equal to them.

    Returns:
        The relaxed state and its convergence trace; a block's trace has
        a leading row axis (see :class:`ConvergenceTrace`).

    Raises:
        ConfigurationError: If ``energy_model`` holds other parameters
            than ``params``, whose energies would not be this run's.
        InvalidInputError: If the run overflows to a non-finite state or
            takes a step beyond the float range; raised in the sweep where
            that happens, and the message says which.
    """
    check_state(params, state)
    if energy_model is not None and energy_model.params != params:
        raise ConfigurationError(
            "energy_model must be built from the params being relaxed or equal ones")
    drive = state._bottom_up(params)[1]
    visible, block_drive, *hidden = np.atleast_2d(state.visible, drive, *state.hidden)
    hidden, bottom_up, steps, converged, energies = _relax_block(
        params, visible, hidden, block_drive, cfg, energy_model)
    if state.visible.ndim == 1:
        hidden = [h[0] for h in hidden]
        bottom_up = {k: d[0] for k, d in bottom_up.items()}
        steps, converged = steps[0], bool(converged[0])
        energies = None if energies is None else energies[0]
    return (NetworkState(visible=state.visible, hidden=tuple(hidden))._carrying(
                params, {**bottom_up, 1: drive}),
            ConvergenceTrace(step_magnitudes=steps, converged=converged, energies=energies))


def infer_from_feedforward(params: NetworkParams, visible: np.ndarray,
                           cfg: RelaxationConfig,
                           energy_model: EnergyModel | None = None
                           ) -> tuple[NetworkState, ConvergenceTrace]:
    """Feedforward-initialize on a clamped input, then relax.

    That is ``relax(params, feedforward_init(params, visible), cfg)``, for one
    input or a ``(B, n_0)`` block of them. When consecutive layers reconstruct
    each other well, the feedforward pass already lands near the relaxation
    fixed point and the run converges after very few sweeps.
    """
    return relax(params, feedforward_init(params, visible), cfg, energy_model=energy_model)
