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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, DimensionError, check_count, check_real
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
        scheme: Update rule; ``direct-alternating`` always performs full
            jumps, so construction sets its ``tau`` to 1.
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


def _layer_target(params: NetworkParams, rates, k: int) -> np.ndarray:
    """Update target ``rho(branch_combine(d_bu, d_td))`` of hidden layer ``k``."""
    return apply_activation(params.activation,
                            branch_combine(params, *branch_predictions(params, rates, k)))


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


def relax(params: NetworkParams, state: NetworkState, cfg: RelaxationConfig,
          energy_model: EnergyModel | None = None) -> tuple[NetworkState, ConvergenceTrace]:
    """Run the configured relaxation scheme from a given state.

    Iterates until the full-sweep step magnitude drops below ``cfg.tol``
    or ``cfg.max_iters`` is reached. Noisy (Langevin) runs have no
    deterministic fixed point, so they never set ``converged`` and always
    run the full budget. The input state is left untouched; the visible
    vector of the returned state is the clamped input, bit for bit.

    Args:
        params: Network parameters (shared, read-only).
        state: Starting state; exclusively owned by this run.
        cfg: Time constant, noise, budget, and tolerance.
        energy_model: When given, the trace records the energy of the
            initial state and after every iteration. Construct it via
            :class:`ffinit.energy.EnergyModel`, which rejects untied
            parameters.

    Returns:
        The relaxed state and its convergence trace.
    """
    check_state(params, state)
    act = params.activation
    L = params.n_layers
    visible = state.visible
    hidden = [np.array(h) for h in state.hidden]
    rng = np.random.default_rng(cfg.seed) if cfg.noise_scale > 0.0 else None

    energies = []

    def snapshot():
        if energy_model is not None:
            energies.append(energy(energy_model, NetworkState(visible=visible,
                                                              hidden=tuple(hidden))))

    snapshot()
    steps: list[float] = []
    converged = False
    rho_v = apply_activation(act, visible)

    for _ in range(cfg.max_iters):
        before = np.concatenate(hidden)
        for first in (1, 2):
            rates = [rho_v] + [apply_activation(act, h) for h in hidden]
            for k in range(first, L + 1, 2):
                t = _layer_target(params, rates, k)
                if rng is not None:
                    t = t + rng.normal(0.0, cfg.noise_scale, size=t.shape)
                if cfg.tau == 1.0:
                    hidden[k - 1] = t
                else:
                    hidden[k - 1] = (1.0 - 1.0 / cfg.tau) * hidden[k - 1] + (1.0 / cfg.tau) * t
        steps.append(float(np.linalg.norm(np.concatenate(hidden) - before)))
        snapshot()
        if rng is None and steps[-1] < cfg.tol:
            converged = True
            break

    trace = ConvergenceTrace(
        step_magnitudes=np.asarray(steps),
        converged=converged,
        energies=np.asarray(energies) if energy_model is not None else None,
    )
    return NetworkState(visible=visible, hidden=tuple(hidden)), trace


def infer_from_feedforward(params: NetworkParams, visible: np.ndarray,
                           cfg: RelaxationConfig,
                           energy_model: EnergyModel | None = None
                           ) -> tuple[NetworkState, ConvergenceTrace]:
    """Feedforward-initialize on a clamped input, then relax.

    Equivalent to ``relax(params, feedforward_init(params, visible), cfg)``.
    When consecutive layers reconstruct each other well, the feedforward
    pass already lands near the relaxation fixed point and the run
    converges after very few sweeps.
    """
    state = feedforward_init(params, visible)
    return relax(params, state, cfg, energy_model=energy_model)
