"""Scalar energy and analytic gradient for symmetric (tied) networks.

The energy combines a quadratic containment term per unit, one coupling
term per connected unit pair (counted once per pair), and a linear bias
term per unit:

    E(s) = sum_k q_k * ||s_k||^2
           - sum_{pairs (i, j)} W_ij * rho(s_i) * rho(s_j)
           - sum_i beta_i * rho(s_i)

where the couplings are read off the feedforward matrices (tied weights
make the coupling direction-independent) and ``beta`` collects every
branch offset a unit receives. The quadratic weight of a hidden layer is
half the total gain of its branches: ``q = 1`` for interior layers,
which integrate a bottom-up and a top-down branch, and ``q = 1/2`` for
the top layer, which has only a bottom-up branch (the clamped visible
layer also uses ``1/2``; its terms are constant during inference).

This weighting is what makes the energy a Lyapunov function of the
direct relaxation scheme: every layer update of
:func:`ffinit.inference.direct_update_layer` is the exact conditional
minimizer of ``E`` given the neighboring layers, so a full sweep can
never increase it. With a single hidden layer the expression reduces to
the classical ``||s||^2 / 2`` form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotAnEnergyModelError
from .network import (
    NetworkParams,
    NetworkState,
    activation_subderivative,
    branch_predictions,
    check_state,
    layer_rates,
)


@dataclass(frozen=True)
class EnergyModel:
    """Symmetric-coupling view over tied network parameters.

    Raises:
        NotAnEnergyModelError: If any feedback matrix differs from the
            transpose of its feedforward matrix, or the two branch gains
            differ. Either condition breaks the symmetry the energy
            presupposes, and refusing beats reporting a fake number.
    """

    params: NetworkParams

    def __post_init__(self):
        if not self.params.is_tied:
            raise NotAnEnergyModelError(
                "energy requires feedback weights exactly equal to transposed "
                "feedforward weights; these parameters are untied")
        g_bu, g_td = self.params.branch_gains
        if g_bu != g_td:
            raise NotAnEnergyModelError(
                f"energy requires equal branch gains, got {(g_bu, g_td)}")

    def layer_quadratic_weight(self, k: int) -> float:
        """Quadratic weight of hidden layer ``k`` (1-based)."""
        return 1.0 if k < self.params.n_layers else 0.5


def energy_model_or_none(params: NetworkParams) -> EnergyModel | None:
    """The energy model of tied parameters, or None for parameters that
    define no energy (untied weights or unequal branch gains)."""
    try:
        return EnergyModel(params)
    except NotAnEnergyModelError:
        return None


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of the last axes: a scalar for vectors, one value per row for blocks."""
    return np.einsum("...i,...i->...", a, b)


def energy(model: EnergyModel, state: NetworkState) -> float | np.ndarray:
    """Evaluate the scalar energy of a full network state.

    The visible layer contributes its quadratic, coupling, and bias
    terms like any other layer; being clamped, those contributions are
    constant across an inference run but keep energies comparable
    between states of the same clamped input.

    Returns:
        A float, or for a block state one energy per row, shape ``(B,)``.
    """
    p = model.params
    check_state(p, state)
    e = 0.5 * _row_dot(state.visible, state.visible)
    for k in range(1, p.n_layers + 1):
        h = state.hidden[k - 1]
        e = e + model.layer_quadratic_weight(k) * _row_dot(h, h)
    rates = layer_rates(p, state)
    for k in range(1, p.n_layers + 1):
        e = e - _row_dot(rates[k], rates[k - 1] @ p.ff_weights[k - 1].T)
    e = e - rates[0] @ p.fb_offsets[0]
    for k in range(1, p.n_layers + 1):
        offsets = p.ff_offsets[k - 1].copy()
        if k < p.n_layers:
            offsets += p.fb_offsets[k]
        e = e - rates[k] @ offsets
    return float(e) if np.ndim(e) == 0 else e


def energy_gradient(model: EnergyModel, state: NetworkState) -> tuple[np.ndarray, ...]:
    """Analytic gradient of :func:`energy` with respect to the hidden units.

    For a unit in hidden layer ``k`` the partial derivative is

        2 * q_k * s_i - rho'(s_i) * (sum_j W_ij rho(s_j) + beta_i)

    with ``rho'`` the subderivative of the hard sigmoid (1 on the closed
    interval [0, 1], 0 outside). The input term is the sum of the layer's
    branch predictions, ``d_bu + d_td``. The clamped visible units
    receive no gradient.

    Returns:
        One gradient array per hidden layer.
    """
    p = model.params
    check_state(p, state)
    rates = layer_rates(p, state)
    grads = []
    for k, h in enumerate(state.hidden, start=1):
        d_bu, d_td = branch_predictions(p, rates, k)
        total_in = d_bu if d_td is None else d_bu + d_td
        q = model.layer_quadratic_weight(k)
        grads.append(2.0 * q * h - activation_subderivative(p.activation, h) * total_in)
    return tuple(grads)
