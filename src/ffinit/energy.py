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
half the number of its branches: ``q = 1`` for interior layers, which
integrate a bottom-up and a top-down branch, and ``q = 1/2`` for the top
layer, which has only a bottom-up branch (the clamped visible layer also
uses ``1/2``; its terms are constant during inference).

This weighting makes the energy a Lyapunov function of the direct
relaxation scheme: the layer update rule of :mod:`ffinit.network` moves
a layer to the exact conditional minimizer of ``E`` given its neighbours,
so a full sweep can never increase it. With a single hidden layer the
expression reduces to the classical ``||s||^2 / 2`` form.

:func:`energy` sums these terms over the rule's branch predictions. Each
coupling pair ``(k - 1, k)`` has one member of even index (the visible
layer is 0), whose tied predictions hold the pair. So an even layer adds
``q_k ||s_k||^2 - rho(s_k) . (d_bu + d_td)``, an odd one the same with
``b_k + c_k`` for ``d_bu + d_td`` (the clamped drive for ``b_1``, no ``c``
at the top), and the visible layer ``||v||^2 / 2 - rho(v) . c_0``.

Public functions check what enters them (tied weights, the state's
shapes); the unchecked private kernel ``network._branch_predictions``
forms the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError
from .network import NetworkParams, NetworkState, _branch_predictions, _on_slope, _read


@dataclass(frozen=True)
class EnergyModel:
    """Symmetric-coupling view over tied network parameters.

    Raises:
        ConfigurationError: If any feedback matrix differs from the
            transpose of its feedforward matrix. That breaks the symmetry
            the energy presupposes, and refusing beats reporting a fake
            number.
    """

    params: NetworkParams

    def __post_init__(self):
        if not self.params.is_tied:
            raise ConfigurationError(
                "energy requires feedback weights exactly equal to transposed "
                "feedforward weights; these parameters are untied")


def energy_model_or_none(params: NetworkParams) -> EnergyModel | None:
    """The energy model of tied parameters, or None for untied ones,
    which define no energy."""
    return EnergyModel(params) if params.is_tied else None


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
    rates, bottom_up = _read(p, state)
    e = (0.5 * _row_dot(state.visible, state.visible)
         - state.visible.clip(0.0, 1.0) @ p.fb_offsets[0])
    for k, h in enumerate(state.hidden, start=1):
        if k % 2:   # an odd layer's couplings are counted at its even neighbours
            u = bottom_up[1] if k == 1 else p.ff_offsets[k - 1]
            u = u + p.fb_offsets[k] if k < p.n_layers else u
        else:
            d_bu, d_td = _branch_predictions(p, rates, k, bottom_up.get(k))
            u = d_bu if d_td is None else np.add(d_td, d_bu, out=d_td)
        e = e + (1.0 if k < p.n_layers else 0.5) * _row_dot(h, h) - _row_dot(rates[k], u)
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
    rates, bottom_up = _read(p, state)
    grads = []
    for k, h in enumerate(state.hidden, start=1):
        d_bu, d_td = _branch_predictions(p, rates, k, bottom_up.get(k))
        total_in = d_bu if d_td is None else d_bu + d_td
        grads.append(2.0 * (1.0 if k < p.n_layers else 0.5) * h - _on_slope(h) * total_in)
    return tuple(grads)
