"""Layered recurrent network: parameters, state, and the layer update rule.

A network is a chain of layers ``0..L``: layer 0 is the clamped visible
layer and layers ``1..L`` are hidden. A unit's rate is the hard sigmoid
of its state, ``rho(s) = min(1, max(0, s))``. Hidden layer ``k`` has two
dendritic branches, each an affine prediction of the layer's state on
the voltage scale: bottom-up from the layer below and top-down from the
layer above (the top layer ``L`` has only the bottom-up branch),

    d_bu = b_k + W_k rho(s_{k-1}),    d_td = c_{k+1} + V_{k+1} rho(s_{k+1}).

The layer update rule moves the layer to the rate of the gain-weighted
mean of its branch predictions,

    s_k <- rho((g_bu d_bu + g_td d_td) / (g_bu + g_td)),    s_L <- rho(g_bu d_bu / g_bu),

so a state that every branch predicts exactly is a fixed point.
:func:`branch_predictions` is the only place that computes ``(d_bu,
d_td)`` from layer rates and :func:`branch_combine` the only place that
weighs them; relaxation (:mod:`ffinit.inference`), the energy gradient
and :func:`mutual_prediction_residual` all go through them.

Inputs are checked once, where they enter: :class:`NetworkParams`
(shapes, finite arrays, the gain domain), :class:`NetworkState` (shapes,
finite entries) and :class:`ffinit.data.DatasetHandle` (finite items in
``[0, 1]``). Every state an operation takes or returns is a
:class:`NetworkState`, so a run that overflows to a non-finite value
fails with :class:`~ffinit.exceptions.InvalidInputError` instead of
returning it. :func:`apply_activation` and :func:`branch_predictions` run
unchecked; :func:`branch_combine` only checks that its predictions match in shape.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigurationError, DimensionError, InvalidInputError,
                         check_count, check_member, check_real)


class Activation(enum.Enum):
    """Element-wise rate non-linearity applied to unit voltages."""

    HARD_SIGMOID = "hard-sigmoid"


def apply_activation(activation: Activation, x: np.ndarray) -> np.ndarray:
    """Apply the rate non-linearity element-wise.

    The hard sigmoid is the bounded rectification ``max(0, min(1, x))``;
    it is exactly the identity on ``[0, 1]`` and saturates outside.

    Args:
        activation: The non-linearity; the hard sigmoid is the only one.
        x: Voltage array.

    Returns:
        Array of the same shape with rates in ``[0, 1]``.
    """
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def _encode(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rates ``rho(x W^T + b)`` of every row of ``x``, from one gemm."""
    hid = x @ w.T
    hid += b
    return np.clip(hid, 0.0, 1.0, out=hid)


def _on_slope(x: np.ndarray) -> np.ndarray:
    """Where the hard sigmoid's subderivative is 1, as a boolean mask."""
    return (x >= 0.0) & (x <= 1.0)


def activation_subderivative(activation: Activation, x: np.ndarray) -> np.ndarray:
    """Element-wise (sub)derivative of the rate non-linearity.

    For the hard sigmoid the subderivative is 1 on the closed interval
    ``[0, 1]`` and 0 outside; the value at the two kinks is fixed to 1 so
    that downstream computations are deterministic.
    """
    return _on_slope(np.asarray(x, dtype=float)).astype(float)


def _frozen(x) -> np.ndarray:
    """``x`` as a read-only float64 C array, adopted as it is or copied.

    This is the ownership rule of every read-only container
    (:class:`NetworkParams`, :class:`NetworkState` and
    :class:`ffinit.data.DatasetHandle`). An array is adopted without a
    copy when it is float64, C-contiguous and read-only, and no writable
    array can reach its memory: it owns its data, or it is a same-size
    view of a read-only array that does (``np.load``'s reshape view is
    one). Anything else is copied and the copy marked read-only, so a
    caller's writable array, or a read-only view of writable memory, is
    never shared. Handing a container a read-only array therefore hands
    over that array: numpy lets its owner set it writeable again, and the
    read-only flag only guards against accidental writes.
    """
    if (type(x) is np.ndarray and x.dtype == np.float64 and x.flags.c_contiguous
            and not x.flags.writeable
            and (x.flags.owndata
                 or (type(x.base) is np.ndarray and x.base.flags.owndata
                     and not x.base.flags.writeable and x.base.nbytes == x.nbytes))):
        return x
    arr = np.array(x, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


def _frozen_block(x, name: str) -> np.ndarray:
    arr = _frozen(x)
    if arr.ndim not in (1, 2):
        raise DimensionError(
            f"{name} must be a 1-d vector or a 2-d block, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class LayerSpec:
    """Layer sizes ``(n_0, n_1, ..., n_L)``; ``n_0`` is the visible size."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if len(sizes) < 2:
            raise ConfigurationError("a network needs a visible and at least one hidden layer")
        for n in sizes:
            check_count("every layer size", n, 1, sys.maxsize)
        sizes = tuple(int(n) for n in sizes)
        for n_in, n_out in zip(sizes, sizes[1:]):
            if n_in * n_out > sys.maxsize // 8:   # the float64 entries numpy can address
                raise ConfigurationError(
                    f"layer sizes {n_in} and {n_out} need a weight matrix of {n_in * n_out} "
                    f"entries, more than the {sys.maxsize // 8} a float64 array can hold")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_hidden_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def visible_size(self) -> int:
        return self.sizes[0]


@dataclass(frozen=True)
class NetworkParams:
    """Immutable parameters of a layered two-branch network.

    Attributes:
        spec: Layer sizes.
        ff_weights: ``L`` bottom-up matrices; entry ``k`` has shape
            ``(n_{k+1}, n_k)`` and feeds hidden layer ``k + 1``.
        fb_weights: ``L`` top-down matrices; entry ``k`` has shape
            ``(n_k, n_{k+1})`` and feeds layer ``k`` from layer ``k + 1``.
        ff_offsets: ``L`` bottom-up branch offsets, entry ``k`` of length
            ``n_{k+1}``.
        fb_offsets: ``L`` top-down branch offsets, entry ``k`` of length
            ``n_k``.
        branch_gains: Finite ``(bottom_up, top_down)`` gains used when
            combining branch predictions. The bottom-up gain is positive,
            because the top layer has no other branch; the top-down gain
            is non-negative.
        activation: Rate non-linearity shared by all layers, or its value string.

    Every array is held read-only in C order, so one instance can safely
    be shared across concurrent inference runs. A read-only float64 C
    array that owns its memory is adopted without a copy, and handing it
    over hands over ownership; any other array is copied (see
    :func:`_frozen`).
    """

    spec: LayerSpec
    ff_weights: tuple[np.ndarray, ...]
    fb_weights: tuple[np.ndarray, ...]
    ff_offsets: tuple[np.ndarray, ...]
    fb_offsets: tuple[np.ndarray, ...]
    branch_gains: tuple[float, float] = (1.0, 1.0)
    activation: Activation = Activation.HARD_SIGMOID

    def __post_init__(self):
        sizes = self.spec.sizes
        L = self.spec.n_hidden_layers
        for name, seq, want in (
            ("ff_weights", self.ff_weights, [(sizes[k + 1], sizes[k]) for k in range(L)]),
            ("fb_weights", self.fb_weights, [(sizes[k], sizes[k + 1]) for k in range(L)]),
            ("ff_offsets", self.ff_offsets, [(sizes[k + 1],) for k in range(L)]),
            ("fb_offsets", self.fb_offsets, [(sizes[k],) for k in range(L)]),
        ):
            if len(seq) != L:
                raise DimensionError(f"{name} must have {L} entries, got {len(seq)}")
            frozen = []
            for k, (arr, shape) in enumerate(zip(seq, want)):
                a = _frozen(arr)
                if a.shape != shape:
                    raise DimensionError(f"{name}[{k}] must have shape {shape}, got {a.shape}")
                if not np.all(np.isfinite(a)):
                    raise InvalidInputError(f"{name}[{k}] contains non-finite entries")
                frozen.append(a)
            object.__setattr__(self, name, tuple(frozen))
        try:
            g_bu, g_td = self.branch_gains
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"branch_gains must be a (bottom_up, top_down) pair, "
                f"got {self.branch_gains!r}") from None
        check_real("the bottom-up branch gain", g_bu, 0.0, strict=True)
        check_real("the top-down branch gain", g_td, 0.0)
        object.__setattr__(self, "branch_gains", (float(g_bu), float(g_td)))
        object.__setattr__(self, "activation",
                           check_member("activation", self.activation, Activation))

    @property
    def n_layers(self) -> int:
        """Number of hidden layers ``L``."""
        return self.spec.n_hidden_layers

    @property
    def is_tied(self) -> bool:
        """True iff every feedback matrix equals the transpose of its feedforward one."""
        return all(np.array_equal(v, w.T) for w, v in zip(self.ff_weights, self.fb_weights))


@dataclass(frozen=True)
class NetworkState:
    """A clamped visible vector plus one activation vector per hidden layer.

    A state may also be a block of ``B`` states: then the visible layer
    is a ``(B, n_0)`` array and hidden layer ``k`` a ``(B, n_k)`` array,
    row ``i`` of each belonging to input ``i``. The visible layer is
    clamped: no inference operation ever modifies it, and the backing
    arrays are read-only to enforce that. Each layer is held in C order;
    a read-only float64 C array that owns its memory is adopted without a
    copy, and handing it over hands over ownership; any other array is
    copied (see :func:`_frozen`).

    Raises:
        DimensionError: If a layer is not a vector or a 2-d block.
        InvalidInputError: If any entry is non-finite.
    """

    visible: np.ndarray
    hidden: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "visible", _frozen_block(self.visible, "visible"))
        object.__setattr__(
            self, "hidden",
            tuple(_frozen_block(h, f"hidden[{k}]") for k, h in enumerate(self.hidden)),
        )


def check_state(params: NetworkParams, state: NetworkState) -> None:
    """Raise DimensionError unless the state's shapes match the parameters.

    Every layer of a block state must have the visible layer's row count.
    """
    sizes = params.spec.sizes
    rows = state.visible.shape[:-1]
    if state.visible.shape[-1] != sizes[0]:
        raise DimensionError(
            f"visible has length {state.visible.shape[-1]}, expected {sizes[0]}")
    if len(state.hidden) != params.n_layers:
        raise DimensionError(
            f"state has {len(state.hidden)} hidden layers, expected {params.n_layers}")
    for k, h in enumerate(state.hidden, start=1):
        if h.shape != rows + (sizes[k],):
            raise DimensionError(
                f"hidden layer {k} has shape {h.shape}, expected {rows + (sizes[k],)}")


def layer_rates(params: NetworkParams, state: NetworkState) -> list[np.ndarray]:
    """Rates ``rho(s_j)`` of every layer ``j = 0..L`` of a state, visible first."""
    return [apply_activation(params.activation, s) for s in (state.visible, *state.hidden)]


def branch_predictions(params: NetworkParams, rates, k: int,
                       d_bu: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Bottom-up and top-down branch predictions into hidden layer ``k``.

    ``rates[j]`` is the rate ``rho(s_j)`` of layer ``j`` (``j = 0`` is the
    visible layer), a vector or a ``(B, n_j)`` block. Returns ``(d_bu,
    d_td)`` on the voltage scale, with ``d_td`` None for the top layer.
    A caller that already holds ``d_bu`` passes it in, and then
    ``rates[k - 1]`` is not read: relaxation computes the clamped drive
    into layer 1 once per run. Nothing is validated here, so that
    relaxation can call it every sweep; callers check the state once.
    """
    if d_bu is None:
        d_bu = params.ff_offsets[k - 1] + rates[k - 1] @ params.ff_weights[k - 1].T
    if k == params.n_layers:
        return d_bu, None
    return d_bu, params.fb_offsets[k] + rates[k + 1] @ params.fb_weights[k].T


def branch_combine(params: NetworkParams, d_bu: np.ndarray,
                   d_td: np.ndarray | None = None) -> np.ndarray:
    """Gain-weighted mean of the branch predictions.

    Computes ``(g_bu * d_bu + g_td * d_td) / (g_bu + g_td)``; for the top
    layer, which has no top-down branch, ``g_bu * d_bu / g_bu``.

    :class:`NetworkParams` keeps ``g_bu`` positive, so neither
    denominator is zero.

    Raises:
        DimensionError: If the two predictions differ in length.
    """
    g_bu, g_td = params.branch_gains
    d_bu = np.asarray(d_bu, dtype=float)
    if d_td is None:
        return g_bu * d_bu / g_bu
    d_td = np.asarray(d_td, dtype=float)
    if d_td.shape != d_bu.shape:
        raise DimensionError("branch predictions must have the same length")
    return (g_bu * d_bu + g_td * d_td) / (g_bu + g_td)


def feedforward_init(params: NetworkParams, visible: np.ndarray) -> NetworkState:
    """Initialize a state by a single bottom-up sweep.

    Sets ``h_k = rho(b_k + W_k rho(h_{k-1}))`` for ``k = 1..L`` starting
    from the clamped visible vector, or from every row of a ``(B, n_0)``
    block of them. Applying the non-linearity at every step makes the
    result a fixed point of the direct relaxation update whenever both
    branches of every layer agree on their predictions. The function is
    pure: two calls with equal inputs agree exactly.

    Raises:
        DimensionError: If ``visible`` has the wrong length.
        InvalidInputError: If ``visible`` has non-finite entries.
    """
    visible = np.asarray(visible, dtype=float)
    if visible.ndim not in (1, 2) or visible.shape[-1] != params.spec.visible_size:
        raise DimensionError(
            f"visible must have length {params.spec.visible_size}, got {visible.shape}")
    hidden = []
    rates = apply_activation(params.activation, visible)
    for w, b in zip(params.ff_weights, params.ff_offsets):
        # A hidden state is already a rate, so it feeds the next layer as is.
        rates = _encode(rates, w, b)
        rates.setflags(write=False)   # NetworkState adopts it
        hidden.append(rates)
    return NetworkState(visible=visible, hidden=tuple(hidden))


def mutual_prediction_residual(params: NetworkParams, state: NetworkState) -> np.ndarray:
    """Worst-case branch prediction error for each hidden layer.

    For hidden layer ``k`` this is the maximum over units and branches of
    ``|d - h_k|`` where ``d`` runs over the branch predictions into the
    layer (bottom-up always; top-down except at the top layer). It is
    zero exactly when every branch predicts the layer's state exactly,
    i.e. when consecutive layers reconstruct each other perfectly.

    Returns:
        Array of length ``L`` with one residual per hidden layer, or of
        shape ``(B, L)`` for a block state.
    """
    check_state(params, state)
    rates = layer_rates(params, state)
    out = np.empty(state.visible.shape[:-1] + (params.n_layers,))
    for k, h in enumerate(state.hidden, start=1):
        d_bu, d_td = branch_predictions(params, rates, k)
        err = np.abs(d_bu - h).max(axis=-1)
        if d_td is not None:
            err = np.maximum(err, np.abs(d_td - h).max(axis=-1))
        out[..., k - 1] = err
    return out
