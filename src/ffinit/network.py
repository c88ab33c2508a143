"""Layered recurrent network: parameters, state, and the layer update rule.

A network is a chain of layers ``0..L``: layer 0 is the clamped visible
layer and layers ``1..L`` are hidden. A unit's rate is the hard sigmoid
of its state, ``rho(s) = min(1, max(0, s))``. Hidden layer ``k`` has two
dendritic branches, each an affine prediction of the layer's state on
the voltage scale: bottom-up from the layer below and top-down from the
layer above (the top layer ``L`` has only the bottom-up branch),

    d_bu = b_k + W_k rho(s_{k-1}),    d_td = c_{k+1} + V_{k+1} rho(s_{k+1}).

The layer update rule moves the layer to the rate of the plain mean of
its branch predictions, so that both branches contribute equally to the
soma's total input,

    s_k <- rho((d_bu + d_td) / 2),    s_L <- rho(d_bu),

and a state that every branch predicts exactly is a fixed point.
``_branch_predictions`` is the only place that computes ``(d_bu, d_td)``
from layer rates and ``_layer_target`` the only place that combines them
into a target; every relaxation update goes through it. The readers of a
state, :func:`ffinit.energy.energy`, :func:`ffinit.energy.energy_gradient`,
:func:`mutual_prediction_residual` and
:func:`ffinit.inference.direct_update_layer`, take its rates and the
predictions it carries from ``_read``, so only ``_drive`` forms the drive.

Public functions check what enters them, once: :class:`NetworkParams`
(shapes, finite arrays), :class:`NetworkState` (shapes, finite entries),
:func:`check_state` and :class:`ffinit.data.DatasetHandle` (finite items
in ``[0, 1]``). Every state an operation takes or returns is a
:class:`NetworkState`, so a run that overflows to a non-finite value
fails with :class:`~ffinit.exceptions.InvalidInputError` instead of
returning it. The private kernels ``_branch_predictions`` and
``_layer_target``, which relaxation calls every sweep, run unchecked.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (ConfigurationError, InvalidInputError, check_count, check_fits,
                         check_member)

_ARRAY_GROUPS = ("ff_weights", "fb_weights", "ff_offsets", "fb_offsets")


class Activation(enum.Enum):
    """Element-wise rate non-linearity applied to unit voltages."""

    HARD_SIGMOID = "hard-sigmoid"


def apply_activation(activation: Activation, x: np.ndarray) -> np.ndarray:
    """Apply the rate non-linearity element-wise.

    The hard sigmoid is the bounded rectification ``max(0, min(1, x))``;
    it is exactly the identity on ``[0, 1]`` and saturates outside.

    Args:
        activation: The non-linearity; the hard sigmoid is the only one,
            so it is not read.
        x: Voltage array.

    Returns:
        Array of the same shape with rates in ``[0, 1]``.
    """
    return np.asarray(x, dtype=float).clip(0.0, 1.0)


def _encode(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rates ``rho(x W^T + b)`` of every row of ``x``, from one gemm."""
    hid = x @ w.T
    hid += b
    return hid.clip(0.0, 1.0, out=hid)


def _on_slope(x: np.ndarray) -> np.ndarray:
    """Where the hard sigmoid's subderivative is 1, as a boolean mask: on
    ``[0, 1]``, the two kinks fixed to 1 so that the result is deterministic."""
    return (x >= 0.0) & (x <= 1.0)


@np.errstate(over="ignore", invalid="ignore")   # what overflows is rescaled or left non-finite
def _row_norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of every row of the 2-d ``x``, with the bits of
    ``np.linalg.norm`` of that row, ``sqrt(r @ r)``; a norm over axis 1 rounds
    differently. A row whose ``r @ r`` overflows is scaled by its largest
    magnitude first, so only a norm past the float range, or a row with a
    non-finite entry, comes out non-finite."""
    norms = np.sqrt(np.vecdot(x, x))
    if norms.max(initial=0.0) < np.inf:
        return norms
    over = ~(norms < np.inf)
    r = x[over]
    scale = np.abs(r).max(axis=1)
    r /= scale[:, None]
    norms[over] = scale * np.sqrt(np.vecdot(r, r))
    return norms


def _frozen(x) -> np.ndarray:
    """``x`` as a read-only float64 C array, adopted as it is or copied.

    This is the ownership rule of every read-only container
    (:class:`NetworkParams`, :class:`NetworkState` and
    :class:`ffinit.data.DatasetHandle`). An array is adopted without a
    copy when it is float64, C-contiguous and read-only, and so is the
    memory it views: it owns its data, or it is a same-size view of a
    read-only array that does (``np.load``'s reshape view is one).
    Anything else is copied and the copy marked read-only, so a caller's
    writable array, or a read-only view of writable memory, is never
    shared. Adoption trusts the caller's read-only flag: handing a
    container a read-only array hands over that array, since numpy lets
    its owner set it writeable again and cannot see a writable view made
    before it was marked read-only, which still writes into it. The flag
    only guards against accidental writes.
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
        raise InvalidInputError(
            f"{name} must be a 1-d vector or a 2-d block, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
            check_fits(f"the weight matrix of layer sizes {n_in} and {n_out}", n_in, n_out,
                       ConfigurationError)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_hidden_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def visible_size(self) -> int:
        return self.sizes[0]


@dataclass(frozen=True, eq=False)
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
        branch_gains: Always ``(1.0, 1.0)``: the branches are combined by
            their plain mean (the update rule of the module docstring),
            and any other value is rejected.
        activation: Rate non-linearity shared by all layers, or its value string.

    Every array is held read-only in C order, so one instance can safely
    be shared across concurrent inference runs. Arrays are adopted or
    copied by the ownership rule of :func:`_frozen`. Two instances are
    equal when their specs and all their arrays are; an instance is not
    hashable.
    """

    spec: LayerSpec
    ff_weights: tuple[np.ndarray, ...]
    fb_weights: tuple[np.ndarray, ...]
    ff_offsets: tuple[np.ndarray, ...]
    fb_offsets: tuple[np.ndarray, ...]
    # Kept only because perfbench builds and reads it.
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
                raise InvalidInputError(f"{name} must have {L} entries, got {len(seq)}")
            frozen = []
            for k, (arr, shape) in enumerate(zip(seq, want)):
                a = _frozen(arr)
                if a.shape != shape:
                    raise InvalidInputError(f"{name}[{k}] must have shape {shape}, got {a.shape}")
                if not np.all(np.isfinite(a)):
                    raise InvalidInputError(f"{name}[{k}] contains non-finite entries")
                frozen.append(a)
            object.__setattr__(self, name, tuple(frozen))
        gains = self.branch_gains
        if (not isinstance(gains, tuple) or gains != (1.0, 1.0)
                or any(isinstance(g, (bool, np.bool_)) for g in gains)):
            raise ConfigurationError(
                f"branch_gains must be (1.0, 1.0): the two branches are combined by "
                f"their plain mean; got {gains!r}")
        object.__setattr__(self, "branch_gains", (1.0, 1.0))
        object.__setattr__(self, "activation",
                           check_member("activation", self.activation, Activation))

    def __eq__(self, other):
        if not isinstance(other, NetworkParams):
            return NotImplemented
        return self is other or (self.spec == other.spec and all(
            np.array_equal(a, b) for group in _ARRAY_GROUPS
            for a, b in zip(getattr(self, group), getattr(other, group))))

    @cached_property   # read every layer update; cached in the instance dict
    def n_layers(self) -> int:
        """Number of hidden layers ``L``."""
        return self.spec.n_hidden_layers

    @property
    def is_tied(self) -> bool:
        """True iff every feedback matrix equals the transpose of its feedforward one."""
        return all(np.array_equal(v, w.T) for w, v in zip(self.ff_weights, self.fb_weights))


@dataclass(frozen=True, eq=False)
class NetworkState:
    """A clamped visible vector plus one activation vector per hidden layer.

    A state may also be a block of ``B`` states: then the visible layer
    is a ``(B, n_0)`` array and hidden layer ``k`` a ``(B, n_k)`` array,
    row ``i`` of each belonging to input ``i``. The visible layer is
    clamped: no inference operation ever modifies it, and the backing
    arrays are read-only to enforce that. Each layer is held in C order,
    adopted or copied by the ownership rule of :func:`_frozen`. A state
    from :func:`feedforward_init` or ``relax`` privately carries the
    bottom-up predictions formed for it (layer 1's, the clamped drive,
    always), read-only and keyed by the identity of the params that formed
    them; a state built by hand or by ``replace`` carries none. A state
    compares and hashes by identity.

    Raises:
        InvalidInputError: If a layer is not a vector or a 2-d block, or
            any entry is non-finite.
    """

    visible: np.ndarray
    hidden: tuple[np.ndarray, ...]
    _carried = None   # (params, {layer: d_bu}); not a field

    def __post_init__(self):
        object.__setattr__(self, "visible", _frozen_block(self.visible, "visible"))
        object.__setattr__(
            self, "hidden",
            tuple(_frozen_block(h, f"hidden[{k}]") for k, h in enumerate(self.hidden)),
        )

    def _bottom_up(self, params: NetworkParams) -> dict:
        """The predictions ``{k: d_bu}`` carried under ``params``, else a fresh drive's."""
        owner, bottom_up = self._carried or (None, None)
        return bottom_up if owner is params else {1: _drive(params, self.visible)}

    def _carrying(self, params: NetworkParams, bottom_up: dict) -> NetworkState:
        object.__setattr__(self, "_carried", (params, bottom_up))
        return self


def check_state(params: NetworkParams, state: NetworkState) -> None:
    """Raise InvalidInputError unless the state's shapes match the parameters.

    Every layer of a block state must have the visible layer's row count.
    """
    sizes = params.spec.sizes
    rows = state.visible.shape[:-1]
    if state.visible.shape[-1] != sizes[0]:
        raise InvalidInputError(
            f"visible has length {state.visible.shape[-1]}, expected {sizes[0]}")
    if len(state.hidden) != params.n_layers:
        raise InvalidInputError(
            f"state has {len(state.hidden)} hidden layers, expected {params.n_layers}")
    for k, h in enumerate(state.hidden, start=1):
        if h.shape != rows + (sizes[k],):
            raise InvalidInputError(
                f"hidden layer {k} has shape {h.shape}, expected {rows + (sizes[k],)}")


def _read(params: NetworkParams, state: NetworkState) -> tuple[list, dict]:
    """Check ``state``; return its rates, with ``rates[0]`` None (layer 1 reads
    the clamped drive instead), and the predictions ``{k: d_bu}`` it carries."""
    check_state(params, state)
    return ([None] + [h.clip(0.0, 1.0) for h in state.hidden],
            state._bottom_up(params))


def _branch_predictions(params: NetworkParams, rates, k: int,
                        d_bu: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """Bottom-up and top-down branch predictions into hidden layer ``k``.

    ``rates[j]`` is the rate ``rho(s_j)`` of layer ``j`` (``j = 0`` is the
    visible layer), a vector or a ``(B, n_j)`` block. Returns ``(d_bu,
    d_td)`` on the voltage scale, with ``d_td`` None for the top layer.
    A caller that already holds ``d_bu`` passes it in, and then
    ``rates[k - 1]`` is not read. Each product gets its offset added in
    place. Nothing is validated here, so that relaxation can call it every
    sweep; callers check the state once.
    """
    if d_bu is None:
        d_bu = rates[k - 1] @ params.ff_weights[k - 1].T
        d_bu += params.ff_offsets[k - 1]
    if k == params.n_layers:
        return d_bu, None
    d_td = rates[k + 1] @ params.fb_weights[k].T
    d_td += params.fb_offsets[k]
    return d_bu, d_td


def _layer_target(params: NetworkParams, rates, k: int, d_bu: np.ndarray | None = None,
                  keep: dict | None = None) -> np.ndarray:
    """The update target ``rho((d_bu + d_td) / 2)`` of hidden layer ``k``, or
    ``rho(d_bu)`` at the top; ``rates`` and ``d_bu`` as for :func:`_branch_predictions`.

    Works in place on the fresh top-down prediction and never writes ``d_bu``,
    which it stores as ``keep[k]`` when given ``keep``; the result is a fresh array.
    """
    d_bu, d_td = _branch_predictions(params, rates, k, d_bu)
    if keep is not None:
        keep[k] = d_bu
    if d_td is None:
        return d_bu.clip(0.0, 1.0)
    d_td += d_bu
    d_td /= 2
    return d_td.clip(0.0, 1.0, out=d_td)


def _drive(params: NetworkParams, visible: np.ndarray) -> np.ndarray:
    """The clamped drive ``b_1 + W_1 rho(v)`` into layer 1, a fresh read-only array; unchecked."""
    drive = visible.clip(0.0, 1.0) @ params.ff_weights[0].T
    drive += params.ff_offsets[0]
    drive.setflags(write=False)
    return drive


def feedforward_init(params: NetworkParams, visible: np.ndarray) -> NetworkState:
    """Initialize a state by a single bottom-up sweep.

    Sets ``h_k = rho(b_k + W_k rho(h_{k-1}))`` for ``k = 1..L`` starting
    from the clamped visible vector, or from every row of a ``(B, n_0)``
    block of them; the state carries ``b_1 + W_1 rho(v)``, the clamped drive.
    Applying the non-linearity at every step makes the result a fixed point
    of the direct relaxation update whenever both branches of every layer
    agree on their predictions. Two calls with equal inputs agree exactly.

    Raises:
        InvalidInputError: If ``visible`` has the wrong length or
            non-finite entries.
    """
    visible = np.asarray(visible, dtype=float)
    if visible.ndim not in (1, 2) or visible.shape[-1] != params.spec.visible_size:
        raise InvalidInputError(
            f"visible must have length {params.spec.visible_size}, got {visible.shape}")
    drive = _drive(params, visible)
    hidden = [drive.clip(0.0, 1.0)]
    for w, b in zip(params.ff_weights[1:], params.ff_offsets[1:]):
        # A hidden state is already a rate, so it feeds the next layer as is.
        hidden.append(_encode(hidden[-1], w, b))
    for h in hidden:
        h.setflags(write=False)   # NetworkState adopts them
    return NetworkState(visible=visible, hidden=tuple(hidden))._carrying(params, {1: drive})


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
    rates, bottom_up = _read(params, state)
    out = np.empty(state.visible.shape[:-1] + (params.n_layers,))
    for k, h in enumerate(state.hidden, start=1):
        d_bu, d_td = _branch_predictions(params, rates, k, bottom_up.get(k))
        err = np.abs(d_bu - h).max(axis=-1)
        if d_td is not None:
            err = np.maximum(err, np.abs(d_td - h).max(axis=-1))
        out[..., k - 1] = err
    return out
