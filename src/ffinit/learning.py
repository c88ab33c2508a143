"""Weight regimes: random transpose-tied networks and trained stacks.

Two training rules are provided for the greedy layerwise auto-encoder
stack. ``ae-gradient`` does exact gradient descent on each pair's
reconstruction loss, backpropagating through the pair's decoder into its
encoder (and no further: training is local to the pair). ``local-branch``
freezes the encoders at their random-tied initialization and fits only
the top-down branch of each pair with the error-correcting delta rule
(``_local_branch_step``), i.e. a linear regression of the branch's
voltage-scale prediction onto the feedforward activation it should
predict. Because its encoders stay frozen, ``local-branch`` encodes each
pair's input codes once, in one gemm, and that encoding gives the
saturated-unit count and feeds every batch, every epoch error and the
next pair's codes.

Both rules apply the learning rate to a batch-sized factor, the output
error, before the weight steps are formed from it, so no weight-sized
array is ever scaled. Every weight step, the tied decoder's included, is
then one dgemm into the weights (:func:`_sub_outer`), so no weight-sized
temporary is formed either: ``cblas_dgemm`` of the scipy-openblas that
numpy has already loaded, found through numpy's own extension module
(:func:`_bind_dgemm`), with the bits of numpy's ``w -= err.T @ x``, which
runs instead where that lookup finds none (another BLAS, Windows).

The epoch errors and :func:`reconstruction_error` run in row blocks
(:func:`_row_blocks`), holding one block of each layer at a time; a
whole encoding is built only where it is read again.

Public functions check what enters them; ``_local_branch_step``, which
every local-branch batch calls, is an unchecked private kernel.
``_sub_outer`` checks its arrays, as it hands their pointers to BLAS.
"""

from __future__ import annotations

import ctypes
import enum
import logging
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy._core import _multiarray_umath

from .data import DatasetHandle
from .exceptions import (
    ConfigurationError,
    InvalidInputError,
    check_count,
    check_member,
    check_real,
)
from .network import Activation, LayerSpec, NetworkParams, _encode, _on_slope

logger = logging.getLogger(__name__)

ProgressFn = Callable[[int, int, float], None]

_BLOCK_ROWS = 256   # rows per block of a full-data pass; see _row_blocks


def _bind_dgemm():
    """``scipy_cblas_dgemm64_`` as numpy's own extension module resolves it, or None.

    A handle's symbol lookup also searches the libraries the module links,
    so on Linux this is the scipy-openblas that numpy's wheel bundles and
    has already loaded (``RTLD_NOLOAD``: no library is ever loaded), and
    the gemm runs numpy's own kernels under numpy's thread cap. None when
    numpy's BLAS exports no such symbol (Accelerate, MKL, a plain
    OpenBLAS), and on Windows, where a handle's lookup does not search the
    module's dependencies; macOS is unverified.
    """
    try:
        gemm = ctypes.CDLL(_multiarray_umath.__file__, mode=getattr(os, "RTLD_NOLOAD", 0)
                           ).scipy_cblas_dgemm64_
    except (OSError, AttributeError):
        return None
    gemm.restype = None
    # order, transa, transb are C enums; the sizes are 64-bit (ILP64).
    gemm.argtypes = ([ctypes.c_int] * 3 + [ctypes.c_int64] * 3
                     + [ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,
                        ctypes.c_void_p, ctypes.c_int64,
                        ctypes.c_double, ctypes.c_void_p, ctypes.c_int64])
    return gemm


_DGEMM = _bind_dgemm()
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112   # the CBLAS enum values


def _sub_outer(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``c -= a.T @ b`` in place.

    ``a`` is ``(B, m)``, ``b`` ``(B, n)`` and ``c`` ``(m, n)``, all aligned
    float64 C arrays, and ``c`` shares no memory with ``a`` or ``b``. One dgemm
    with ``alpha = -1``, ``beta = 1`` accumulates into ``c``, forming no
    product array; ``c + (-1) * acc`` rounds as ``c - acc``, so the bits are
    those of ``c -= a.T @ b``, which runs instead when :data:`_DGEMM` is None.
    Raises InvalidInputError, with ``c`` unwritten, on any other input.
    """
    if not (all(isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == np.float64
                and x.flags.c_contiguous and x.flags.aligned for x in (c, a, b))
            and c.flags.writeable and len(a) == len(b) and c.shape == (a.shape[1], b.shape[1])
            and not np.may_share_memory(c, a) and not np.may_share_memory(c, b)):
        raise InvalidInputError(
            "_sub_outer needs aligned float64 C arrays c (m, n), a (B, m) and b (B, n), "
            "c writable and sharing no memory with a or b")
    if _DGEMM is None:
        c -= a.T @ b
        return
    k, (m, n) = len(a), c.shape
    if k and m and n:
        _DGEMM(_ROW_MAJOR, _TRANS, _NO_TRANS, m, n, k, -1.0, a.ctypes.data, m,
               b.ctypes.data, n, 1.0, c.ctypes.data, n)


class TrainRule(enum.Enum):
    AE_GRADIENT = "ae-gradient"
    LOCAL_BRANCH = "local-branch"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train_stacked_ae`.

    ``rule`` is a :class:`TrainRule` or its value string. ``tie_decoder``
    (a bool) constrains each pair's decoder to the transpose of its
    encoder during ae-gradient training; it is incompatible with the
    local-branch rule, which by definition moves only the decoder.
    """

    learning_rate: float = 0.05
    epochs: int = 20
    batch_size: int = 32
    rule: TrainRule = TrainRule.AE_GRADIENT
    tie_decoder: bool = False
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rule", check_member("rule", self.rule, TrainRule))
        check_real("learning_rate", self.learning_rate, 0.0)
        check_count("epochs", self.epochs, 1)
        check_count("batch_size", self.batch_size, 1)
        check_real("init_scale", self.init_scale, 0.0)
        check_count("seed", self.seed, 0)
        if not isinstance(self.tie_decoder, bool):
            raise ConfigurationError(f"tie_decoder must be a bool, got {self.tie_decoder!r}")
        if self.tie_decoder and self.rule is TrainRule.LOCAL_BRANCH:
            raise ConfigurationError("tie_decoder is incompatible with the local-branch rule")


def _random_tied_arrays(spec: LayerSpec, init_scale: float, rng: np.random.Generator):
    sizes = spec.sizes
    ws, vs, bs, cs = [], [], [], []
    for k in range(spec.n_hidden_layers):
        bound = init_scale / np.sqrt(sizes[k])
        w = rng.uniform(-bound, bound, size=(sizes[k + 1], sizes[k]))
        ws.append(w)
        vs.append(w.T.copy())
        bs.append(np.zeros(sizes[k + 1]))
        cs.append(np.zeros(sizes[k]))
    return ws, vs, bs, cs


def _hand_over(spec: LayerSpec, ws, vs, bs, cs) -> NetworkParams:
    """:class:`NetworkParams`, with the hard sigmoid, holding the given arrays themselves.

    The arrays must be fresh float64 C arrays that nothing else writes:
    each is marked read-only first, so the container adopts it without a
    copy.
    """
    for a in (*ws, *vs, *bs, *cs):
        a.setflags(write=False)
    return NetworkParams(spec=spec, ff_weights=tuple(ws), fb_weights=tuple(vs),
                         ff_offsets=tuple(bs), fb_offsets=tuple(cs))


def init_random_tied(spec: LayerSpec, activation: Activation,
                     init_scale: float = 1.0, seed: int = 0) -> NetworkParams:
    """Random network with feedback weights exactly tied to the transpose.

    Feedforward entries are i.i.d. uniform on
    ``[-init_scale / sqrt(n_in), +init_scale / sqrt(n_in)]`` per layer,
    feedback matrices are element-exact transposes, and all offsets are
    zero. Deterministic under ``seed``. ``activation`` must be the hard
    sigmoid, the one :class:`Activation`, or its value string.
    """
    check_real("init_scale", init_scale, 0.0)
    check_member("activation", activation, Activation)
    ws, vs, bs, cs = _random_tied_arrays(spec, init_scale, np.random.default_rng(seed))
    return _hand_over(spec, ws, vs, bs, cs)


def norm_matched_random(target: NetworkParams, seed: int = 0) -> NetworkParams:
    """Random tied parameters with each layer rescaled to the target's norm.

    Draws the weights of ``init_random_tied(target.spec, ..., 1.0, seed)``
    and scales each in place to the Frobenius norm of the target's matrix,
    so a comparison against ``target`` is not confounded by weight scale.
    Any other draw scale would give the same weights up to rounding, so
    there is none to choose. Feedback stays the exact transpose and
    offsets stay zero.
    """
    ws, vs, bs, cs = _random_tied_arrays(target.spec, 1.0, np.random.default_rng(seed))
    for w, v, w_target in zip(ws, vs, target.ff_weights):
        w *= np.linalg.norm(w_target) / np.linalg.norm(w)
        v[...] = w.T
    return _hand_over(target.spec, ws, vs, bs, cs)


def _local_branch_step(weights, offsets, soma, rates, lr) -> None:
    """One error-correcting step for a layer of dendritic branches over a batch.

    Branch ``i`` predicts its somatic value from presynaptic rates ``r``
    as ``d_i = offsets[i] + weights[i] @ r``. For a batch of ``B`` rows
    (``soma`` is ``(B, n_out)``, ``rates`` is ``(B, n_in)``) the update
    moves the weights and offsets along the batch mean of
    ``lr * (soma - d) r^T`` and ``lr * (soma - d)``, which is exactly the
    negative gradient step on the mean half squared prediction error
    ``|soma - d|^2 / 2``. Repeated application to a fixed batch of one
    contracts ``|soma - d|`` monotonically whenever
    ``lr < 2 / (1 + ||r||^2)``. ``weights`` (``(n_out, n_in)``) and
    ``offsets`` (``(n_out,)``) are updated in place. The error is stored
    as ``d - soma`` and subtracted, which has the bits of adding its
    exact negation; the weight step is one dgemm into ``weights``
    (:func:`_sub_outer`), so no weight-sized temporary is formed. Only
    ``_sub_outer`` checks its arrays; nothing else is checked.
    """
    err = rates @ weights.T
    err += offsets
    err -= soma
    err *= lr / len(rates)
    _sub_outer(weights, err, rates)
    offsets -= err.sum(axis=0)


def _row_blocks(n: int) -> list[slice]:
    """Near-equal consecutive slices of about ``_BLOCK_ROWS`` rows covering ``range(n)``.

    One slice when ``n <= _BLOCK_ROWS``, else slices of at least half as
    many rows. numpy's OpenBLAS gives each row of such a gemm the bits of
    the one gemm over all rows, except with AVX-512 kernels at output
    widths below 10 and at 500: there 3 of 96 random 784-500-500
    networks' errors moved by an ulp.
    """
    count = -(-n // _BLOCK_ROWS)
    ends = [n * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(ends, ends[1:])]


def _pair_error(x: np.ndarray, encoders, v: np.ndarray, c: np.ndarray,
                hid: np.ndarray | None = None) -> float:
    """Mean squared error of decoding, through ``v, c``, the rates ``x`` encoded
    through every ``(w, b)`` of ``encoders``, the last encoding given whole
    as ``hid`` if computed; one row block at a time.

    A block's arrays are released before the next block is formed, so the
    pass holds one row block's arrays at a time.
    """
    sums = np.empty(len(x))
    for rows in _row_blocks(len(x)):
        codes = x[rows]
        for w, b in encoders[:-1]:
            codes = _encode(codes, w, b)
        rec = _encode(hid[rows] if hid is not None else _encode(codes, *encoders[-1]), v, c)
        rec -= codes
        np.square(rec, out=rec)
        rec.sum(axis=1, out=sums[rows])
        del codes, rec
    return float(np.mean(sums))


def _ae_gradient_epoch(codes: np.ndarray, perm: np.ndarray, w, v, b, c,
                       cfg: TrainConfig) -> int:
    """One epoch of ae-gradient steps over the batches of ``perm``, updating
    ``w, v, b, c`` in place; returns how many encoder units were saturated
    on every item of the epoch.

    The learning rate scales the batch-sized reconstruction error, so every
    gradient comes out as its step and no weight-sized array is scaled.
    Every weight step is one dgemm into the weights (:func:`_sub_outer`);
    ``d_hid`` is formed through ``v`` before ``v`` steps. Tied, the
    decoder's term is a second dgemm into ``w``, and ``v`` is then copied
    from ``w``.
    """
    gradient_seen = np.zeros(w.shape[0], dtype=bool)
    for start in range(0, len(perm), cfg.batch_size):
        xb = codes[perm[start:start + cfg.batch_size]]
        pre_h = xb @ w.T
        pre_h += b
        in_h = _on_slope(pre_h)
        gradient_seen |= in_h.any(axis=0)
        hid = np.clip(pre_h, 0.0, 1.0, out=pre_h)
        pre_y = hid @ v.T
        pre_y += c
        in_y = _on_slope(pre_y)
        d_rec = np.clip(pre_y, 0.0, 1.0, out=pre_y)
        d_rec -= xb
        d_rec *= 2.0 * cfg.learning_rate / len(xb)
        d_rec *= in_y
        d_hid = d_rec @ v
        d_hid *= in_h
        _sub_outer(w, d_hid, xb)
        if cfg.tie_decoder:
            _sub_outer(w, hid, d_rec)   # the decoder's term, (d_rec.T @ hid).T
            v[...] = w.T
        else:
            _sub_outer(v, d_rec, hid)
        b -= d_hid.sum(axis=0)
        c -= d_rec.sum(axis=0)
    return int(np.count_nonzero(~gradient_seen))


def train_stacked_ae(data: DatasetHandle, spec: LayerSpec, cfg: TrainConfig,
                     progress: ProgressFn | None = None) -> NetworkParams:
    """Greedy bottom-up training of the layer pairs as auto-encoders.

    Pair ``k`` is trained to reconstruct its input codes (the raw data
    for ``k = 1``, else the frozen encoding produced by the already
    trained lower pairs) through encoder
    ``enc(x) = rho(W_k x + b_k)`` and decoder
    ``dec(h) = rho(V_k h + c_k)``. The rule is taken from
    ``cfg.rule``; see the module docstring. Fully deterministic under
    ``cfg.seed``.

    Besides the dataset and the parameters, training holds one pair's
    codes, one batch's temporaries and one row block of the epoch
    error's layers; the next pair's codes are encoded once per lower
    pair. ``local-branch`` also holds the pair's encoding of its codes,
    and counts saturated units one row block of that encoding at a time.

    Args:
        data: Training items; dimension must equal the visible size.
        spec: Layer sizes of the network to produce.
        cfg: Hyperparameters and rule selection.
        progress: Optional callback ``(pair_index, epoch, error)``
            invoked after every epoch with the pair's current full-data
            reconstruction error (the error is only computed when a
            callback is supplied).

    Returns:
        The trained parameters (untied unless ``cfg.tie_decoder``).

    Raises:
        DatasetError: Empty dataset or dimension mismatch.
        ConfigurationError: ``batch_size`` exceeds the dataset size, or a
            non-finite loss or parameter appeared (the rate is too high
            for the data); the message names the pair and epoch.
    """
    codes = data._items_for(spec)   # read-only rates; each pair's codes are a new array
    n = len(codes)
    if cfg.batch_size > n:
        raise ConfigurationError(
            f"batch_size {cfg.batch_size} exceeds dataset size {n}")

    rng = np.random.default_rng(cfg.seed)
    ws, vs, bs, cs = _random_tied_arrays(spec, cfg.init_scale, rng)
    local = cfg.rule is TrainRule.LOCAL_BRANCH

    for k in range(1, spec.n_hidden_layers + 1):
        w, v, b, c = ws[k - 1], vs[k - 1], bs[k - 1], cs[k - 1]
        lower = k < spec.n_hidden_layers
        hid = None   # _encode(codes, w, b), once computed for the current encoder
        if local:
            pre = codes @ w.T
            pre += b
            # A unit is dead when its subderivative is 0 on every item; one row
            # block's mask at a time.
            slope_seen = np.zeros(w.shape[0], dtype=bool)
            for rows in _row_blocks(n):
                slope_seen |= _on_slope(pre[rows]).any(axis=0)
            n_dead = int(np.count_nonzero(~slope_seen))
            hid = np.clip(pre, 0.0, 1.0, out=pre)
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.permutation(n)
            # A diverging rate overflows; the checks below raise on what it leaves.
            with np.errstate(over="ignore", invalid="ignore"):
                if local:
                    for start in range(0, n, cfg.batch_size):
                        batch = perm[start:start + cfg.batch_size]
                        _local_branch_step(v, c, codes[batch], hid[batch], cfg.learning_rate)
                else:
                    n_dead = _ae_gradient_epoch(codes, perm, w, v, b, c, cfg)
                if not all(np.all(np.isfinite(a)) for a in (w, v, b, c)):
                    raise ConfigurationError(
                        f"non-finite parameters in pair {k} at epoch {epoch}")
                # Encode whole only what is read again: the next pair's codes.
                if hid is None and lower and epoch == cfg.epochs:
                    hid = _encode(codes, w, b)
                err = None if progress is None else _pair_error(codes, [(w, b)], v, c, hid)
            if n_dead:
                logger.info("pair %d epoch %d: %d/%d encoder units saturated for "
                            "the entire epoch", k, epoch, n_dead, w.shape[0])
            if err is not None:
                if not np.isfinite(err):
                    raise ConfigurationError(
                        f"non-finite reconstruction error in pair {k} at epoch {epoch}")
                progress(k, epoch, err)
        if lower:
            codes = hid

    return _hand_over(spec, ws, vs, bs, cs)


def reconstruction_error(params: NetworkParams, data: DatasetHandle, k: int) -> float:
    """Mean squared reconstruction error of layer pair ``(k, k + 1)``.

    Encodes the dataset up to layer ``k`` (``k = 0`` uses the raw
    visible data), passes those codes through pair ``k + 1``'s encoder
    and decoder, and returns the mean over items of the squared error
    norm. Zero exactly when the pair reconstructs every code perfectly.
    """
    if (isinstance(k, bool) or not isinstance(k, numbers.Integral)
            or not 0 <= k <= params.n_layers - 1):
        raise InvalidInputError(
            f"pair index {k!r} out of range 0..{params.n_layers - 1}")
    return _pair_error(data._items_for(params.spec),
                       list(zip(params.ff_weights[:k + 1], params.ff_offsets[:k + 1])),
                       params.fb_weights[k], params.fb_offsets[k])
