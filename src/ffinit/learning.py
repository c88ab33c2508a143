"""Weight regimes: random transpose-tied networks and trained stacks.

Two training rules are provided for the greedy layerwise auto-encoder
stack. ``ae-gradient`` does exact gradient descent on each pair's
reconstruction loss, backpropagating through the pair's decoder into its
encoder (and no further: training is local to the pair). ``local-branch``
freezes the encoders at their random-tied initialization and fits only
the top-down branch of each pair with the error-correcting delta rule
(:func:`local_branch_update`), i.e. a linear regression of the branch's
voltage-scale prediction onto the feedforward activation it should
predict.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DatasetHandle
from .exceptions import (
    ConfigurationError,
    DatasetError,
    DivergenceError,
    InvalidInputError,
    check_count,
    check_member,
    check_real,
)
from .network import (
    Activation,
    LayerSpec,
    NetworkParams,
    activation_subderivative,
    apply_activation,
)

logger = logging.getLogger(__name__)

ProgressFn = Callable[[int, int, float], None]


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


def init_random_tied(spec: LayerSpec, activation: Activation,
                     init_scale: float = 1.0, seed: int = 0) -> NetworkParams:
    """Random network with feedback weights exactly tied to the transpose.

    Feedforward entries are i.i.d. uniform on
    ``[-init_scale / sqrt(n_in), +init_scale / sqrt(n_in)]`` per layer,
    feedback matrices are element-exact transposes, and all offsets are
    zero. Deterministic under ``seed``.
    """
    check_real("init_scale", init_scale, 0.0)
    ws, vs, bs, cs = _random_tied_arrays(spec, init_scale, np.random.default_rng(seed))
    return NetworkParams(spec=spec, ff_weights=tuple(ws), fb_weights=tuple(vs),
                         ff_offsets=tuple(bs), fb_offsets=tuple(cs),
                         branch_gains=(1.0, 1.0), activation=activation)


def norm_matched_random(target: NetworkParams, init_scale: float = 1.0,
                        seed: int = 0) -> NetworkParams:
    """Random tied parameters with each layer rescaled to the target's norm.

    Starts from ``init_random_tied(target.spec, ...)`` and scales every
    feedforward matrix to the Frobenius norm of the target's matrix, so
    a comparison against ``target`` is not confounded by weight scale.
    Feedback stays the exact transpose and offsets stay zero.
    """
    base = init_random_tied(target.spec, Activation.HARD_SIGMOID, init_scale, seed)
    ws = []
    for w, w_target in zip(base.ff_weights, target.ff_weights):
        norm = np.linalg.norm(w)
        ws.append(w * (np.linalg.norm(w_target) / norm if norm > 0 else 1.0))
    return NetworkParams(spec=base.spec, ff_weights=tuple(ws),
                         fb_weights=tuple(w.T.copy() for w in ws),
                         ff_offsets=base.ff_offsets, fb_offsets=base.fb_offsets)


def local_branch_update(weights: np.ndarray, offsets: np.ndarray, soma: np.ndarray,
                        presyn_rates: np.ndarray, lr: float) -> None:
    """One error-correcting step for a layer of dendritic branches over a batch.

    Branch ``i`` predicts its somatic value from presynaptic rates ``r``
    as ``d_i = offsets[i] + weights[i] @ r``. For a batch of ``B`` rows
    (``soma`` is ``(B, n_out)``, ``presyn_rates`` is ``(B, n_in)``) the
    update moves the weights and offsets along the batch mean of
    ``lr * (soma - d) r^T`` and ``lr * (soma - d)``, which is exactly the
    negative gradient step on the mean half squared prediction error
    ``|soma - d|^2 / 2``. Repeated application to a fixed batch of one
    contracts ``|soma - d|`` monotonically whenever
    ``lr < 2 / (1 + ||r||^2)``.

    ``weights`` (``(n_out, n_in)``) and ``offsets`` (``(n_out,)``) are
    float arrays updated in place, as training updates its decoder.
    """
    soma = np.asarray(soma, dtype=float)
    presyn_rates = np.asarray(presyn_rates, dtype=float)
    if (weights.ndim != 2 or offsets.shape != weights.shape[:1]
            or presyn_rates.ndim != 2 or presyn_rates.shape[1] != weights.shape[1]
            or soma.shape != (len(presyn_rates), len(weights))):
        raise InvalidInputError(
            f"weights {weights.shape}, offsets {offsets.shape}, soma {soma.shape} and "
            f"presynaptic rates {presyn_rates.shape} do not fit together")
    if not np.all((presyn_rates >= 0.0) & (presyn_rates <= 1.0)):
        raise InvalidInputError("presynaptic rates must lie in [0, 1]")
    err = soma - (presyn_rates @ weights.T + offsets)
    scale = lr / len(presyn_rates)
    weights += scale * (err.T @ presyn_rates)
    offsets += scale * err.sum(axis=0)


def _pair_error(x: np.ndarray, w, b, v, c, act: Activation) -> float:
    hid = apply_activation(act, apply_activation(act, x) @ w.T + b)
    rec = apply_activation(act, hid @ v.T + c)
    return float(np.mean(np.sum((x - rec) ** 2, axis=1)))


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
        ConfigurationError: ``batch_size`` exceeds the dataset size.
        DivergenceError: A non-finite loss or parameter appeared; the
            exception reports the pair and epoch.
    """
    items = data.items
    n = len(items)
    if n == 0:
        raise DatasetError("cannot train on an empty dataset")
    if items.shape[1] != spec.visible_size:
        raise DatasetError(
            f"dataset dimension {items.shape[1]} does not match visible size "
            f"{spec.visible_size}")
    if cfg.batch_size > n:
        raise ConfigurationError(
            f"batch_size {cfg.batch_size} exceeds dataset size {n}")

    rng = np.random.default_rng(cfg.seed)
    ws, vs, bs, cs = _random_tied_arrays(spec, cfg.init_scale, rng)
    lr = cfg.learning_rate
    activation = Activation.HARD_SIGMOID

    codes = np.array(items, dtype=float)
    for k in range(1, spec.n_hidden_layers + 1):
        w, v, b, c = ws[k - 1], vs[k - 1], bs[k - 1], cs[k - 1]
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.permutation(n)
            gradient_seen = np.zeros(w.shape[0], dtype=bool)
            for start in range(0, n, cfg.batch_size):
                xb = codes[perm[start:start + cfg.batch_size]]
                batch = len(xb)
                pre_h = xb @ w.T + b
                hid = apply_activation(activation, pre_h)
                gradient_seen |= np.any(
                    activation_subderivative(activation, pre_h) > 0.0, axis=0)
                if cfg.rule is TrainRule.LOCAL_BRANCH:
                    local_branch_update(v, c, xb, hid, lr)
                else:
                    pre_y = hid @ v.T + c
                    rec = apply_activation(activation, pre_y)
                    d_rec = (2.0 / batch) * (rec - xb) \
                        * activation_subderivative(activation, pre_y)
                    g_v = d_rec.T @ hid
                    g_c = d_rec.sum(axis=0)
                    d_hid = (d_rec @ v) * activation_subderivative(activation, pre_h)
                    g_w = d_hid.T @ xb
                    g_b = d_hid.sum(axis=0)
                    if cfg.tie_decoder:
                        w -= lr * (g_w + g_v.T)
                        v[...] = w.T
                    else:
                        w -= lr * g_w
                        v -= lr * g_v
                    b -= lr * g_b
                    c -= lr * g_c
            if not all(np.all(np.isfinite(a)) for a in (w, v, b, c)):
                raise DivergenceError(
                    f"non-finite parameters in pair {k} at epoch {epoch}", k, epoch)
            n_dead = int(np.count_nonzero(~gradient_seen))
            if n_dead:
                logger.info("pair %d epoch %d: %d/%d encoder units saturated for "
                            "the entire epoch", k, epoch, n_dead, w.shape[0])
            if progress is not None:
                err = _pair_error(codes, w, b, v, c, activation)
                if not np.isfinite(err):
                    raise DivergenceError(
                        f"non-finite reconstruction error in pair {k} at epoch {epoch}",
                        k, epoch)
                progress(k, epoch, err)
        codes = apply_activation(activation, codes @ w.T + b)

    return NetworkParams(spec=spec, ff_weights=tuple(ws), fb_weights=tuple(vs),
                         ff_offsets=tuple(bs), fb_offsets=tuple(cs))


def reconstruction_error(params: NetworkParams, data: DatasetHandle, k: int) -> float:
    """Mean squared reconstruction error of layer pair ``(k, k + 1)``.

    Encodes the dataset up to layer ``k`` (``k = 0`` uses the raw
    visible data), passes those codes through pair ``k + 1``'s encoder
    and decoder, and returns the mean over items of the squared error
    norm. Zero exactly when the pair reconstructs every code perfectly.
    """
    if not 0 <= k <= params.n_layers - 1:
        raise InvalidInputError(
            f"pair index {k} out of range 0..{params.n_layers - 1}")
    items = data.items
    if len(items) == 0:
        raise DatasetError("cannot evaluate reconstruction on an empty dataset")
    if items.shape[1] != params.spec.visible_size:
        raise DatasetError(
            f"dataset dimension {items.shape[1]} does not match visible size "
            f"{params.spec.visible_size}")
    act = params.activation
    codes = np.array(items, dtype=float)
    for j in range(1, k + 1):
        codes = apply_activation(act, codes @ params.ff_weights[j - 1].T
                                 + params.ff_offsets[j - 1])
    return _pair_error(codes, params.ff_weights[k], params.ff_offsets[k],
                       params.fb_weights[k], params.fb_offsets[k], act)
