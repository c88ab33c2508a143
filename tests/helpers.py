"""Shared test utilities and independent oracle implementations.

The oracles here deliberately avoid the package's own code paths: the
energy oracle works on a dense all-units coupling matrix with explicit
loops, the sweep oracle is a straight-line reimplementation of the
alternating update, the local-branch oracle trains each pair in
straight lines from one whole encoding of its codes, and the ae-gradient
oracle takes its batch steps in straight lines, allocating freely.
Tests compare package output against these.
"""

import json
import struct
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  imported here, so traced_peak does not count its import

from ffinit import Activation, LayerSpec, NetworkParams, NetworkState


def make_params(sizes, ff_weights, fb_weights=None, ff_offsets=None, fb_offsets=None,
                gains=(1.0, 1.0), activation=Activation.HARD_SIGMOID):
    """Build NetworkParams from plain nested lists, defaulting feedback to tied."""
    sizes = tuple(sizes)
    ws = [np.array(w, dtype=float) for w in ff_weights]
    vs = ([np.array(v, dtype=float) for v in fb_weights]
          if fb_weights is not None else [w.T.copy() for w in ws])
    bs = ([np.array(b, dtype=float) for b in ff_offsets]
          if ff_offsets is not None else [np.zeros(sizes[k + 1]) for k in range(len(ws))])
    cs = ([np.array(c, dtype=float) for c in fb_offsets]
          if fb_offsets is not None else [np.zeros(sizes[k]) for k in range(len(ws))])
    return NetworkParams(spec=LayerSpec(sizes=sizes), ff_weights=tuple(ws),
                         fb_weights=tuple(vs), ff_offsets=tuple(bs),
                         fb_offsets=tuple(cs), branch_gains=gains,
                         activation=activation)


def write_idx(path, images, rows, cols, magic=0x00000803):
    """Write ``images`` (a flat list of pixel bytes) as an IDX image file."""
    header = struct.pack(">IIII", magic, len(images) // (rows * cols), rows, cols)
    path.write_bytes(header + bytes(images))


def _read_only(a):
    a.setflags(write=False)
    return a


# How a container receives an array it must copy. Each case turns a float64
# C array into (the array handed over, a writable array reaching its memory
# or None).
COPIED_CASES = {
    "writable": lambda a: (a, a),
    "read-only view of writable memory": lambda a: (_read_only(a.view()), a),
    "read-only float32": lambda a: (_read_only(a.astype(np.float32)), None),
    "read-only Fortran order": lambda a: (_read_only(np.asfortranarray(a)), None),
    "read-only rows of a larger read-only array":
        lambda a: (_read_only(np.vstack([a, a]))[:len(a)], None),
}
# How a container receives an array it adopts: owned and read-only, or a
# same-size view of such an array (as np.load returns).
ADOPTED_CASES = {
    "owned read-only": _read_only,
    "same-size view of an owned read-only array":
        lambda a: _read_only(a.ravel().copy()).reshape(a.shape),
}


def param_bytes(params):
    """Bytes held by the arrays of ``params``."""
    return sum(a.nbytes for group in (params.ff_weights, params.fb_weights,
                                      params.ff_offsets, params.fb_offsets)
               for a in group)


def traced_peak(fn, *args):
    """Run ``fn(*args)``; return its result and the peak bytes traced meanwhile.

    ``tracemalloc`` sees numpy's array buffers, so the peak counts every
    array ``fn`` holds at once, its result included.
    """
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before


def rewrite_checkpoint(path, meta=None, drop=(), **entries):
    """Rewrite a checkpoint archive written by ``save_params`` in place.

    ``meta`` updates keys of the ``meta`` entry's JSON document, or, as a
    string, replaces its text; ``drop`` names entries to remove; keyword
    arguments add or replace entries (an object array is pickled).
    """
    with np.load(path, allow_pickle=False) as archive:
        contents = {name: archive[name] for name in archive.files}
    if isinstance(meta, str):
        contents["meta"] = np.array(meta)
    elif meta:
        contents["meta"] = np.array(json.dumps({**json.loads(str(contents["meta"])), **meta}))
    for name in drop:
        del contents[name]
    contents.update(entries)
    with open(path, "wb") as f:
        np.savez(f, **contents)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class Tripwire:
    """Unpickling an instance appends to ``UNPICKLED``."""

    def __reduce__(self):
        return _record_unpickling, ()


def random_sizes(rng, max_size=8, max_hidden=3):
    n_hidden = int(rng.integers(1, max_hidden + 1))
    return tuple(int(rng.integers(1, max_size + 1)) for _ in range(n_hidden + 1))


def random_tied_params(rng, sizes=None, scale=1.0, with_offsets=False,
                       activation=Activation.HARD_SIGMOID):
    sizes = sizes or random_sizes(rng)
    ws, bs, cs = [], [], []
    for k in range(len(sizes) - 1):
        bound = scale / np.sqrt(sizes[k])
        ws.append(rng.uniform(-bound, bound, size=(sizes[k + 1], sizes[k])))
        bs.append(rng.normal(0.0, 0.3, size=sizes[k + 1]) if with_offsets
                  else np.zeros(sizes[k + 1]))
        cs.append(rng.normal(0.0, 0.3, size=sizes[k]) if with_offsets
                  else np.zeros(sizes[k]))
    return make_params(sizes, ws, ff_offsets=bs, fb_offsets=cs, activation=activation)


def random_untied_params(rng, sizes=None, scale=1.0):
    sizes = sizes or random_sizes(rng)
    ws, vs = [], []
    for k in range(len(sizes) - 1):
        bound = scale / np.sqrt(sizes[k])
        ws.append(rng.uniform(-bound, bound, size=(sizes[k + 1], sizes[k])))
        vs.append(rng.uniform(-bound, bound, size=(sizes[k], sizes[k + 1])))
    return make_params(sizes, ws, fb_weights=vs)


def random_state(rng, params, lo=0.0, hi=1.0):
    sizes = params.spec.sizes
    return NetworkState(
        visible=rng.uniform(lo, hi, size=sizes[0]),
        hidden=tuple(rng.uniform(lo, hi, size=n) for n in sizes[1:]))


def _rho(x):
    return np.clip(x, 0.0, 1.0)


def dense_energy_oracle(params, state):
    """Energy via an explicit dense symmetric coupling matrix and unit loops.

    Unit order: visible, then each hidden layer. Quadratic weights are
    1/2 for the visible and top hidden layer and 1 for interior hidden
    layers; the double sum over the dense symmetric matrix is halved so
    that each pair counts once.
    """
    assert params.activation is Activation.HARD_SIGMOID
    sizes = params.spec.sizes
    L = len(sizes) - 1
    offsets_of = np.cumsum([0] + list(sizes))
    n_total = offsets_of[-1]
    coupling = np.zeros((n_total, n_total))
    for k in range(1, L + 1):
        w = params.ff_weights[k - 1]
        lo_below, lo_here = offsets_of[k - 1], offsets_of[k]
        for i in range(sizes[k]):
            for j in range(sizes[k - 1]):
                coupling[lo_here + i, lo_below + j] = w[i, j]
                coupling[lo_below + j, lo_here + i] = w[i, j]
    bias = np.zeros(n_total)
    bias[:sizes[0]] = params.fb_offsets[0]
    for k in range(1, L + 1):
        seg = slice(offsets_of[k], offsets_of[k + 1])
        bias[seg] = params.ff_offsets[k - 1]
        if k < L:
            bias[seg] += params.fb_offsets[k]
    quad = np.empty(n_total)
    quad[:sizes[0]] = 0.5
    for k in range(1, L + 1):
        quad[offsets_of[k]:offsets_of[k + 1]] = 1.0 if k < L else 0.5
    s = np.concatenate([state.visible] + list(state.hidden))
    rho_s = _rho(s)
    e = float(np.sum(quad * s * s))
    for i in range(n_total):
        for j in range(n_total):
            e -= 0.5 * coupling[i, j] * rho_s[i] * rho_s[j]
    e -= float(bias @ rho_s)
    return e


def pair_error_oracle(items, params, k):
    """``reconstruction_error(params, items, k)`` in straight lines: each
    layer of every item from one gemm over all items."""
    codes = items
    for w, b in zip(params.ff_weights[:k], params.ff_offsets[:k]):
        codes = _rho(codes @ w.T + b)
    hid = _rho(codes @ params.ff_weights[k].T + params.ff_offsets[k])
    rec = _rho(hid @ params.fb_weights[k].T + params.fb_offsets[k])
    return float(np.mean(np.square(rec - codes).sum(axis=1)))


def sweep_oracle(params, state, n_iters, tau=1.0, noise_scale=0.0, seed=0):
    """Straight-line reimplementation of the alternating sweep.

    Returns the final hidden vectors and the per-iteration step
    magnitudes, using the same odd-then-even order as the inference
    engine. Each half-sweep clips every layer afresh, and each updated
    layer moves to ``(1 - 1/tau) s + (1/tau) (T + noise)`` for its target
    ``T`` (``tau = 1``, the default, is the direct sweep). With a
    positive ``noise_scale``, each layer update draws its noise from the
    ``seed`` stream in update order, as Langevin relaxation does. It
    weighs the two branches by ``params.branch_gains``, written out: at
    the only gains there are, (1, 1), that is exactly the bits of the
    engine's plain mean.
    """
    assert params.activation is Activation.HARD_SIGMOID
    a_bu, a_td = params.branch_gains
    L = params.n_layers
    hidden = [np.array(h) for h in state.hidden]
    rho_v = _rho(np.asarray(state.visible, dtype=float))
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n_iters):
        before = np.concatenate(hidden)
        for parity in (1, 0):
            rates = [rho_v] + [_rho(h) for h in hidden]
            new = {}
            for k in range(1, L + 1):
                if k % 2 != parity:
                    continue
                f = params.ff_offsets[k - 1] + params.ff_weights[k - 1] @ rates[k - 1]
                if k == L:
                    new[k] = _rho((a_bu * f) / a_bu)
                else:
                    g = params.fb_offsets[k] + params.fb_weights[k] @ rates[k + 1]
                    new[k] = _rho((a_bu * f + a_td * g) / (a_bu + a_td))
                if noise_scale > 0.0:
                    new[k] = new[k] + rng.normal(0.0, noise_scale, size=len(new[k]))
            for k, val in new.items():
                hidden[k - 1] = (1.0 - 1.0 / tau) * hidden[k - 1] + (1.0 / tau) * val
        steps.append(float(np.linalg.norm(np.concatenate(hidden) - before)))
    return hidden, steps


def _random_tied_lists(rng, sizes, init_scale):
    """The random-tied ``(ws, vs, bs, cs)`` that training starts from, drawn from ``rng``."""
    ws, vs, bs, cs = [], [], [], []
    for k in range(len(sizes) - 1):
        bound = init_scale / np.sqrt(sizes[k])
        ws.append(rng.uniform(-bound, bound, size=(sizes[k + 1], sizes[k])))
        vs.append(ws[-1].T.copy())
        bs.append(np.zeros(sizes[k + 1]))
        cs.append(np.zeros(sizes[k]))
    return ws, vs, bs, cs


def _on_slope(x):
    return (x >= 0.0) & (x <= 1.0)


def local_branch_oracle(items, sizes, cfg):
    """Straight-line local-branch training from one encoding per pair.

    Draws the same random-tied initialization and permutations from
    ``cfg.seed`` as ``train_stacked_ae``. Each pair's codes are encoded
    through the frozen encoder once, in one gemm; every shuffled batch of
    that encoding takes the delta-rule step on the decoder, written out,
    and the encoding becomes the next pair's codes. Returns the trained
    ``(ws, vs, bs, cs)`` lists, the full-data reconstruction error after
    every epoch, and per epoch the number of encoder units saturated on
    every item.
    """
    rng = np.random.default_rng(cfg.seed)
    ws, vs, bs, cs = _random_tied_lists(rng, sizes, cfg.init_scale)
    codes = items
    errors, dead = [], []
    for w, v, b, c in zip(ws, vs, bs, cs):
        pre = codes @ w.T + b
        hid = _rho(pre)
        n_dead = int(np.count_nonzero(~np.any(_on_slope(pre), axis=0)))
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(codes))
            for start in range(0, len(codes), cfg.batch_size):
                batch = perm[start:start + cfg.batch_size]
                hid_b = hid[batch]
                err = (codes[batch] - (hid_b @ v.T + c)) * (cfg.learning_rate / len(batch))
                v += err.T @ hid_b
                c += err.sum(axis=0)
            dead.append(n_dead)
            rec = _rho(hid @ v.T + c)
            errors.append(float(np.mean(np.sum((codes - rec) ** 2, axis=1))))
        codes = hid
    return (ws, vs, bs, cs), errors, dead


def ae_gradient_oracle(items, sizes, cfg):
    """Straight-line ae-gradient training, allocating every array afresh.

    Draws the same initialization and permutations from ``cfg.seed`` as
    ``train_stacked_ae``. Every batch steps ``(w, v, b, c)`` by the
    gradient of the batch's mean squared reconstruction error, with
    ``2 * lr / B`` applied to the output error as the package applies it;
    under ``cfg.tie_decoder`` the decoder is the encoder's transpose.
    Each pair's trained encoding of its codes, from one gemm, becomes the
    next pair's codes. Returns what :func:`local_branch_oracle` returns.
    """
    rng = np.random.default_rng(cfg.seed)
    ws, vs, bs, cs = _random_tied_lists(rng, sizes, cfg.init_scale)
    codes = items
    errors, dead = [], []
    for w, v, b, c in zip(ws, vs, bs, cs):
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(codes))
            seen = np.zeros(len(w), dtype=bool)
            for start in range(0, len(codes), cfg.batch_size):
                xb = codes[perm[start:start + cfg.batch_size]]
                pre_h = xb @ w.T + b
                seen |= np.any(_on_slope(pre_h), axis=0)
                hid = _rho(pre_h)
                pre_y = hid @ v.T + c
                d_rec = ((_rho(pre_y) - xb) * (2.0 * cfg.learning_rate / len(xb))
                         * _on_slope(pre_y))
                d_hid = (d_rec @ v) * _on_slope(pre_h)
                g_w, g_v = d_hid.T @ xb, d_rec.T @ hid
                if cfg.tie_decoder:
                    w -= g_w
                    w -= hid.T @ d_rec
                    v[...] = w.T
                else:
                    w -= g_w
                    v -= g_v
                b -= d_hid.sum(axis=0)
                c -= d_rec.sum(axis=0)
            dead.append(int(np.count_nonzero(~seen)))
            rec = _rho(_rho(codes @ w.T + b) @ v.T + c)
            errors.append(float(np.mean(np.sum((codes - rec) ** 2, axis=1))))
        codes = _rho(codes @ w.T + b)
    return (ws, vs, bs, cs), errors, dead
