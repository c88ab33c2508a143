"""Shared test utilities and independent oracle implementations.

The oracles here deliberately avoid the package's own code paths: the
energy oracle works on a dense all-units coupling matrix with explicit
loops, and the sweep oracle is a straight-line reimplementation of the
alternating update. Tests compare package output against these.
"""

import json

import numpy as np

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


def sweep_oracle(params, state, n_iters):
    """Straight-line reimplementation of the alternating direct sweep.

    Returns the final hidden vectors and the per-iteration step
    magnitudes, using the same odd-then-even order and gain-weighted
    branch averaging as the inference engine.
    """
    assert params.activation is Activation.HARD_SIGMOID
    a_bu, a_td = params.branch_gains
    L = params.n_layers
    hidden = [np.array(h) for h in state.hidden]
    rho_v = _rho(np.asarray(state.visible, dtype=float))
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
            for k, val in new.items():
                hidden[k - 1] = val
        steps.append(float(np.linalg.norm(np.concatenate(hidden) - before)))
    return hidden, steps
