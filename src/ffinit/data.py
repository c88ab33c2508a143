"""Dataset ingestion, synthetic generators, and model persistence.

A model checkpoint is format 2: an uncompressed ``np.savez`` archive with
one float64 entry per parameter array (``ff_weights_<k>``,
``fb_weights_<k>``, ``ff_offsets_<k>``, ``fb_offsets_<k>``) and a ``meta``
entry holding a JSON string (``format``, ``format_version``, ``sizes``,
``activation``, ``branch_gains``). See :func:`save_params` and
:func:`load_params`; format 1 JSON checkpoints are no longer read.

Every array built here reaches its read-only container
(:class:`DatasetHandle` or :class:`~ffinit.network.NetworkParams`)
already read-only, with no writable view made of it, so the container
adopts it instead of copying it (the ownership rule of
:func:`ffinit.network._frozen`).
"""

from __future__ import annotations

import enum
import json
import os
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import CheckpointError, DatasetError, check_count, check_fits, check_real
from .network import (
    LayerSpec,
    NetworkParams,
    _ARRAY_GROUPS,
    _frozen,
    feedforward_init,
    mutual_prediction_residual,
)

IDX_IMAGE_MAGIC = 0x00000803
MODEL_FORMAT = "ffinit-model"
MODEL_FORMAT_VERSION = 2
_LATENT_RADIUS = 0.35
_BLOB_CHUNK_BYTES = 1 << 20   # the gather temporary of synth_blobs


class DataSource(enum.Enum):
    IDX_FILE = "idx-file"
    SYNTHETIC_BLOBS = "synthetic-blobs"
    SYNTHETIC_AUTOENCODABLE = "synthetic-autoencodable"


@dataclass(frozen=True, eq=False)
class DatasetHandle:
    """Immutable collection of vectors with entries in ``[0, 1]``.

    ``items`` is held read-only in C order, adopted or copied by the
    ownership rule of :func:`ffinit.network._frozen`. A handle compares
    and hashes by identity.
    """

    items: np.ndarray

    def __post_init__(self):
        items = _frozen(self.items)
        if items.ndim != 2:
            raise DatasetError(f"items must be a 2-d array, got shape {items.shape}")
        # min and max propagate NaN, and a NaN fails both comparisons.
        if items.size and not (items.min() >= 0.0 and items.max() <= 1.0):
            raise DatasetError("dataset values must be finite and within [0, 1]")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return self.items.shape[0]

    @property
    def dim(self) -> int:
        return self.items.shape[1]

    def _items_for(self, spec: LayerSpec) -> np.ndarray:
        """The items; DatasetError unless there is at least one and its
        width is the visible size of ``spec``, the network it is to feed."""
        if not len(self):
            raise DatasetError("the dataset is empty")
        if self.dim != spec.visible_size:
            raise DatasetError(
                f"dataset dimension {self.dim} does not match visible size {spec.visible_size}")
        return self.items


def _load_idx(path: str | Path, n_items: int | None) -> DatasetHandle:
    """The first ``n_items`` images (all when None) of an IDX image file
    (unsigned bytes), scaled into ``[0, 1]``.

    The format is a big-endian header ``magic(0x00000803), count, rows,
    cols`` followed by ``count * rows * cols`` raw pixel bytes; each
    image becomes one flat vector of dimension ``rows * cols`` scaled by
    ``1 / 255``. The payload's length is checked against the file's size,
    and only the kept images' bytes are read.

    Raises:
        DatasetError: Wrong magic number or malformed header, or a
            payload shorter or longer than the header declares.
    """
    path = Path(path)
    with path.open("rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise DatasetError(f"{path}: too short to hold an IDX image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise DatasetError(
                f"{path}: magic 0x{magic:08x} is not an IDX image file "
                f"(expected 0x{IDX_IMAGE_MAGIC:08x})")
        expected = count * rows * cols
        held = os.fstat(f.fileno()).st_size - 16
        if held != expected:
            raise DatasetError(
                f"{path}: header declares {expected} pixel bytes, file holds {held}")
        kept = count if n_items is None else min(count, n_items)
        raw = f.read(kept * rows * cols)
    if len(raw) != kept * rows * cols:   # the file shrank after its size was read
        raise DatasetError(
            f"{path}: file ended after {len(raw)} of the {kept * rows * cols} pixel bytes "
            f"of its first {kept} images")
    items = np.frombuffer(raw, dtype=np.uint8).reshape(kept, rows * cols).astype(float)
    items /= 255.0
    items.setflags(write=False)
    return DatasetHandle(items)


def synth_blobs(n_items: int, d: int, n_clusters: int, spread: float,
                seed: int) -> DatasetHandle:
    """Gaussian clusters clipped to the unit cube.

    Cluster centers are uniform in ``[0.1, 0.9]^d``; each item is its
    cluster center plus isotropic Gaussian noise of standard deviation
    ``spread``, clipped to ``[0, 1]``. Deterministic under ``seed``.

    The noise is drawn straight into the result and the centers are added
    to it a chunk of rows at a time, so the only temporary besides the
    result is one chunk.

    Raises:
        DatasetError: A bad count, spread or seed, or an array numpy cannot
            hold; checked before anything is drawn.
    """
    for name, count in (("n_items", n_items), ("d", d), ("n_clusters", n_clusters)):
        check_count(name, count, 1, error=DatasetError)
    check_real("spread", spread, 0.0, error=DatasetError)
    check_count("seed", seed, 0, error=DatasetError)
    check_fits(f"n_items {n_items} at width {d}", n_items, d, DatasetError)
    check_fits(f"n_clusters {n_clusters} at width {d}", n_clusters, d, DatasetError)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(n_clusters, d))
    assignment = rng.integers(0, n_clusters, size=n_items)
    items = rng.standard_normal((n_items, d))
    with np.errstate(over="ignore"):   # the clip below maps an overflow into the cube
        items *= spread   # at spread 0 the noise is +-0.0, which leaves a center's bits
    chunk = max(1, _BLOB_CHUNK_BYTES // (8 * d))
    for start in range(0, n_items, chunk):
        items[start:start + chunk] += centers[assignment[start:start + chunk]]
    np.clip(items, 0.0, 1.0, out=items)
    items.setflags(write=False)
    return DatasetHandle(items)


def synth_autoencodable(n_items: int, spec: LayerSpec,
                        seed: int = 0) -> tuple[DatasetHandle, NetworkParams]:
    """Ground-truth instance on which every layer pair reconstructs exactly.

    All layer codes are placed on a shared low-dimensional affine
    manifold centered at 0.5: layer ``k`` holds ``0.5 + U_k z`` with
    orthonormal ``U_k`` and a latent ``z`` of norm at most 0.35. The
    weights map the manifolds onto each other exactly
    (``W_k = U_k U_{k-1}^T``, feedback tied to the transpose), so every
    pre-activation lies within 0.35 of 0.5, inside the linear region of
    the hard sigmoid, and both branch predictions coincide with the
    state on every item. One self-check of the feedforward residual
    guards the construction.

    Returns:
        The dataset of visible vectors and the exact parameters,
        suitable as an oracle for fast-inference tests.

    Raises:
        DatasetError: A bad ``n_items`` or ``seed``, or more items than
            numpy can hold at the visible size, checked before anything is
            drawn; or the built instance failed its residual check (reported
            with the worst residual).
    """
    sizes = spec.sizes
    check_count("n_items", n_items, 1, error=DatasetError)
    check_count("seed", seed, 0, error=DatasetError)
    check_fits(f"n_items {n_items} at width {sizes[0]}", n_items, sizes[0], DatasetError)
    m = min(sizes)
    rng = np.random.default_rng(seed)
    bases = [np.linalg.qr(rng.standard_normal((size, m)))[0] for size in sizes]
    ws, vs, bs, cs = [], [], [], []
    for k in range(1, len(sizes)):
        w = bases[k] @ bases[k - 1].T
        ws.append(w)
        vs.append(w.T)   # NetworkParams makes a C-ordered copy
        bs.append(0.5 * np.ones(sizes[k]) - 0.5 * (w @ np.ones(sizes[k - 1])))
        cs.append(0.5 * np.ones(sizes[k - 1]) - 0.5 * (w.T @ np.ones(sizes[k])))
    params = NetworkParams(spec=spec, ff_weights=tuple(ws), fb_weights=tuple(vs),
                           ff_offsets=tuple(bs), fb_offsets=tuple(cs))
    bound = _LATENT_RADIUS / np.sqrt(m)
    items = 0.5 + rng.uniform(-bound, bound, size=(n_items, m)) @ bases[0].T
    items.setflags(write=False)   # DatasetHandle adopts it
    worst = float(mutual_prediction_residual(params, feedforward_init(params, items)).max())
    if worst > 1e-9:
        raise DatasetError(
            f"could not build an exactly reconstructing instance for sizes {sizes}: "
            f"worst feedforward residual {worst:.3e} exceeds 1e-9")
    return DatasetHandle(items), params


def _read_only(entry: np.ndarray) -> np.ndarray:
    """Mark a freshly loaded array and the array it views read-only, so
    :class:`~ffinit.network.NetworkParams` adopts it without a copy."""
    if isinstance(entry.base, np.ndarray):
        entry.base.setflags(write=False)
    entry.setflags(write=False)
    return entry


def save_params(params: NetworkParams, path: str | Path) -> None:
    """Write a model checkpoint in format 2, an uncompressed ``.npz`` archive.

    The archive holds one float64 entry per array of ``params``:
    ``ff_weights_<k>``, ``fb_weights_<k>``, ``ff_offsets_<k>`` and
    ``fb_offsets_<k>`` for ``k`` in ``0..L-1``, indexed as in
    :class:`~ffinit.network.NetworkParams`. A ``meta`` entry holds one
    JSON string with ``format``, ``format_version`` (2), ``sizes``,
    ``activation`` and ``branch_gains``, always ``[1.0, 1.0]`` (the
    branches' plain mean). The arrays are stored in binary,
    so :func:`load_params` reproduces every value bit for bit. The file
    is written at ``path`` as given; no ``.npz`` suffix is added.
    """
    meta = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "sizes": list(params.spec.sizes),
        "activation": params.activation.value,
        "branch_gains": [1.0, 1.0],
    }
    arrays = {f"{group}_{k}": a for group in _ARRAY_GROUPS
              for k, a in enumerate(getattr(params, group))}
    with open(path, "wb") as f:
        np.savez(f, meta=np.array(json.dumps(meta)), **arrays)


def load_params(path: str | Path) -> NetworkParams:
    """Load a format 2 checkpoint written by :func:`save_params`.

    The archive is read with ``allow_pickle=False``, so no entry is ever
    unpickled. It must hold the ``meta`` entry, whose ``branch_gains``
    must be ``[1.0, 1.0]`` because the branches are combined by their
    plain mean, and exactly the array entries its ``sizes`` call for,
    each float64 of either byte order; the arrays then go through
    :class:`~ffinit.network.NetworkParams`, which checks every shape and
    every value for finiteness.

    Raises:
        CheckpointError: The file is not a format 2 archive (a format 1
            JSON checkpoint among them), is truncated or corrupt, holds
            an object entry, misses an entry or has an extra one, holds
            an array entry that is not float64, or its metadata or arrays
            are invalid.
        OSError: The file cannot be opened.
    """
    path = Path(path)
    with path.open("rb") as f:
        head = f.read(4)
        if head[:1] == b"{":
            raise CheckpointError(
                f"{path}: a format 1 JSON checkpoint; JSON checkpoints are no longer read, "
                "re-save the model with `ffinit train`")
        if head != b"PK\x03\x04":
            raise CheckpointError(f"{path}: not a {MODEL_FORMAT} checkpoint (an .npz archive)")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as archive:
                entries = {name: _read_only(archive[name]) for name in archive.files}
        except (zipfile.BadZipFile, EOFError, MemoryError, OSError, RuntimeError,
                ValueError) as exc:
            # Besides BadZipFile, a corrupt directory can ask for a negative
            # seek (OSError) or flag an entry encrypted (RuntimeError), and an
            # entry's header can declare a shape too large to allocate.
            raise CheckpointError(f"{path}: unreadable checkpoint archive: {exc}") from exc
    try:
        meta = json.loads(str(entries.pop("meta")))
    except (KeyError, ValueError, RecursionError) as exc:   # too deeply nested
        raise CheckpointError(f"{path}: no valid meta entry: {exc!r}") from exc
    if not isinstance(meta, dict) or meta.get("format") != MODEL_FORMAT:
        raise CheckpointError(f"{path}: not a {MODEL_FORMAT} checkpoint")
    if meta.get("format_version") != MODEL_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {meta.get('format_version')}")
    try:
        spec = LayerSpec(sizes=tuple(meta["sizes"]))
        gains = meta["branch_gains"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint metadata: {exc}") from exc
    if gains != [1.0, 1.0] or any(isinstance(g, bool) for g in gains):
        raise CheckpointError(
            f"{path}: branch_gains must be [1.0, 1.0]: the two branches are combined by "
            f"their plain mean; got {gains!r}")
    n_pairs = spec.n_hidden_layers
    expected = {f"{group}_{k}" for group in _ARRAY_GROUPS for k in range(n_pairs)}
    if set(entries) != expected:
        raise CheckpointError(
            f"{path}: entries do not match sizes {list(spec.sizes)}: missing "
            f"{sorted(expected - set(entries))}, unexpected {sorted(set(entries) - expected)}")
    for name in sorted(entries):
        dtype = entries[name].dtype
        if dtype.newbyteorder("=") != np.float64:   # float64 of either byte order
            raise CheckpointError(
                f"{path}: entry {name} has dtype {dtype}; format 2 stores float64 only")
    try:
        return NetworkParams(
            spec=spec,
            **{group: tuple(entries[f"{group}_{k}"] for k in range(n_pairs))
               for group in _ARRAY_GROUPS},
            activation=meta.get("activation"),   # NetworkParams checks it
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
