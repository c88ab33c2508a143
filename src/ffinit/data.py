"""Dataset ingestion, synthetic generators, and model persistence.

A model checkpoint is format 2: an uncompressed ``np.savez`` archive with
one float64 entry per parameter array (``ff_weights_<k>``,
``fb_weights_<k>``, ``ff_offsets_<k>``, ``fb_offsets_<k>``) and a ``meta``
entry holding a JSON string (``format``, ``format_version``, ``sizes``,
``activation``, ``branch_gains``). See :func:`save_params` and
:func:`load_params`; format 1 JSON checkpoints are no longer read.
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

from .exceptions import (
    CheckpointError,
    ConstructionError,
    DatasetError,
    IdxFormatError,
    IdxLengthError,
)
from .network import (
    Activation,
    LayerSpec,
    NetworkParams,
    feedforward_init,
    mutual_prediction_residual,
)

IDX_IMAGE_MAGIC = 0x00000803
MNIST_DIR_ENV = "FFINIT_MNIST_DIR"
MODEL_FORMAT = "ffinit-model"
MODEL_FORMAT_VERSION = 2
_LATENT_RADIUS = 0.35
_ARRAY_GROUPS = ("ff_weights", "fb_weights", "ff_offsets", "fb_offsets")


class DataSource(enum.Enum):
    IDX_FILE = "idx-file"
    SYNTHETIC_BLOBS = "synthetic-blobs"
    SYNTHETIC_AUTOENCODABLE = "synthetic-autoencodable"


@dataclass(frozen=True)
class DatasetHandle:
    """Immutable collection of vectors with entries in ``[0, 1]``."""

    items: np.ndarray

    def __post_init__(self):
        items = np.array(self.items, dtype=float)
        if items.ndim != 2:
            raise DatasetError(f"items must be a 2-d array, got shape {items.shape}")
        if items.size and (not np.all(np.isfinite(items))
                           or items.min() < 0.0 or items.max() > 1.0):
            raise DatasetError("dataset values must be finite and within [0, 1]")
        items.setflags(write=False)
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return self.items.shape[0]

    @property
    def dim(self) -> int:
        return self.items.shape[1]


def subset(data: DatasetHandle, n_items: int) -> DatasetHandle:
    """First ``n_items`` of a dataset, preserving order."""
    if not 0 < n_items <= len(data):
        raise DatasetError(f"cannot take {n_items} items from a dataset of {len(data)}")
    return DatasetHandle(data.items[:n_items])


def load_idx_images(path: str | Path) -> DatasetHandle:
    """Load an IDX image file (unsigned bytes), scaled into ``[0, 1]``.

    The format is a big-endian header ``magic(0x00000803), count, rows,
    cols`` followed by ``count * rows * cols`` raw pixel bytes; each
    image becomes one flat vector of dimension ``rows * cols`` scaled by
    ``1 / 255``.

    Raises:
        IdxFormatError: Wrong magic number or malformed header.
        IdxLengthError: The payload is shorter or longer than the header
            declares.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16:
        raise IdxFormatError(f"{path}: too short to hold an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x} is not an IDX image file "
            f"(expected 0x{IDX_IMAGE_MAGIC:08x})")
    expected = count * rows * cols
    payload = raw[16:]
    if len(payload) != expected:
        raise IdxLengthError(
            f"{path}: header declares {expected} pixel bytes, file holds {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    return DatasetHandle(pixels.astype(float) / 255.0)


def default_mnist_images_path() -> Path:
    """Resolve an MNIST IDX file from the ``FFINIT_MNIST_DIR`` directory.

    This package never downloads data; point the environment variable at
    a directory holding the standard IDX files (or pass an explicit path
    where one is accepted).
    """
    directory = os.environ.get(MNIST_DIR_ENV)
    if not directory:
        raise DatasetError(
            f"no dataset path given and {MNIST_DIR_ENV} is not set; set it to a "
            "directory containing the MNIST IDX files or configure an explicit path")
    for candidate in ("train-images-idx3-ubyte", "train-images.idx3-ubyte"):
        path = Path(directory) / candidate
        if path.exists():
            return path
    raise DatasetError(
        f"{MNIST_DIR_ENV}={directory} does not contain train-images-idx3-ubyte; download the "
        "standard MNIST IDX files into that directory")


def synth_blobs(n_items: int, d: int, n_clusters: int = 8, spread: float = 0.05,
                seed: int = 0) -> DatasetHandle:
    """Gaussian clusters clipped to the unit cube.

    Cluster centers are uniform in ``[0.1, 0.9]^d``; each item is its
    cluster center plus isotropic Gaussian noise of standard deviation
    ``spread``, clipped to ``[0, 1]``. Deterministic under ``seed``.
    """
    if d < 1 or n_items < 1 or n_clusters < 1:
        raise DatasetError("n_items, d, and n_clusters must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(n_clusters, d))
    assignment = rng.integers(0, n_clusters, size=n_items)
    items = centers[assignment]
    if spread > 0.0:
        items = items + spread * rng.standard_normal((n_items, d))
    return DatasetHandle(np.clip(items, 0.0, 1.0))


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
        ConstructionError: The built instance failed its residual check
            (reported with the worst residual).
    """
    sizes = spec.sizes
    if n_items < 1:
        raise DatasetError("n_items must be >= 1")
    m = min(sizes)
    rng = np.random.default_rng(seed)
    bases = [np.linalg.qr(rng.standard_normal((size, m)))[0] for size in sizes]
    ws, vs, bs, cs = [], [], [], []
    for k in range(1, len(sizes)):
        w = bases[k] @ bases[k - 1].T
        ws.append(w)
        vs.append(w.T.copy())
        bs.append(0.5 * np.ones(sizes[k]) - 0.5 * (w @ np.ones(sizes[k - 1])))
        cs.append(0.5 * np.ones(sizes[k - 1]) - 0.5 * (w.T @ np.ones(sizes[k])))
    params = NetworkParams(spec=spec, ff_weights=tuple(ws), fb_weights=tuple(vs),
                           ff_offsets=tuple(bs), fb_offsets=tuple(cs),
                           branch_gains=(1.0, 1.0), activation=Activation.HARD_SIGMOID)
    bound = _LATENT_RADIUS / np.sqrt(m)
    items = 0.5 + rng.uniform(-bound, bound, size=(n_items, m)) @ bases[0].T
    worst = float(mutual_prediction_residual(params, feedforward_init(params, items)).max())
    if worst > 1e-9:
        raise ConstructionError(
            f"could not build an exactly reconstructing instance for sizes {sizes}: "
            f"worst feedforward residual {worst:.3e} exceeds 1e-9")
    return DatasetHandle(items), params


def save_params(params: NetworkParams, path: str | Path) -> None:
    """Write a model checkpoint in format 2, an uncompressed ``.npz`` archive.

    The archive holds one float64 entry per array of ``params``:
    ``ff_weights_<k>``, ``fb_weights_<k>``, ``ff_offsets_<k>`` and
    ``fb_offsets_<k>`` for ``k`` in ``0..L-1``, indexed as in
    :class:`~ffinit.network.NetworkParams`. A ``meta`` entry holds one
    JSON string with ``format``, ``format_version`` (2), ``sizes``,
    ``activation`` and ``branch_gains``. The arrays are stored in binary,
    so :func:`load_params` reproduces every value bit for bit. The file
    is written at ``path`` as given; no ``.npz`` suffix is added.
    """
    meta = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "sizes": list(params.spec.sizes),
        "activation": params.activation.value,
        "branch_gains": [params.branch_gains[0], params.branch_gains[1]],
    }
    arrays = {f"{group}_{k}": a for group in _ARRAY_GROUPS
              for k, a in enumerate(getattr(params, group))}
    with open(path, "wb") as f:
        np.savez(f, meta=np.array(json.dumps(meta)), **arrays)


def load_params(path: str | Path) -> NetworkParams:
    """Load a format 2 checkpoint written by :func:`save_params`.

    The archive is read with ``allow_pickle=False``, so no entry is ever
    unpickled. It must hold the ``meta`` entry and exactly the array
    entries its ``sizes`` call for; the arrays then go through
    :class:`~ffinit.network.NetworkParams`, which checks every shape,
    every value for finiteness and the branch gains.

    Raises:
        CheckpointError: The file is not a format 2 archive (a format 1
            JSON checkpoint among them), is truncated or corrupt, holds
            an object entry, misses an entry or has an extra one, or its
            metadata or arrays are invalid.
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
                entries = {name: archive[name] for name in archive.files}
        except (zipfile.BadZipFile, EOFError, MemoryError, OSError, RuntimeError,
                ValueError) as exc:
            # Besides BadZipFile, a corrupt directory can ask for a negative
            # seek (OSError) or flag an entry encrypted (RuntimeError), and an
            # entry's header can declare a shape too large to allocate.
            raise CheckpointError(f"{path}: unreadable checkpoint archive: {exc}") from exc
    try:
        meta = json.loads(str(entries.pop("meta")))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: no valid meta entry: {exc!r}") from exc
    if not isinstance(meta, dict) or meta.get("format") != MODEL_FORMAT:
        raise CheckpointError(f"{path}: not a {MODEL_FORMAT} checkpoint")
    if meta.get("format_version") != MODEL_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {meta.get('format_version')}")
    try:
        spec = LayerSpec(sizes=tuple(meta["sizes"]))
        activation = Activation(meta["activation"])
        gains = (float(meta["branch_gains"][0]), float(meta["branch_gains"][1]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint metadata: {exc}") from exc
    n_pairs = spec.n_hidden_layers
    expected = {f"{group}_{k}" for group in _ARRAY_GROUPS for k in range(n_pairs)}
    if set(entries) != expected:
        raise CheckpointError(
            f"{path}: entries do not match sizes {list(spec.sizes)}: missing "
            f"{sorted(expected - set(entries))}, unexpected {sorted(set(entries) - expected)}")
    try:
        return NetworkParams(
            spec=spec,
            **{group: tuple(entries[f"{group}_{k}"] for k in range(n_pairs))
               for group in _ARRAY_GROUPS},
            branch_gains=gains,
            activation=activation,
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
