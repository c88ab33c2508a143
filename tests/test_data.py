import io
import json
import os
import struct
import zipfile

import numpy as np
import pytest

from ffinit import (
    Activation,
    CheckpointError,
    DatasetError,
    DatasetHandle,
    IdxFormatError,
    IdxLengthError,
    LayerSpec,
    NetworkParams,
    feedforward_init,
    load_idx_images,
    load_params,
    mutual_prediction_residual,
    save_params,
    subset,
    synth_autoencodable,
    synth_blobs,
)
from ffinit.data import default_mnist_images_path
from helpers import random_untied_params, rewrite_checkpoint


def write_idx(path, images, rows, cols, magic=0x00000803):
    header = struct.pack(">IIII", magic, len(images) // (rows * cols), rows, cols)
    path.write_bytes(header + bytes(images))


class TestIdxLoader:
    def test_crafted_fixture_scales_pixels(self, tmp_path):
        path = tmp_path / "two.idx"
        write_idx(path, [0, 255, 128, 0, 255, 255, 0, 0], 2, 2)
        data = load_idx_images(path)
        assert len(data) == 2 and data.dim == 4
        assert np.array_equal(data.items[0], [0.0, 1.0, 128 / 255, 0.0])
        assert np.array_equal(data.items[1], [1.0, 1.0, 0.0, 0.0])

    def test_label_magic_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx(path, [0, 0, 0, 0], 2, 2, magic=0x00000801)
        with pytest.raises(IdxFormatError):
            load_idx_images(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        header = struct.pack(">IIII", 0x00000803, 2, 2, 2)
        path.write_bytes(header + bytes([1, 2, 3]))
        with pytest.raises(IdxLengthError):
            load_idx_images(path)

    def test_oversized_payload_rejected(self, tmp_path):
        path = tmp_path / "long.idx"
        header = struct.pack(">IIII", 0x00000803, 1, 2, 2)
        path.write_bytes(header + bytes(5))
        with pytest.raises(IdxLengthError):
            load_idx_images(path)

    def test_header_too_short_rejected(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError):
            load_idx_images(path)

    def test_values_never_leave_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "rand.idx"
        write_idx(path, list(rng.integers(0, 256, size=3 * 4)), 2, 2)
        data = load_idx_images(path)
        assert data.items.min() >= 0.0 and data.items.max() <= 1.0


@pytest.mark.skipif(not os.environ.get("FFINIT_MNIST_DIR"),
                    reason="FFINIT_MNIST_DIR not set")
def test_real_mnist_train_file_shape():
    data = load_idx_images(default_mnist_images_path())
    assert len(data) == 60000
    assert data.dim == 784


class TestMnistPathResolution:
    def test_unset_env_gives_remediation_hint(self, monkeypatch):
        monkeypatch.delenv("FFINIT_MNIST_DIR", raising=False)
        with pytest.raises(DatasetError, match="FFINIT_MNIST_DIR"):
            default_mnist_images_path()

    def test_missing_file_reported(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FFINIT_MNIST_DIR", str(tmp_path))
        with pytest.raises(DatasetError, match="does not contain"):
            default_mnist_images_path()

    def test_alternate_dotted_name_found(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FFINIT_MNIST_DIR", str(tmp_path))
        (tmp_path / "train-images.idx3-ubyte").write_bytes(b"")
        assert default_mnist_images_path().name == "train-images.idx3-ubyte"


class TestSynthBlobs:
    def test_zero_spread_items_sit_on_centers(self):
        data = synth_blobs(40, 6, n_clusters=3, spread=0.0, seed=1)
        unique = np.unique(data.items, axis=0)
        assert unique.shape[0] <= 3

    def test_values_clipped_to_unit_interval(self):
        data = synth_blobs(200, 5, n_clusters=2, spread=5.0, seed=2)
        assert data.items.min() >= 0.0 and data.items.max() <= 1.0

    def test_seed_determinism(self):
        a = synth_blobs(30, 4, n_clusters=3, spread=0.1, seed=3)
        b = synth_blobs(30, 4, n_clusters=3, spread=0.1, seed=3)
        c = synth_blobs(30, 4, n_clusters=3, spread=0.1, seed=4)
        assert np.array_equal(a.items, b.items)
        assert not np.array_equal(a.items, c.items)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(DatasetError):
            synth_blobs(10, 0)


class TestSynthAutoencodable:
    def test_residual_tiny_on_every_item(self):
        data, params = synth_autoencodable(50, LayerSpec(sizes=(8, 6, 5, 4)), seed=5)
        assert len(data) == 50
        for x in data.items:
            res = mutual_prediction_residual(params, feedforward_init(params, x))
            assert res.max() <= 1e-9

    def test_growing_layer_sizes_supported(self):
        data, params = synth_autoencodable(20, LayerSpec(sizes=(4, 6, 5)), seed=6)
        for x in data.items:
            res = mutual_prediction_residual(params, feedforward_init(params, x))
            assert res.max() <= 1e-9

    def test_params_are_tied_with_interior_codes(self):
        data, params = synth_autoencodable(20, LayerSpec(sizes=(7, 5, 4)), seed=7)
        assert params.is_tied
        assert data.items.min() >= 0.1 and data.items.max() <= 0.9
        state = feedforward_init(params, data.items[0])
        for h in state.hidden:
            assert h.min() > 0.1 and h.max() < 0.9

    def test_perturbing_one_weight_breaks_the_construction(self):
        data, params = synth_autoencodable(20, LayerSpec(sizes=(8, 6, 5, 4)), seed=8)
        ws = [w.copy() for w in params.ff_weights]
        ws[0][0, 0] += 0.1
        broken = NetworkParams(spec=params.spec, ff_weights=tuple(ws),
                               fb_weights=params.fb_weights,
                               ff_offsets=params.ff_offsets,
                               fb_offsets=params.fb_offsets,
                               branch_gains=params.branch_gains,
                               activation=params.activation)
        worst = max(
            mutual_prediction_residual(broken, feedforward_init(broken, x)).max()
            for x in data.items)
        assert worst > 1e-9

    def test_determinism(self):
        a_data, a_params = synth_autoencodable(10, LayerSpec(sizes=(5, 4)), seed=9)
        b_data, b_params = synth_autoencodable(10, LayerSpec(sizes=(5, 4)), seed=9)
        assert np.array_equal(a_data.items, b_data.items)
        assert np.array_equal(a_params.ff_weights[0], b_params.ff_weights[0])


class TestDatasetHandle:
    def test_out_of_range_values_rejected(self):
        with pytest.raises(DatasetError):
            DatasetHandle(items=np.array([[0.5, 1.5]]))

    def test_items_read_only(self):
        data = synth_blobs(5, 3, seed=0)
        with pytest.raises(ValueError):
            data.items[0, 0] = 0.5

    def test_subset_takes_prefix(self):
        data = synth_blobs(10, 3, seed=0)
        head = subset(data, 4)
        assert len(head) == 4
        assert np.array_equal(head.items, data.items[:4])
        with pytest.raises(DatasetError):
            subset(data, 11)


GROUPS = ("ff_weights", "fb_weights", "ff_offsets", "fb_offsets")


def saved_checkpoint(tmp_path, sizes=(4, 3)):
    _, params = synth_autoencodable(2, LayerSpec(sizes=sizes), seed=0)
    path = tmp_path / "model.npz"
    save_params(params, path)
    return path, params


def assert_bit_identical(params, loaded):
    assert loaded.spec == params.spec
    assert loaded.activation is params.activation
    assert loaded.branch_gains == params.branch_gains
    for group in GROUPS:
        for a, b in zip(getattr(params, group), getattr(loaded, group)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCheckpointRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        params = random_untied_params(rng, sizes=(6, 5, 3))
        params = NetworkParams(spec=params.spec, ff_weights=params.ff_weights,
                               fb_weights=params.fb_weights,
                               ff_offsets=tuple(rng.normal(size=n)
                                                for n in (5, 3)),
                               fb_offsets=tuple(rng.normal(size=n)
                                                for n in (6, 5)),
                               branch_gains=(1.25, 0.75),
                               activation=Activation.HARD_SIGMOID)
        path = tmp_path / "model.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.activation is Activation.HARD_SIGMOID
        assert loaded.branch_gains == (1.25, 0.75)
        assert_bit_identical(params, loaded)

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        _, params = synth_autoencodable(2, LayerSpec(sizes=(4, 3)), seed=0)
        save_params(params, tmp_path / "model.json")
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_checkpoint_is_self_describing(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path, sizes=(4, 3, 2))
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == sorted(
                ["meta"] + [f"{group}_{k}" for group in GROUPS for k in (0, 1)])
            doc = json.loads(str(archive["meta"]))
            assert archive["ff_weights_1"].shape == (2, 3)
            assert archive["fb_offsets_0"].dtype == np.float64
        assert doc == {"format": "ffinit-model", "format_version": 2, "sizes": [4, 3, 2],
                       "activation": "hard-sigmoid", "branch_gains": [1.0, 1.0]}

    def test_wrong_format_rejected(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, meta={"format": "something-else"})
        with pytest.raises(CheckpointError, match="not a ffinit-model checkpoint"):
            load_params(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, meta={"format_version": 99})
        with pytest.raises(CheckpointError, match="unsupported format version 99"):
            load_params(path)

    def test_invalid_json_rejected(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, meta="{not json")
        with pytest.raises(CheckpointError, match="no valid meta entry"):
            load_params(path)

    def test_missing_key_rejected(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, drop=("ff_weights_0",))
        with pytest.raises(CheckpointError, match=r"missing \['ff_weights_0'\]"):
            load_params(path)

    def test_entry_declaring_a_huge_shape_rejected(self, tmp_path):
        # The entry's header promises 80 TB that the archive does not hold;
        # reading it must fail as a malformed checkpoint, not exhaust memory.
        path, _ = saved_checkpoint(tmp_path)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**13,)})
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("ff_weights_1.npy", header.getvalue())
        with pytest.raises(CheckpointError, match="unreadable checkpoint archive"):
            load_params(path)

    def test_every_truncation_and_byte_flip_is_rejected_or_harmless(self, tmp_path):
        # A damaged file either fails with CheckpointError or, where the
        # byte does not matter (a timestamp), loads the same model.
        path, params = saved_checkpoint(tmp_path, sizes=(2, 1))
        raw = path.read_bytes()
        damaged = [raw[:n] for n in range(0, len(raw), 7)]
        damaged += [raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
                    for mask in (0x01, 0xFF) for i in range(len(raw))]
        rejected = 0
        for data in damaged:
            path.write_bytes(data)
            try:
                loaded = load_params(path)
            except CheckpointError:
                rejected += 1
            else:
                assert_bit_identical(params, loaded)
        assert rejected > len(damaged) // 2
