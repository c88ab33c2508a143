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
    LayerSpec,
    NetworkParams,
    feedforward_init,
    init_random_tied,
    load_params,
    mutual_prediction_residual,
    save_params,
    synth_autoencodable,
    synth_blobs,
)
from ffinit.data import _load_idx
from helpers import (ADOPTED_CASES, COPIED_CASES, param_bytes, random_untied_params,
                     rewrite_checkpoint, traced_peak, write_idx)


class TestIdxLoader:
    def test_crafted_fixture_scales_pixels(self, tmp_path):
        path = tmp_path / "two.idx"
        write_idx(path, [0, 255, 128, 0, 255, 255, 0, 0], 2, 2)
        data = _load_idx(path, None)
        assert len(data) == 2 and data.dim == 4
        assert np.array_equal(data.items[0], [0.0, 1.0, 128 / 255, 0.0])
        assert np.array_equal(data.items[1], [1.0, 1.0, 0.0, 0.0])

    def test_label_magic_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx(path, [0, 0, 0, 0], 2, 2, magic=0x00000801)
        with pytest.raises(DatasetError, match="magic 0x00000801 is not an IDX image file"):
            _load_idx(path, None)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        header = struct.pack(">IIII", 0x00000803, 2, 2, 2)
        path.write_bytes(header + bytes([1, 2, 3]))
        with pytest.raises(DatasetError, match="header declares 8 pixel bytes, file holds 3"):
            _load_idx(path, None)

    def test_oversized_payload_rejected(self, tmp_path):
        path = tmp_path / "long.idx"
        header = struct.pack(">IIII", 0x00000803, 1, 2, 2)
        path.write_bytes(header + bytes(5))
        with pytest.raises(DatasetError, match="header declares 4 pixel bytes, file holds 5"):
            _load_idx(path, None)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # A file that shrinks after its size is read: the size seen passes the
        # length check, and the read then ends early.
        path = tmp_path / "shrinking.idx"
        header = struct.pack(">IIII", 0x00000803, 2, 2, 2)
        path.write_bytes(header + bytes(7))
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], 16 + 8, *real_fstat(fd)[7:])))   # st_size is entry 6
        with pytest.raises(DatasetError, match="ended after 7 of the 8 pixel bytes"):
            _load_idx(path, None)

    def test_header_too_short_rejected(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(DatasetError, match="too short to hold an IDX image header"):
            _load_idx(path, None)

    def test_items_are_the_pixels_over_255(self, tmp_path):
        pixels = np.random.default_rng(0).integers(0, 256, size=5 * 28 * 28)
        path = tmp_path / "five.idx"
        write_idx(path, pixels.tolist(), 28, 28)
        data = _load_idx(path, None)
        assert np.array_equal(data.items, pixels.reshape(5, 784) / 255.0)
        assert not data.items.flags.writeable

    def test_values_never_leave_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "rand.idx"
        write_idx(path, list(rng.integers(0, 256, size=3 * 4)), 2, 2)
        data = _load_idx(path, None)
        assert data.items.min() >= 0.0 and data.items.max() <= 1.0


@pytest.mark.skipif(not os.environ.get("FFINIT_MNIST_DIR"),
                    reason="FFINIT_MNIST_DIR not set")
def test_real_mnist_train_file_shape():
    data = _load_idx(os.path.join(os.environ["FFINIT_MNIST_DIR"], "train-images-idx3-ubyte"),
                     None)
    assert len(data) == 60000
    assert data.dim == 784


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

    @pytest.mark.parametrize("n_items, d, n_clusters, named", [
        (10, 0, 8, "d"), (0, 4, 2, "n_items"), (10, 4, 0, "n_clusters"),
        (2.5, 4, 2, "n_items"), (True, 4, 2, "n_items"), (10, 4.0, 2, "d"),
        (10, 4, "2", "n_clusters")])
    def test_invalid_dimensions_rejected(self, n_items, d, n_clusters, named):
        with pytest.raises(DatasetError, match=f"^{named} must be an integer in"):
            synth_blobs(n_items, d, n_clusters, 0.05, 0)

    @pytest.mark.parametrize("spread", [np.nan, -0.5, np.inf, "a", None, True], ids=repr)
    def test_invalid_spread_rejected(self, spread):
        with pytest.raises(DatasetError, match="spread"):
            synth_blobs(10, 3, 8, spread, 0)

    def test_huge_spread_saturates_without_a_warning(self):
        # The scale overflows to +-inf, which the clip maps onto the cube's
        # faces; filterwarnings = error turns any escaping warning into a failure.
        data = synth_blobs(50, 8, 3, 1e308, 0)
        assert np.all((data.items == 0.0) | (data.items == 1.0))

    @pytest.mark.parametrize("n_items, n_clusters, named", [
        (2**61, 8, "n_items 2305843009213693952"),
        (2000, 2**61, "n_clusters 2305843009213693952")])
    def test_more_entries_than_an_array_holds_rejected(self, monkeypatch, n_items,
                                                      n_clusters, named):
        monkeypatch.setattr(np.random, "default_rng", None)   # refused before any draw
        with pytest.raises(DatasetError, match=f"{named} at width 784 .* float64 array"):
            synth_blobs(n_items, 784, n_clusters, 0.02, 0)

    @pytest.mark.parametrize("spread", [0.3, 0.0])
    def test_matches_straight_line_generator(self, spread):
        # 500 rows of 784 span several of the chunks the centers are added in.
        n, d, k, seed = 500, 784, 5, 7
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.1, 0.9, size=(k, d))
        assignment = rng.integers(0, k, size=n)
        z = rng.standard_normal((n, d))
        expected = np.clip(centers[assignment] + spread * z, 0.0, 1.0)
        data = synth_blobs(n, d, n_clusters=k, spread=spread, seed=seed)
        assert np.array_equal(data.items, expected)


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

    @pytest.mark.parametrize("n_items", [0, 1.5, True], ids=repr)
    def test_no_items_rejected(self, n_items):
        with pytest.raises(DatasetError, match=r"n_items must be an integer in \[1, inf\]"):
            synth_autoencodable(n_items, LayerSpec(sizes=(5, 4)))

    def test_more_entries_than_an_array_holds_rejected(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)   # refused before any draw
        with pytest.raises(DatasetError,
                           match="n_items 2305843009213693952 at width 784 .* float64 array"):
            synth_autoencodable(2**61, LayerSpec(sizes=(784, 5)))

    def test_determinism(self):
        a_data, a_params = synth_autoencodable(10, LayerSpec(sizes=(5, 4)), seed=9)
        b_data, b_params = synth_autoencodable(10, LayerSpec(sizes=(5, 4)), seed=9)
        assert np.array_equal(a_data.items, b_data.items)
        assert np.array_equal(a_params.ff_weights[0], b_params.ff_weights[0])


class TestDatasetHandle:
    def test_one_dimensional_items_rejected(self):
        with pytest.raises(DatasetError, match=r"2-d array, got shape \(3,\)"):
            DatasetHandle(items=np.zeros(3))

    def test_out_of_range_values_rejected(self):
        with pytest.raises(DatasetError):
            DatasetHandle(items=np.array([[0.5, 1.5]]))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_values_rejected(self, bad):
        with pytest.raises(DatasetError):
            DatasetHandle(items=np.array([[0.5, bad]]))

    @pytest.mark.parametrize("case", COPIED_CASES)
    def test_array_is_copied(self, case):
        a = np.arange(6.0).reshape(3, 2) / 8
        x, writer = COPIED_CASES[case](a.copy())
        items = DatasetHandle(x).items
        assert not np.shares_memory(items, x) and not items.flags.writeable
        if writer is not None:
            writer[...] = 1.0
        assert np.array_equal(items, a)

    @pytest.mark.parametrize("case", ADOPTED_CASES)
    def test_array_is_adopted(self, case):
        x = ADOPTED_CASES[case](np.arange(6.0).reshape(3, 2) / 8)
        items = DatasetHandle(x).items
        assert np.shares_memory(items, x) and not items.flags.writeable

    def test_items_read_only(self):
        data = synth_blobs(5, 3, 8, 0.05, 0)
        with pytest.raises(ValueError):
            data.items[0, 0] = 0.5


class TestMemory:
    """Each producer builds its arrays once: its traced peak stays near its
    output, at the benchmark's shapes (2000 x 784 items, 784-500-500)."""

    def test_synth_blobs_peak(self):
        data, peak = traced_peak(synth_blobs, 2000, 784, 8, 0.02, 0)
        assert peak <= 1.25 * data.items.nbytes

    def test_load_params_peak(self, tmp_path):
        path = tmp_path / "model.npz"
        save_params(init_random_tied(LayerSpec((784, 500, 500)), Activation.HARD_SIGMOID),
                    path)
        params, peak = traced_peak(load_params, path)
        assert peak <= 1.25 * param_bytes(params)


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
                               branch_gains=(1.0, 1.0),
                               activation=Activation.HARD_SIGMOID)
        path = tmp_path / "model.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.activation is Activation.HARD_SIGMOID
        assert loaded.branch_gains == (1.0, 1.0)
        assert_bit_identical(params, loaded)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path, sizes=(5, 4, 3))
        loaded = load_params(path)
        for group in GROUPS:
            for a in getattr(loaded, group):
                assert not a.flags.writeable
                assert a.base is None or not a.base.flags.writeable

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

    @pytest.mark.parametrize("gains", [[1.0], [1, 1, 5], "11", [True, True], [1.0, "1"],
                                       {"bu": 1, "td": 1}, None, [1.25, 0.75]],
                             ids=["one", "three", "string", "bools", "number-string",
                                  "object", "null", "weighted-mean"])
    def test_gains_other_than_the_plain_mean_rejected(self, tmp_path, gains):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, meta={"branch_gains": gains})
        with pytest.raises(CheckpointError, match=r"branch_gains must be \[1.0, 1.0\]"):
            load_params(path)

    def test_big_endian_entries_load_bit_for_bit(self, tmp_path):
        path, params = saved_checkpoint(tmp_path, sizes=(5, 4, 3))
        rewrite_checkpoint(path, **{f"{group}_{k}": a.astype(">f8")
                                    for group in GROUPS
                                    for k, a in enumerate(getattr(params, group))})
        with np.load(path, allow_pickle=False) as archive:
            assert archive["ff_weights_0"].dtype == np.dtype(">f8")
        assert_bit_identical(params, load_params(path))

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
