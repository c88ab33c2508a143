"""Tests of the experiment harness: dataset construction, one block relaxation
per regime and the per-iteration CSV columns."""

import csv
import struct
from dataclasses import replace

import numpy as np
import pytest

from ffinit import harness
from ffinit import (DataSource, DatasetError, EnergyModel, LayerSpec, RelaxationConfig,
                    Scheme, TrainConfig, infer_from_feedforward, mutual_prediction_residual,
                    norm_matched_random, synth_autoencodable, synth_blobs, train_stacked_ae)
from ffinit.harness import (DatasetSpec, ExperimentSpec, build_dataset,
                            experiment_spec_from_config, run_experiment)
from helpers import traced_peak, write_idx

N_INPUTS = 12


def spec(out_dir) -> ExperimentSpec:
    return ExperimentSpec(
        dataset=DatasetSpec(source=DataSource.SYNTHETIC_BLOBS, n_items=48, n_clusters=4,
                            spread=0.05),
        sizes=LayerSpec(sizes=(16, 8, 4)),
        regimes=("trained-ae", "random-tied"),
        relaxation=RelaxationConfig(max_iters=60),
        train=TrainConfig(epochs=2, batch_size=16),
        n_inputs_evaluated=N_INPUTS,
        output_dir=str(out_dir),
        seed=3)


def test_each_regime_is_one_block_call(tmp_path, monkeypatch):
    calls = {"infer": [], "residual": []}

    def counting(name, fn):
        def wrapper(params, block, *args, **kwargs):
            calls[name].append(
                np.shape(block) if name == "infer" else block.visible.shape)
            return fn(params, block, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "infer_from_feedforward",
                        counting("infer", harness.infer_from_feedforward))
    monkeypatch.setattr(harness, "mutual_prediction_residual",
                        counting("residual", harness.mutual_prediction_residual))
    report = run_experiment(spec(tmp_path))
    assert calls["infer"] == [(N_INPUTS, 16)] * 2
    assert calls["residual"] == [(N_INPUTS, 16)] * 2
    assert [len(rr.iters_to_tol) for rr in report.regimes] == [N_INPUTS] * 2


def test_n_active_counts_the_inputs_still_relaxing(tmp_path):
    report = run_experiment(spec(tmp_path))
    for rr in report.regimes:
        with (tmp_path / f"{rr.regime}.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        n_active = [int(r["n_active"]) for r in rows]
        assert n_active == [int(np.sum(rr.iters_to_tol > i)) for i in range(len(rows))]
        assert n_active[0] == N_INPUTS and n_active[-1] >= 1
        assert all(a >= b for a, b in zip(n_active, n_active[1:]))


@pytest.mark.parametrize("relaxation, train", [
    (RelaxationConfig(max_iters=60), TrainConfig(epochs=2, batch_size=16)),
    (RelaxationConfig(scheme=Scheme.LEAKY, tau=2.0, max_iters=80),
     TrainConfig(epochs=2, batch_size=16, tie_decoder=True)),
    (RelaxationConfig(scheme=Scheme.LANGEVIN, tau=2.0, noise_scale=0.01, max_iters=15,
                      seed=4), TrainConfig(epochs=2, batch_size=16)),
], ids=["direct", "leaky-tied", "langevin"])
def test_iteration_means_average_over_the_inputs_still_relaxing(tmp_path, relaxation, train):
    # Row i of <regime>.csv must hold the statistics of sweep i over exactly the
    # inputs whose own run is longer than i sweeps. Training is deterministic
    # under the seed, so the regimes' parameters are rebuilt here and every
    # evaluated input is relaxed on its own.
    s = replace(spec(tmp_path), relaxation=relaxation, train=train)
    run_experiment(s)
    data = build_dataset(s.dataset, s.sizes, s.seed)
    trained = train_stacked_ae(data, s.sizes, s.train)
    regimes = {"trained-ae": trained,
               "random-tied": norm_matched_random(trained, train.seed)}
    for regime, params in regimes.items():
        model = EnergyModel(params) if params.is_tied else None
        traces = [infer_from_feedforward(params, x, relaxation, energy_model=model)[1]
                  for x in data.items[:N_INPUTS]]
        with (tmp_path / f"{regime}.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == max(t.iters_run for t in traces)
        for i, row in enumerate(rows):
            active = [t for t in traces if t.iters_run > i]
            steps = np.array([t.step_magnitudes[i] for t in active])
            assert int(row["n_active"]) == len(active)
            for column, want in (("step_mag_mean", steps.mean()),
                                 ("step_mag_min", steps.min()),
                                 ("step_mag_max", steps.max())):
                assert float(row[column]) == pytest.approx(want, rel=1e-12, abs=1e-12)
            if model is None:
                assert row["energy_mean"] == ""
            else:
                want = np.mean([t.energies[i + 1] for t in active])
                assert float(row["energy_mean"]) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestRelaxInput:
    """``harness.relax_input``, the one clamped relaxation of ``experiment`` and
    ``infer``: the feedforward relaxation, with energies exactly when the
    params are tied, and each input's worst residual over the layers."""

    CFG = RelaxationConfig(max_iters=60)

    @pytest.fixture(scope="class")
    def regimes(self):
        sizes = LayerSpec(sizes=(16, 8, 4))
        data = synth_blobs(48, 16, 4, 0.05, 3)
        untied = train_stacked_ae(data, sizes, TrainConfig(epochs=2, batch_size=16))
        tied = train_stacked_ae(data, sizes,
                                TrainConfig(epochs=2, batch_size=16, tie_decoder=True))
        return data.items[:3], {"untied": untied, "tie_decoder": tied,
                                "norm_matched_random": norm_matched_random(untied, 3)}

    @pytest.mark.parametrize("rows", [None, 3], ids=["vector", "block"])
    @pytest.mark.parametrize("regime", ["untied", "tie_decoder", "norm_matched_random"])
    def test_feedforward_relaxation_and_worst_residual(self, regimes, regime, rows):
        items, by_regime = regimes
        params = by_regime[regime]
        visible = items[0] if rows is None else items[:rows]
        trace, resid = harness.relax_input(params, visible, self.CFG)
        assert params.is_tied == (regime != "untied")
        assert (trace.energies is not None) == params.is_tied
        model = EnergyModel(params) if params.is_tied else None
        state, want = infer_from_feedforward(params, visible, self.CFG, energy_model=model)
        assert np.array_equal(trace.step_magnitudes, want.step_magnitudes, equal_nan=True)
        assert np.array_equal(trace.converged, want.converged)
        if model is not None:
            assert np.array_equal(trace.energies, want.energies, equal_nan=True)
        assert np.shape(resid) == np.shape(visible)[:-1]
        assert np.array_equal(resid, mutual_prediction_residual(params, state).max(axis=-1))


class TestBuildDataset:
    @pytest.fixture
    def idx_path(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx(path, list(range(6 * 4)), 2, 2)
        return path

    @pytest.mark.parametrize("n_items, expected", [(1, 1), (4, 4), (6, 6), (9, 6)])
    def test_idx_file_truncated_to_n_items(self, idx_path, n_items, expected):
        dspec = DatasetSpec(source="idx-file", path=str(idx_path), n_items=n_items)
        data = build_dataset(dspec, LayerSpec(sizes=(4, 3)), 0)
        assert np.array_equal(data.items, np.arange(6 * 4).reshape(6, 4)[:expected] / 255.0)

    @pytest.mark.parametrize("dataset", [{}, {"n_items": None}], ids=["omitted", "null"])
    def test_idx_file_read_whole_without_n_items(self, tmp_path, dataset):
        path = tmp_path / "images.idx"
        pixels = np.arange(2001 * 4) % 256
        write_idx(path, pixels.tolist(), 2, 2)
        spec = experiment_spec_from_config({
            "sizes": [4, 3], "regimes": ["trained-ae"],
            "dataset": {"source": "idx-file", "path": str(path), **dataset}})
        data = build_dataset(spec.dataset, spec.sizes, spec.seed)
        assert len(data) == 2001
        assert np.array_equal(data.items, pixels.reshape(2001, 4) / 255.0)

    def test_idx_rows_converted_only_when_kept(self, tmp_path):
        # 10 of 10,000 28x28 images: only the header and the 10 kept rows'
        # bytes (7.8 KB) are read, not the file's 7.84 MB, and only those rows
        # become float64 (62.7 KB), not all 62.7 MB.
        path = tmp_path / "images.idx"
        pixels = (np.arange(10_000 * 784) % 256).astype(np.uint8)
        write_idx(path, pixels, 28, 28)
        dspec = DatasetSpec(source="idx-file", path=str(path), n_items=10)
        data, peak = traced_peak(build_dataset, dspec, LayerSpec(sizes=(784, 5)), 0)
        assert np.array_equal(data.items, pixels[:10 * 784].reshape(10, 784) / 255.0)
        assert peak < 1e6

    @pytest.mark.parametrize("held", [6 * 4 - 1, 6 * 4 + 1], ids=["truncated", "long"])
    def test_idx_length_checked_when_reading_one_item(self, tmp_path, held):
        # The read stops after the first image; the file's length is still checked.
        path = tmp_path / "images.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 6, 2, 2) + bytes(held))
        dspec = DatasetSpec(source="idx-file", path=str(path), n_items=1)
        with pytest.raises(DatasetError, match=f"declares 24 pixel bytes, file holds {held}$"):
            build_dataset(dspec, LayerSpec(sizes=(4, 3)), 0)

    def test_idx_dimension_mismatch(self, idx_path):
        with pytest.raises(DatasetError, match="does not match visible size 5"):
            build_dataset(DatasetSpec(source="idx-file", path=str(idx_path)),
                          LayerSpec(sizes=(5, 3)), 0)

    def test_empty_idx_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        write_idx(path, [], 2, 2)
        with pytest.raises(DatasetError, match="empty"):
            build_dataset(DatasetSpec(source="idx-file", path=str(path)),
                          LayerSpec(sizes=(4, 3)), 0)

    def test_missing_idx_file(self, tmp_path):
        with pytest.raises(DatasetError, match="does not exist"):
            build_dataset(DatasetSpec(source="idx-file", path=str(tmp_path / "absent.idx")),
                          LayerSpec(sizes=(4, 3)), 0)

    def test_synthetic_autoencodable_items(self):
        sizes = LayerSpec(sizes=(6, 4, 3))
        data = build_dataset(DatasetSpec(source="synthetic-autoencodable", n_items=10), sizes, 7)
        assert np.array_equal(data.items, synth_autoencodable(10, sizes, 7)[0].items)
