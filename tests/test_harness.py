"""Tests of the experiment harness: dataset construction, one block relaxation
per regime and the per-iteration CSV columns."""

import csv

import numpy as np
import pytest

from ffinit import harness
from ffinit import (DataSource, DatasetError, LayerSpec, RelaxationConfig, TrainConfig,
                    load_idx_images, synth_autoencodable)
from ffinit.harness import DatasetSpec, ExperimentSpec, build_dataset, run_experiment
from helpers import write_idx

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


class TestBuildDataset:
    @pytest.fixture
    def idx_path(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx(path, list(range(6 * 4)), 2, 2)
        return path

    @pytest.mark.parametrize("n_items, expected", [(4, 4), (0, 6), (6, 6), (9, 6)])
    def test_idx_file_truncated_to_n_items(self, idx_path, n_items, expected):
        dspec = DatasetSpec(source="idx-file", path=str(idx_path), n_items=n_items)
        data = build_dataset(dspec, LayerSpec(sizes=(4, 3)), 0)
        assert np.array_equal(data.items, load_idx_images(idx_path).items[:expected])

    def test_idx_dimension_mismatch(self, idx_path):
        with pytest.raises(DatasetError, match="does not match visible size 5"):
            build_dataset(DatasetSpec(source="idx-file", path=str(idx_path)),
                          LayerSpec(sizes=(5, 3)), 0)

    def test_missing_idx_file(self, tmp_path):
        with pytest.raises(DatasetError, match="does not exist"):
            build_dataset(DatasetSpec(source="idx-file", path=str(tmp_path / "absent.idx")),
                          LayerSpec(sizes=(4, 3)), 0)

    def test_synthetic_autoencodable_items(self):
        sizes = LayerSpec(sizes=(6, 4, 3))
        data = build_dataset(DatasetSpec(source="synthetic-autoencodable", n_items=10), sizes, 7)
        assert np.array_equal(data.items, synth_autoencodable(10, sizes, 7)[0].items)
