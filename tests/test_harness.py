"""Tests of the experiment harness: one block relaxation per regime and the
per-iteration CSV columns."""

import csv

import numpy as np

from ffinit import harness
from ffinit import DataSource, LayerSpec, RelaxationConfig, TrainConfig
from ffinit.harness import DatasetSpec, ExperimentSpec, run_experiment

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
