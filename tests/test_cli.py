"""End-to-end tests of the ``ffinit`` command line on a 16-8-4 network."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffinit
from ffinit import CheckpointError, load_params
from ffinit.cli import main
from helpers import UNPICKLED, Tripwire, rewrite_checkpoint, write_idx

CONFIG = {
    "dataset": {"source": "synthetic-blobs", "n_items": 64, "n_clusters": 4, "spread": 0.05},
    "sizes": [16, 8, 4],
    "regimes": ["trained-ae", "random-tied"],
    "relaxation": {"max_iters": 50},
    "train": {"epochs": 2, "batch_size": 16},
    "n_inputs_evaluated": 8,
}
REGIME_FILES = {"trained-ae.csv", "trained-ae_log10.csv", "random-tied.csv",
                "random-tied_log10.csv", "summary.csv", "training_curve.csv"}


def write_config(tmp_path: Path, **changes) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG, **changes}))
    return str(path)


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def config(tmp_path):
    return write_config(tmp_path)


@pytest.fixture
def model(tmp_path, config):
    path = tmp_path / "model.npz"
    assert run("train", "--config", config, "--seed", 5, "--out", path) == 0
    return path


def read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestExperiment:
    def test_writes_every_csv(self, tmp_path, config):
        assert run("experiment", "--config", config, "--seed", 5, "--out", tmp_path / "a") == 0
        files = read_dir(tmp_path / "a")
        assert set(files) == REGIME_FILES
        rows = files["summary.csv"].decode().splitlines()
        assert rows[0] == "regime,metric,value"
        assert len(rows) == 1 + 9 * 2

    def test_same_seed_gives_identical_bytes(self, tmp_path, config):
        for name in ("a", "b"):
            assert run("experiment", "--config", config, "--seed", 5,
                       "--out", tmp_path / name) == 0
        assert read_dir(tmp_path / "a") == read_dir(tmp_path / "b")


class TestTrain:
    def test_curve_matches_the_experiment_training_curve(self, tmp_path, config):
        curve = tmp_path / "curve.csv"
        assert run("train", "--config", config, "--seed", 5, "--out", tmp_path / "m.npz",
                   "--curve", curve) == 0
        assert run("experiment", "--config", config, "--seed", 5, "--out", tmp_path / "e") == 0
        assert curve.read_bytes() == (tmp_path / "e" / "training_curve.csv").read_bytes()
        assert len(curve.read_text().splitlines()) == 1 + 2 * 2


class TestInfer:
    def test_writes_a_trace_without_energy_for_untied_weights(self, tmp_path, config, model):
        out = tmp_path / "trace.csv"
        assert run("infer", "--config", config, "--seed", 5, "--model", model,
                   "--index", 3, "--out", out) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "iter,step_magnitude"
        assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(len(rows) - 1)]

    def test_writes_energies_for_tied_weights(self, tmp_path):
        config = write_config(tmp_path, train={"epochs": 2, "batch_size": 16,
                                               "tie_decoder": True})
        model, out = tmp_path / "tied.npz", tmp_path / "trace.csv"
        assert run("train", "--config", config, "--out", model) == 0
        assert run("infer", "--config", config, "--model", model, "--out", out) == 0
        assert out.read_text().splitlines()[0] == "iter,step_magnitude,energy"


class TestIdxDataset:
    def test_experiment_on_an_idx_file(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx(path, list(np.random.default_rng(0).integers(0, 256, size=40 * 16)), 4, 4)
        config = write_config(tmp_path, dataset={"source": "idx-file", "path": str(path),
                                                 "n_items": 32})
        assert run("experiment", "--config", config, "--seed", 5, "--out", tmp_path / "o") == 0
        assert set(read_dir(tmp_path / "o")) == REGIME_FILES


def write_format_1(path):
    """Overwrite a checkpoint with the JSON document of format 1."""
    params = load_params(path)
    doc = {"format": "ffinit-model", "format_version": 1, "sizes": list(params.spec.sizes),
           "activation": params.activation.value, "branch_gains": list(params.branch_gains)}
    for group in ("ff_weights", "fb_weights", "ff_offsets", "fb_offsets"):
        doc[group] = [a.tolist() for a in getattr(params, group)]
    path.write_text(json.dumps(doc) + "\n")


# Ways to damage the 16-8-4 checkpoint, each with the error it must give.
DAMAGE = {
    "v1-json": (write_format_1,
                "JSON checkpoints are no longer read, re-save the model with `ffinit train`"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:path.stat().st_size // 2]),
                  "unreadable checkpoint archive"),
    "object-entry": (lambda path: rewrite_checkpoint(
        path, ff_weights_0=np.array([[Tripwire()] * 16] * 8, dtype=object)),
                     "Object arrays cannot be loaded"),
    "extra-entry": (lambda path: rewrite_checkpoint(path, ff_weights_2=np.zeros((4, 4))),
                    r"unexpected \['ff_weights_2'\]"),
    "wrong-shape": (lambda path: rewrite_checkpoint(path, ff_weights_0=np.zeros((16, 8))),
                    r"ff_weights\[0\] must have shape \(8, 16\)"),
    "one-gain": (lambda path: rewrite_checkpoint(path, meta={"branch_gains": [1.0]}),
                 "branch_gains must be a list of two numbers"),
}


def assert_usage_error(capsys, *argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestErrors:
    @pytest.mark.parametrize("index", [64, 5000, -1])
    def test_index_outside_the_dataset(self, capsys, config, model, index):
        assert_usage_error(capsys, "infer", "--config", config, "--model", model,
                           "--index", index)

    @pytest.mark.parametrize("changes", [
        {"n_inputs_evaluated": "x"},
        {"seed": "x"},
        {"sizes": "ab"},
        {"sizes": 5},
        {"n_inputs_evaluated": 2.5},
        {"relaxation": {"max_iters": 2.5}},
        {"relaxation": {"tol": float("nan")}},
        {"train": {"epochs": 2.5}},
        {"dataset": {"n_items": "x"}},
        {"dataset": {"d": 16}},
        {"train": {"tie_decoder": "false"}},
        {"dataset": {"path": 7}},
        {"relaxation": {"scheme": "nope"}},
        {"train": {"rule": 5}},
        {"dataset": [1]},
        {"sizes": [10**30, 2]},
        {"sizes": [16, 4611686018427387904]},
        {"sizes": [4, 3], "dataset": {"n_items": 2305843009213693952}},
        {"sizes": [784, 5], "dataset": {"n_clusters": 1152921504606846976}},
    ], ids=lambda changes: json.dumps(changes).replace(" ", ""))
    def test_invalid_config_value(self, tmp_path, capsys, changes):
        config = write_config(tmp_path, **changes)
        assert_usage_error(capsys, "experiment", "--config", config, "--out", tmp_path / "o")

    @pytest.mark.parametrize("text", [
        b'{"sizes": [16, 8, 4],',
        b'{"n_inputs_evaluated": ' + b"9" * 5000 + b"}",
        '{"dataset": {"source": "synthetic-blobs\u00e9"}}'.encode("latin-1"),
        b"[" * 100000,
    ], ids=["truncated", "5000-digit-integer", "latin-1", "nested-100000-deep"])
    def test_undecodable_config(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert_usage_error(capsys, "experiment", "--config", path, "--out", tmp_path / "o")

    def test_out_of_memory(self, tmp_path, capsys, config, monkeypatch):
        def run_experiment(spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr("ffinit.cli.run_experiment", run_experiment)
        assert_usage_error(capsys, "experiment", "--config", config, "--out", tmp_path / "o")

    def test_negative_seed(self, tmp_path, capsys, config):
        assert_usage_error(capsys, "experiment", "--config", config, "--seed", -1,
                           "--out", tmp_path / "o")

    def test_logistic_checkpoint_rejected(self, tmp_path, capsys, config, model):
        rewrite_checkpoint(model, meta={"activation": "logistic-sigmoid"})
        with pytest.raises(CheckpointError):
            load_params(model)
        assert_usage_error(capsys, "infer", "--config", config, "--model", model)

    @pytest.mark.parametrize("gains", [[0, 1], [float("nan"), 1], [10**400, 1]],
                             ids=["zero", "nan", "beyond-float"])
    def test_checkpoint_gains_outside_domain_rejected(self, tmp_path, capsys, config, model,
                                                      gains):
        rewrite_checkpoint(model, meta={"branch_gains": gains})
        with pytest.raises(CheckpointError):
            load_params(model)
        assert_usage_error(capsys, "infer", "--config", config, "--model", model)

    @pytest.mark.parametrize("damage, message", list(DAMAGE.values()), ids=list(DAMAGE))
    def test_malformed_checkpoint_rejected(self, capsys, config, model, damage, message):
        damage(model)
        with pytest.raises(CheckpointError, match=message):
            load_params(model)
        assert_usage_error(capsys, "infer", "--config", config, "--model", model)
        assert not UNPICKLED

    def test_exit_code_of_python_m_ffinit(self, config, model):
        env = {**os.environ, "PYTHONPATH": str(Path(ffinit.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "ffinit", "infer", "--config", config, "--model", str(model),
             "--index", "5000"], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
