"""End-to-end tests of the ``ffinit`` command line on a 16-8-4 network."""

import json
import os
import re
import shlex
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


def run_python_m(*argv) -> subprocess.CompletedProcess:
    """``python -m ffinit`` in a process of its own, whose stderr holds all it prints."""
    env = {**os.environ, "PYTHONPATH": str(Path(ffinit.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ffinit", *map(str, argv)],
                          capture_output=True, text=True, timeout=60, env=env)


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
                 r"branch_gains must be \[1.0, 1.0\]"),
    "sizes-not-a-list-of-sizes": (lambda path: rewrite_checkpoint(path, meta={"sizes": 16}),
                                  "malformed checkpoint metadata"),
    "meta-nested-100000-deep": (lambda path: rewrite_checkpoint(path, meta="[" * 100000),
                                "no valid meta entry"),
    "complex-entry": (lambda path: rewrite_checkpoint(path, ff_weights_0=np.full((8, 16), 1j)),
                      "entry ff_weights_0 has dtype complex128"),
    "float32-entry": (lambda path: rewrite_checkpoint(path, fb_offsets_1=np.zeros(8, np.float32)),
                      "entry fb_offsets_1 has dtype float32"),
    "string-entry": (lambda path: rewrite_checkpoint(path, ff_offsets_0=np.full(8, "0.5")),
                     "entry ff_offsets_0 has dtype <U3"),
}


def case(changes, *named):
    """An invalid config change, and the words its one error line must hold."""
    return pytest.param(changes, named, id=json.dumps(changes).replace(" ", ""))


def assert_usage_error(capsys, *argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestErrors:
    @pytest.mark.parametrize("index", [64, 5000, -1])
    def test_index_outside_the_dataset(self, capsys, config, model, index):
        assert_usage_error(capsys, "infer", "--config", config, "--model", model,
                           "--index", index)

    @pytest.mark.parametrize("changes, named", [
        case({"n_inputs_evaluated": "x"}),
        case({"seed": "x"}),
        case({"sizes": "ab"}),
        case({"sizes": 5}),
        case({"n_inputs_evaluated": 2.5}),
        case({"relaxation": {"max_iters": 2.5}}),
        case({"relaxation": {"tol": float("nan")}}),
        case({"train": {"epochs": 2.5}}),
        case({"dataset": {"n_items": "x"}}),
        case({"dataset": {"d": 16}}),
        case({"train": {"tie_decoder": "false"}}),
        case({"dataset": {"path": 7}}),
        case({"dataset": {"source": "idx-file"}}),
        case({"dataset": {"path": "x.idx"}}, "path", "synthetic-blobs"),
        case({"dataset": {"source": "synthetic-autoencodable", "path": "x.idx"}},
             "path", "synthetic-autoencodable"),
        case({"regimes": []}),
        case({"regimes": ["nope"]}, "unknown regime", "nope"),
        case({"regimes": ["random-tied", "random-tied"]}, "repeat"),
        # Every experiment is the comparison: trained-ae with random-tied as
        # its optional control, on at least one input.
        case({"regimes": ["random-tied"]}, "trained-ae", "random-tied"),
        case({"n_inputs_evaluated": 0}, "n_inputs_evaluated"),
        # sizes and regimes are JSON arrays, not any value tuple() accepts
        case({"sizes": [4, 3], "regimes": {"random-tied": 1}}, "regimes", "JSON array"),
        case({"regimes": "random-tied"}, "regimes", "JSON array"),
        case({"sizes": "784"}, "sizes", "JSON array"),
        case({"output_dir": 7}),
        case({"output_dir": ""}, "output_dir"),
        case({"n_inputs_evaluated": 65}),
        case({"relaxation": {"scheme": "nope"}}),
        case({"train": {"rule": 5}}),
        case({"dataset": [1]}),
        case({"sizes": [10**30, 2]}),
        case({"sizes": [16, 4611686018427387904]}),
        case({"sizes": [4, 3], "dataset": {"n_items": 2305843009213693952}}),
        case({"sizes": [784, 5], "dataset": {"n_clusters": 1152921504606846976}}),
        # A value no run reads: refused under the source or scheme that does
        # not read it, with the key and that source or scheme named.
        case({"dataset": {"source": "idx-file", "path": "x.idx", "n_clusters": 4}},
             "n_clusters", "idx-file"),
        case({"dataset": {"source": "idx-file", "path": "x.idx", "spread": 0.05}},
             "spread", "idx-file"),
        case({"dataset": {"source": "synthetic-autoencodable", "n_clusters": 4}},
             "n_clusters", "synthetic-autoencodable"),
        case({"dataset": {"source": "synthetic-autoencodable", "spread": 0.05}},
             "spread", "synthetic-autoencodable"),
        case({"relaxation": {"scheme": "direct-alternating", "tau": 2}},
             "tau", "direct-alternating"),
        # n_items is the most items for every source, and at least 1
        case({"dataset": {"n_items": 0}}, "n_items"),
        case({"dataset": {"source": "synthetic-autoencodable", "n_items": 0}}, "n_items"),
        case({"dataset": {"source": "idx-file", "path": "x.idx", "n_items": 0}}, "n_items"),
        case({"dataset": {"source": "idx-file", "path": ""}}, "path"),
        case({"dataset": {"source": "idx-file", "path": "."}},
             "dataset file . does not exist or is a directory"),
    ])
    def test_invalid_config_value(self, tmp_path, capsys, changes, named):
        config = write_config(tmp_path, **changes)
        assert run("experiment", "--config", config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in named), err

    @pytest.mark.parametrize("key", ["sizes", "regimes"])
    def test_missing_required_key(self, tmp_path, capsys, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != key}))
        assert run("experiment", "--config", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: missing config keys: ['{key}']\n"

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

    def test_empty_out_dir(self, capsys, config):
        assert run("experiment", "--config", config, "--out", "") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "output_dir" in err

    def test_missing_checkpoint_is_an_io_error(self, tmp_path, capsys, config):
        assert run("infer", "--config", config, "--model", tmp_path / "absent.npz") == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1 and "absent.npz" in err

    def test_negative_seed(self, tmp_path, capsys, config):
        assert_usage_error(capsys, "experiment", "--config", config, "--seed", -1,
                           "--out", tmp_path / "o")

    def test_config_sizes_differing_from_the_checkpoint(self, tmp_path, capsys, model):
        (tmp_path / "other").mkdir()
        config = write_config(tmp_path / "other", sizes=[16, 8, 6])
        assert run("infer", "--config", config, "--model", model) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "[16, 8, 6]" in err and "[16, 8, 4]" in err

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
        with pytest.raises(CheckpointError, match=r"branch_gains must be \[1.0, 1.0\]"):
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
        proc = run_python_m("infer", "--config", config, "--model", model, "--index", 5000)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    def test_diverging_training_prints_only_its_error_line(self, tmp_path):
        # The delta rule at rate 10 overflows; no numpy warning may precede the error.
        config = write_config(tmp_path, dataset={"source": "synthetic-blobs", "n_items": 200},
                              train={"rule": "local-branch", "learning_rate": 10,
                                     "epochs": 100})
        proc = run_python_m("train", "--config", config, "--out", tmp_path / "m.npz")
        assert proc.returncode == 2
        assert re.fullmatch(r"error: non-finite [^\n]*\n", proc.stderr), proc.stderr


class TestReadmeExample:
    README = Path(__file__).parents[1] / "README.md"

    def test_the_readme_commands_run(self, tmp_path, monkeypatch):
        text = self.README.read_text()
        config = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        commands = [shlex.split(line)[3:] for line in text.splitlines()
                    if line.startswith("python -m ffinit ")]
        assert [c[0] for c in commands] == ["experiment", "train", "infer"]
        (tmp_path / "config.json").write_text(config)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, argv
        assert set(read_dir(tmp_path / "out")) == REGIME_FILES
        load_params(tmp_path / "model.npz")
        assert (tmp_path / "curve.csv").read_text().startswith("epoch,pair_index,")
        assert (tmp_path / "trace.csv").read_text().startswith("iter,step_magnitude")
