"""Workloads of the ffinit benchmark: inputs, set-up, measured passes, checks.

Every workload runs the paper-scale 784-500-500 network on ``synth_blobs``
(2000 items, 8 clusters, spread 0.02) with the direct scheme, tol 1e-7 and
max_iters 100. All inputs derive from the workload seed. Calls into the
package go through module attributes (``M.inference.relax`` and so on),
so a :class:`tracing.Tracer` patched over those names sees them.

Import this module only after :func:`bootstrap.prepare`.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from bootstrap import ROOT, SRC, THREAD_VARS, nproc
from checks import (check_experiment, check_inference, check_round_trip,
                    reference_relax)
from tracing import Tracer

M = SimpleNamespace(**{name: importlib.import_module(f"ffinit.{name}") for name in
                       ("data", "network", "energy", "inference", "learning", "harness")})

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
LAYERS = ("network", "inference", "energy", "learning", "data", "harness")
TRAINED, RANDOM = "trained-ae", "random-tied"
REGIMES = (TRAINED, RANDOM)

CHECK_SAMPLE = 4     # inputs per regime compared with the reference sweep
PROBE_INPUTS = 50    # inputs per regime in the traced regime probe
SETUP_REPEATS = 9    # fresh-process set-ups per run; setup_s is their median
WARM_REQUESTS = 50   # infer-single requests run before timing

# Module-level names the traced run wraps. Names inside ffinit.harness and
# ffinit.inference are the ones the package's own callers look up.
TRACE_TARGETS = tuple(
    (getattr(M, module), name) for module, names in (
        ("harness", ("run_experiment", "synth_blobs", "train_stacked_ae", "init_random_tied",
                     "infer_from_feedforward", "mutual_prediction_residual", "emit_csv")),
        ("inference", ("infer_from_feedforward", "feedforward_init", "relax", "energy")),
        ("learning", ("train_stacked_ae",)),
        ("network", ("mutual_prediction_residual",)),
        ("data", ("synth_blobs", "save_params", "load_params")),
    ) for name in names)


@dataclass(frozen=True)
class Shape:
    """Sizes of every input; ``PAPER`` is the benchmark, ``TINY`` its smoke test."""

    name: str
    sizes: tuple[int, ...]
    n_items: int
    n_clusters: int
    spread: float
    ep_epochs: int       # ae-gradient epochs inside run_experiment
    ep_inputs: int       # inputs evaluated per regime by run_experiment
    tc_epochs: int       # local-branch epochs per train-checkpoint pass


PAPER = Shape("paper", (784, 500, 500), 2000, 8, 0.02, ep_epochs=3, ep_inputs=200,
              tc_epochs=7)
TINY = Shape("tiny", (16, 8, 4), 64, 4, 0.05, ep_epochs=1, ep_inputs=16, tc_epochs=2)
SHAPES = {s.name: s for s in (PAPER, TINY)}


def relax_cfg(seed: int):
    return M.inference.RelaxationConfig(scheme=M.inference.Scheme.DIRECT_ALTERNATING,
                                        max_iters=100, tol=1e-7, seed=seed)


def ae_train_cfg(shape: Shape, seed: int):
    return M.learning.TrainConfig(epochs=shape.ep_epochs, rule=M.learning.TrainRule.AE_GRADIENT,
                                  seed=seed)


def dataset(shape: Shape, seed: int):
    return M.data.synth_blobs(shape.n_items, shape.sizes[0], shape.n_clusters, shape.spread,
                              seed)


def norm_matched_random(shape: Shape, seed: int, trained):
    """The random-tied regime run_experiment builds: tied random weights with
    each layer rescaled to the Frobenius norm of the trained weights."""
    base = M.learning.init_random_tied(trained.spec, trained.activation, 1.0, seed)
    ws = [w * (np.linalg.norm(t) / np.linalg.norm(w))
          for w, t in zip(base.ff_weights, trained.ff_weights)]
    return M.network.NetworkParams(
        spec=base.spec, ff_weights=tuple(ws), fb_weights=tuple(w.T.copy() for w in ws),
        ff_offsets=base.ff_offsets, fb_offsets=base.fb_offsets,
        branch_gains=base.branch_gains, activation=base.activation)


def _no_progress(pair, epoch, err):
    pass


def write_fixture(shape: Shape, seed: int, path: Path) -> None:
    """Train the infer-single checkpoint (untied ae-gradient) and save it."""
    trained = M.learning.train_stacked_ae(dataset(shape, seed), M.network.LayerSpec(shape.sizes),
                                          ae_train_cfg(shape, seed), progress=_no_progress)
    M.data.save_params(trained, path)


class Workload:
    name = ""
    relaxed_per_pass = 0

    def __init__(self, shape: Shape, seed: int, reference=reference_relax):
        self.shape, self.seed, self.reference = shape, seed, reference
        self.sizes = M.network.LayerSpec(shape.sizes)
        self.cfg = relax_cfg(seed)
        self.fixture: Path | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        """Count one operation; it failed if any output check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def attempt_pass(self) -> float | None:
        try:
            return self.one_pass()
        except Exception as exc:  # an operation that raises counts as failed
            self.record([f"{type(exc).__name__}: {exc}"], f"{self.name} pass")
            return None

    def scratch(self, what: str) -> Path:
        """A checkpoint file of this run, deleted when the run ends."""
        return WORK / f"{self.name}-{self.seed}-{what}.json"

    def make_fixture(self) -> None:
        pass

    def prepare(self) -> None:
        """The set-up that setup_child.py times: the dataset and, for
        infer-single, the loaded checkpoint."""
        self.data = dataset(self.shape, self.seed)
        self.params = M.data.load_params(self.fixture) if self.fixture else None

    def warm_up(self) -> None:
        raise NotImplementedError

    def one_pass(self) -> float:
        raise NotImplementedError

    def finish(self) -> None:
        """Output checks made once per run, outside the measured passes."""

    def regime_params(self):
        """Parameters of the two experiment regimes, for the traced probe."""
        raise NotImplementedError

    def details(self) -> dict:
        return {}

    def _check_sample(self, params, indices, energy_model, what: str) -> None:
        for i in indices:
            x = self.data.items[i]
            state, trace = M.inference.infer_from_feedforward(params, x, self.cfg,
                                                              energy_model=energy_model)
            ref = self.reference(params, x, self.cfg)
            self.record(check_inference(params, x, state, trace, ref, energy_model is not None),
                        f"{what} input {i}")


class ExperimentPaper(Workload):
    """One full run_experiment: ae-gradient training, evaluation of both regimes, CSVs."""

    name = "experiment-paper"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.relaxed_per_pass = self.shape.ep_inputs * len(REGIMES)
        self.out_dir = WORK / "experiment"
        self.spec = M.harness.ExperimentSpec(
            dataset=M.harness.DatasetSpec(source=M.data.DataSource.SYNTHETIC_BLOBS,
                                          n_items=self.shape.n_items,
                                          n_clusters=self.shape.n_clusters,
                                          spread=self.shape.spread),
            sizes=self.sizes, regimes=REGIMES, relaxation=self.cfg,
            train=ae_train_cfg(self.shape, self.seed),
            n_inputs_evaluated=self.shape.ep_inputs, output_dir=str(self.out_dir),
            seed=self.seed)

    def warm_up(self) -> None:
        # The training run_experiment repeats: warms BLAS up and yields the
        # parameters of both regimes for the reference checks.
        self.trained = M.learning.train_stacked_ae(self.data, self.sizes, self.spec.train,
                                                   progress=_no_progress)
        self.random = norm_matched_random(self.shape, self.seed, self.trained)
        rng = np.random.default_rng(self.seed)
        self.sample = sorted(int(i) for i in rng.choice(self.shape.ep_inputs,
                                                        CHECK_SAMPLE, replace=False))
        self.expected = {
            regime: {i: self.reference(p, self.data.items[i], self.cfg) for i in self.sample}
            for regime, p in ((TRAINED, self.trained), (RANDOM, self.random))}

    def one_pass(self) -> float:
        t0 = time.perf_counter()
        report = M.harness.run_experiment(self.spec)
        elapsed = time.perf_counter() - t0
        self.record(check_experiment(report, self.out_dir, self.expected, self.shape.ep_inputs,
                                     self.shape.ep_epochs * self.sizes.n_hidden_layers,
                                     {TRAINED: False, RANDOM: True}), "experiment pass")
        return elapsed

    def finish(self) -> None:
        self._check_sample(self.trained, self.sample, None, TRAINED)
        self._check_sample(self.random, self.sample, M.energy.EnergyModel(self.random), RANDOM)

    def regime_params(self):
        return self.trained, self.random


class InferSingle(Workload):
    """Closed loop, one caller: infer_from_feedforward on one item, then the residual."""

    name = "infer-single"
    relaxed_per_pass = 1

    def make_fixture(self) -> None:
        self.fixture = self.scratch("fixture")
        child([HERE / "make_fixture.py", self.shape.name, self.seed, self.fixture], timeout=120)

    def warm_up(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.order = rng.permutation(self.shape.n_items)
        self.sample = [int(i) for i in self.order[:CHECK_SAMPLE]]
        self.next = 0
        self.first: dict[int, tuple] = {}
        self.latencies: list[float] = []
        for x in self.data.items[self.order[:WARM_REQUESTS]]:
            state, _ = M.inference.infer_from_feedforward(self.params, x, self.cfg)
            M.network.mutual_prediction_residual(self.params, state)

    def one_pass(self) -> float:
        i = int(self.order[self.next % len(self.order)])
        self.next += 1
        x = self.data.items[i]
        t0 = time.perf_counter()
        state, trace = M.inference.infer_from_feedforward(self.params, x, self.cfg)
        residual = M.network.mutual_prediction_residual(self.params, state)
        elapsed = time.perf_counter() - t0
        problems = []
        if not np.array_equal(state.visible, x):
            problems.append("visible vector was not kept clamped")
        if not np.all(np.isfinite(residual)):
            problems.append("non-finite residual")
        outcome = (trace.iters_run, trace.converged, residual.tobytes())
        if self.first.setdefault(i, outcome) != outcome:
            problems.append("a repeated request gave a different result")
        self.record(problems, f"request for item {i}")
        self.latencies.append(elapsed)
        return elapsed

    def finish(self) -> None:
        path = self.scratch("round-trip")
        M.data.save_params(self.params, path)
        self.record(check_round_trip(self.params, M.data.load_params(path)),
                    "checkpoint round trip")
        self._check_sample(self.params, self.sample, None, "request")

    def regime_params(self):
        return self.params, norm_matched_random(self.shape, self.seed, self.params)

    def details(self) -> dict:
        return latency_summary(self.latencies)


class TrainCheckpoint(Workload):
    """train_stacked_ae (local-branch, progress callback), save_params, load_params."""

    name = "train-checkpoint"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.train_cfg = M.learning.TrainConfig(epochs=self.shape.tc_epochs,
                                                rule=M.learning.TrainRule.LOCAL_BRANCH,
                                                seed=self.seed)
        self.path = self.scratch("checkpoint")
        self.phases: dict[str, list[float]] = {"train": [], "save": [], "load": []}

    def warm_up(self) -> None:
        # The first epoch in a process pays a one-off start-up cost.
        M.learning.train_stacked_ae(self.data, self.sizes, replace(self.train_cfg, epochs=1))

    def one_pass(self) -> float:
        curve = []
        t0 = time.perf_counter()
        params = M.learning.train_stacked_ae(
            self.data, self.sizes, self.train_cfg,
            progress=lambda pair, epoch, err: curve.append(err))
        t1 = time.perf_counter()
        M.data.save_params(params, self.path)
        t2 = time.perf_counter()
        loaded = M.data.load_params(self.path)
        t3 = time.perf_counter()
        problems = check_round_trip(params, loaded)
        if (len(curve) != self.train_cfg.epochs * self.sizes.n_hidden_layers
                or not np.all(np.isfinite(curve))):
            problems.append("progress callback missed epochs or reported non-finite errors")
        self.record(problems, "train-checkpoint pass")
        for phase, dt in (("train", t1 - t0), ("save", t2 - t1), ("load", t3 - t2)):
            self.phases[phase].append(dt)
        return t3 - t0

    def regime_params(self):
        trained = M.learning.train_stacked_ae(self.data, self.sizes,
                                              ae_train_cfg(self.shape, self.seed))
        return trained, norm_matched_random(self.shape, self.seed, trained)

    def details(self) -> dict:
        samples = self.shape.n_items * self.train_cfg.epochs * self.sizes.n_hidden_layers
        return {"train_samples_per_s": summary([samples / t for t in self.phases["train"]]),
                "checkpoint_save_s": summary(self.phases["save"]),
                "checkpoint_load_s": summary(self.phases["load"])}


WORKLOADS = {w.name: w for w in (ExperimentPaper, InferSingle, TrainCheckpoint)}


# -- measurement ----------------------------------------------------------

def summary(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def latency_summary(latencies: list[float]) -> dict:
    """Request rate and latency percentiles in ms. A percentile is given
    only when at least ten samples lie beyond it."""
    n = len(latencies)
    out = {"requests_per_s": n / sum(latencies), "requests": n}
    for p in (50, 90, 95, 99):
        if n * (100 - p) >= 1000:
            out[f"latency_p{p}_ms"] = 1e3 * float(np.percentile(latencies, p))
    return out


def measure(workload: Workload, seconds: float, tracer: Tracer | None = None,
            setups: list[float] | None = None) -> list[float]:
    """Run passes until ``seconds`` have gone by; return each pass's duration.

    Given ``setups``, it also times SETUP_REPEATS fresh-process set-ups
    between passes, one due at each even step of the run, and appends
    their times there. So set-up is sampled across the whole run.
    """
    durations = []
    attempts = 0
    start = time.perf_counter()
    end = start + seconds
    while attempts == 0 or time.perf_counter() < end:
        if setups is not None:
            due = 1 + int(SETUP_REPEATS * (time.perf_counter() - start) / seconds)
            while len(setups) < min(due, SETUP_REPEATS):
                setups.append(time_setup(workload))
        attempts += 1
        with tracer.span("bench.pass") if tracer else nullcontext():
            elapsed = workload.attempt_pass()
        if elapsed is not None:
            durations.append(elapsed)
    while setups is not None and len(setups) < SETUP_REPEATS:
        setups.append(time_setup(workload))
    return durations


def per_call(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the mean time of ``inner`` back-to-back calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def child(args: list, timeout: float, env: dict | None = None) -> str:
    """Run a Python script of the benchmark in a fresh process; return its output."""
    out = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                         timeout=timeout, env=env)
    if out.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited {out.returncode}: {out.stderr}")
    return out.stdout


def time_setup(workload: Workload) -> float:
    """Start-to-ready time of a fresh process that imports ffinit and sets up."""
    shape = workload.shape
    t0 = time.monotonic()
    out = child([HERE / "setup_child.py", shape.n_items, shape.sizes[0], shape.n_clusters,
                 repr(shape.spread), workload.seed, workload.fixture or "", repr(t0)],
                timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(out.splitlines()[-1])["ready_s"]


def direct_cases(workload: Workload, trained, random) -> dict:
    """Single calls into each layer at the workload's shape."""
    shape = workload.shape
    x = workload.data.items[0]
    state = M.network.feedforward_init(trained, x)
    tied_state = M.network.feedforward_init(random, x)
    model = M.energy.EnergyModel(random)
    v = np.random.default_rng(workload.seed).uniform(-0.5, 1.5, shape.sizes[1])
    hard = M.network.Activation.HARD_SIGMOID
    path = workload.scratch("direct")
    out = {
        "network.feedforward_init_ms": 1e3 * per_call(
            lambda: M.network.feedforward_init(trained, x), 21, 20),
        "network.apply_activation_us": 1e6 * per_call(
            lambda: M.network.apply_activation(hard, v), 21, 200),
        "network.residual_ms": 1e3 * per_call(
            lambda: M.network.mutual_prediction_residual(trained, state), 21, 20),
        "energy.energy_ms": 1e3 * per_call(lambda: M.energy.energy(model, tied_state), 21, 20),
        "data.synth_blobs_s": per_call(lambda: dataset(shape, workload.seed), 5),
        "data.save_params_s": per_call(lambda: M.data.save_params(trained, path), 3),
        "data.load_params_s": per_call(lambda: M.data.load_params(path), 3),
        "data.checkpoint_mb": path.stat().st_size / 1e6,
    }
    for k in range(1, trained.n_layers + 1):
        out[f"inference.direct_update_layer_ms.l{k}"] = 1e3 * per_call(
            lambda: M.inference.direct_update_layer(trained, state, k), 21, 20)
        out[f"learning.reconstruction_error_s.pair{k}"] = per_call(
            lambda: M.learning.reconstruction_error(trained, workload.data, k - 1), 5)
    return out


def regime_probe(workload: Workload, tracer: Tracer, trained, random) -> dict:
    """Relax the first inputs under both regimes, traced, as run_experiment does."""
    items = workload.data.items[:PROBE_INPUTS]
    out = {}
    with tracer.patched(TRACE_TARGETS):
        for regime, params in ((TRAINED, trained), (RANDOM, random)):
            model = M.energy.EnergyModel(params) if regime == RANDOM else None
            root = f"bench.probe.{regime}"
            with tracer.span(root):
                traces = [M.inference.infer_from_feedforward(params, x, workload.cfg,
                                                             energy_model=model)[1]
                          for x in items]
            spans = tracer.under(root)
            relax = sum(s.duration for s in spans if s.name == "inference.relax")
            energy = sum(s.duration for s in spans if s.name == "energy.energy")
            sweeps = sum(t.iters_run for t in traces)
            out[f"inference.sweep_ms.{regime}"] = 1e3 * (relax - energy) / sweeps
            out[f"inference.sweeps_per_input.{regime}"] = sweeps / len(traces)
            out[f"inference.converged_frac.{regime}"] = float(np.mean([t.converged
                                                                       for t in traces]))
            out[f"inference.initial_step_mean.{regime}"] = float(np.mean(
                [t.step_magnitudes[0] for t in traces]))
    return out


def traced_pass_metrics(workload: Workload, tracer: Tracer, busy: float) -> dict:
    """Per-layer figures of the workload's own traced passes."""
    passes = tracer.under("bench.pass")
    n_passes = sum(1 for s in passes if s.name == "bench.pass")
    out = {f"{layer}.self_frac": t / busy
           for layer, t in tracer.self_times(passes).items() if layer in LAYERS}
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_frac", 0.0)

    relax = [s for s in passes if s.name == "inference.relax"]
    energy = [s for s in passes if s.name == "energy.energy"]
    relax_time = sum(s.duration for s in relax)
    out["inference.items_per_call"] = (workload.relaxed_per_pass * n_passes / len(relax)
                                       if relax else 0.0)
    out["energy.calls"] = len(energy) / n_passes
    out["energy.share_of_relax"] = (sum(s.duration for s in energy) / relax_time
                                    if relax_time else 0.0)

    epochs: dict[int, list[float]] = {}
    final: dict[int, float] = {}
    for s in passes:
        if s.name != "learning.train_stacked_ae":
            continue
        last = s.start
        for idx, pair, _, err, t in tracer.progress:
            if idx == s.index:
                epochs.setdefault(pair, []).append(t - last)
                final[pair] = err
                last = t
    for k in range(1, workload.sizes.n_hidden_layers + 1):
        out[f"learning.epoch_s.pair{k}"] = statistics.median(epochs[k]) if k in epochs else 0.0
        out[f"learning.final_recon_error.pair{k}"] = final.get(k, 0.0)

    children: dict[int, list] = {}
    for s in passes:
        children.setdefault(s.parent, []).append(s)
    phase = {"train": 0.0, TRAINED: 0.0, RANDOM: 0.0, "emit_csv": 0.0}
    for run in (s for s in passes if s.name == "harness.run_experiment"):
        kids = children.get(run.index, [])
        trained_ids = {c.result for c in kids if c.name == "learning.train_stacked_ae"}
        for c in kids:
            if c.name == "learning.train_stacked_ae":
                phase["train"] += c.duration
            elif c.name in ("inference.infer_from_feedforward",
                            "network.mutual_prediction_residual"):
                phase[TRAINED if c.arg0 in trained_ids else RANDOM] += c.duration
            elif c.name == "harness.emit_csv":
                phase["emit_csv"] += c.duration
    out["harness.train_frac"] = phase["train"] / busy
    for regime in REGIMES:
        out[f"harness.evaluate_frac.{regime}"] = phase[regime] / busy
    out["harness.emit_csv_frac"] = phase["emit_csv"] / busy
    return out


# -- provenance -----------------------------------------------------------

def git_commit() -> str | None:
    """The commit checked out at the root, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: Workload, seconds: float, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "threads": {var: os.environ.get(var) for var in THREAD_VARS}},
        "nproc": nproc(),
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "shape": asdict(workload.shape),
        "check_sample": CHECK_SAMPLE, "probe_inputs": PROBE_INPUTS,
        "setup_repeats": SETUP_REPEATS, "warm_requests": WARM_REQUESTS,
        "relaxation": {"scheme": workload.cfg.scheme.value, "tol": workload.cfg.tol,
                       "max_iters": workload.cfg.max_iters},
    }


# -- one run --------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, shape: Shape = PAPER,
        reference=reference_relax) -> dict:
    """Run one workload; return ``{"result": ..., "detail": ...}``.

    ``result`` is the line the benchmark prints last: end-to-end metrics
    without tracing, per-layer metrics with it.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](shape, seed, reference)
    tracer = Tracer() if trace else None
    detail: dict = {"provenance": provenance(workload, seconds, trace)}

    try:
        workload.make_fixture()
        t0 = time.perf_counter()
        workload.prepare()
        detail["in_process_setup_s"] = time.perf_counter() - t0
        workload.warm_up()

        if trace:
            untraced = measure(workload, seconds / 2)
            with tracer.patched(TRACE_TARGETS):
                traced = measure(workload, seconds / 2, tracer)
            if not (untraced and traced):
                raise RuntimeError(f"every pass failed: {workload.problems}")
            metrics = traced_pass_metrics(workload, tracer, sum(traced))
            metrics["trace_overhead_frac"] = (statistics.median(traced)
                                              / statistics.median(untraced) - 1)
            trained, random = workload.regime_params()
            metrics.update(regime_probe(workload, tracer, trained, random))
            metrics.update(direct_cases(workload, trained, random))
            detail["wall_s"] = {"untraced": summary(untraced), "traced": summary(traced)}
            tracer.write(WORK / f"trace-{name}-{seed}.json")
            units = PER_LAYER_UNITS
        else:
            setups: list[float] = []
            durations = measure(workload, seconds, setups=setups)
            detail["setup_s"] = summary(setups)
            if not durations:
                raise RuntimeError(f"every pass failed: {workload.problems}")
            metrics = {"setup_s": statistics.median(setups),
                       "wall_s": statistics.median(durations),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
            detail["wall_s"] = summary(durations)
            units = END_TO_END_UNITS
        detail.update(workload.details())
        workload.finish()
    finally:
        for path in WORK.glob(f"{name}-{seed}-*.json"):
            path.unlink()
    detail["attempted"], detail["failed"] = workload.attempted, workload.failed
    detail["error_frac"] = workload.failed / workload.attempted
    detail["problems"] = workload.problems
    result = {"correct": workload.failed == 0, "attempted": workload.attempted,
              "failed": workload.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    return {"result": result, "detail": detail}


def _metric_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


END_TO_END_UNITS = _metric_units("end_to_end")
PER_LAYER_UNITS = _metric_units("per_layer")
