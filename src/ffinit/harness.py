"""Experiment orchestration: weight regimes, convergence traces, CSV output.

The core experiment relaxes a set of clamped inputs from feedforward
initialization under two weight regimes (random transpose-tied vs. a
trained auto-encoder stack) and records how the update-step magnitudes
decay. Outputs are plot-ready CSV files plus a summary table; identical
spec and seed produce byte-identical files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DataSource,
    DatasetHandle,
    _load_idx,
    synth_autoencodable,
    synth_blobs,
)
from .energy import EnergyModel
from .exceptions import (
    ConfigurationError,
    DatasetError,
    FfinitError,
    check_count,
    check_member,
    check_real,
)
from .inference import ConvergenceTrace, RelaxationConfig, infer_from_feedforward
from .learning import (
    TrainConfig,
    init_random_tied,   # unused here; the benchmark's traced run wraps harness.init_random_tied
    norm_matched_random,
    train_stacked_ae,
)
from .network import LayerSpec, NetworkParams, mutual_prediction_residual

REGIME_RANDOM_TIED = "random-tied"
REGIME_TRAINED_AE = "trained-ae"
KNOWN_REGIMES = (REGIME_RANDOM_TIED, REGIME_TRAINED_AE)


# The one source that reads each of these fields, and the value the field
# takes there when omitted (None: that source needs it). Every other source
# refuses the field.
_READ_BY = {
    "path": (DataSource.IDX_FILE, None),
    "n_clusters": (DataSource.SYNTHETIC_BLOBS, 8),
    "spread": (DataSource.SYNTHETIC_BLOBS, 0.02),
}


@dataclass(frozen=True)
class DatasetSpec:
    """Where the experiment's data comes from.

    ``source`` is a :class:`DataSource` or its value string. ``path``, a
    non-empty string naming the IDX file, is read by ``idx-file`` alone,
    which needs it; ``n_clusters`` (default 8) and ``spread`` (default
    0.02) are read by ``synthetic-blobs`` alone. A source refuses a field
    it does not read, and an omitted field, like one given as None, takes
    its source's default. ``n_items``, at least 1, is the most items the
    dataset holds: it sizes a synthetic dataset (default 2000) and
    truncates a loaded IDX file (default: the whole file). The item
    dimension is always the network's visible size.
    """

    source: DataSource = DataSource.SYNTHETIC_BLOBS
    path: str | None = None
    n_items: int | None = None
    n_clusters: int | None = None
    spread: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "source",
                           check_member("dataset source", self.source, DataSource))
        for key, (reader, default) in _READ_BY.items():
            if reader is not self.source:
                if getattr(self, key) is not None:
                    raise ConfigurationError(f"dataset {key} is read by source "
                                             f"{reader.value} only, not {self.source.value}")
            elif getattr(self, key) is None:
                if default is None:
                    raise ConfigurationError(f"dataset source {reader.value} needs a {key}")
                object.__setattr__(self, key, default)
        if self.n_items is not None:
            check_count("dataset n_items", self.n_items, 1, sys.maxsize)
        elif self.source is not DataSource.IDX_FILE:
            object.__setattr__(self, "n_items", 2000)
        if self.path is not None and not (isinstance(self.path, str) and self.path):
            raise ConfigurationError(f"dataset path must be a non-empty string, got {self.path!r}")
        if self.n_clusters is not None:
            check_count("dataset n_clusters", self.n_clusters, 1, sys.maxsize)
        if self.spread is not None:
            check_real("dataset spread", self.spread, 0.0)


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """Full description of one convergence-comparison experiment.

    The field names are the keys of a JSON config, and the defaults here
    are the config's defaults; ``sizes`` and ``regimes`` are required.
    """

    sizes: LayerSpec
    regimes: tuple[str, ...]
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    n_inputs_evaluated: int = 100
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        for regime in self.regimes:
            if regime not in KNOWN_REGIMES:
                raise ConfigurationError(
                    f"unknown regime {regime!r}; known regimes: {KNOWN_REGIMES}")
        if len(set(self.regimes)) != len(self.regimes):
            raise ConfigurationError("regimes must not repeat")
        if REGIME_TRAINED_AE not in self.regimes:
            raise ConfigurationError("regimes must include trained-ae; random-tied is its control")
        check_count("n_inputs_evaluated", self.n_inputs_evaluated, 1)
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigurationError(f"output_dir must name a directory, got {self.output_dir!r}")
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class RegimeResult:
    """Per-regime convergence measurements over the evaluated inputs."""

    regime: str
    initial_steps: np.ndarray
    iters_to_tol: np.ndarray
    converged: np.ndarray
    final_residuals: np.ndarray
    step_stats: np.ndarray
    n_active: np.ndarray
    energy_means: np.ndarray | None


@dataclass(frozen=True)
class ExperimentReport:
    regimes: tuple[RegimeResult, ...]
    training_curve: tuple[tuple[int, int, float], ...]


def build_dataset(dspec: DatasetSpec, sizes: LayerSpec, seed: int) -> DatasetHandle:
    """Load or generate the dataset a spec names, sized for ``sizes``: an IDX
    file must exist and hold at least one image of the visible size, and a
    generated dataset must fit one float64 array (DatasetError otherwise)."""
    if dspec.source is DataSource.IDX_FILE:
        try:
            data = _load_idx(dspec.path, dspec.n_items)
        except (FileNotFoundError, IsADirectoryError) as exc:
            raise DatasetError(
                f"dataset file {dspec.path} does not exist or is a directory; point "
                "dataset.path at an IDX image file") from exc
        data._items_for(sizes)   # DatasetError unless it holds an image of the visible size
        return data
    if dspec.source is DataSource.SYNTHETIC_BLOBS:
        return synth_blobs(dspec.n_items, sizes.visible_size, dspec.n_clusters,
                           dspec.spread, seed)
    data, _ = synth_autoencodable(dspec.n_items, sizes, seed)
    return data


def relax_input(params: NetworkParams, visible: np.ndarray,
                cfg: RelaxationConfig) -> tuple[ConvergenceTrace, np.ndarray]:
    """Relax one clamped input, or a ``(B, n_0)`` block, from its feedforward state.

    Returns the trace, which records energies exactly when ``params`` are
    tied (untied ones define no energy), and the worst branch prediction
    error of the relaxed state over its layers: one value for a vector,
    one per row for a block.
    """
    model = EnergyModel(params) if params.is_tied else None
    state, trace = infer_from_feedforward(params, visible, cfg, energy_model=model)
    return trace, mutual_prediction_residual(params, state).max(axis=-1)


def _evaluate_regime(regime: str, params: NetworkParams, items: np.ndarray,
                     cfg: RelaxationConfig) -> RegimeResult:
    trace, resid = relax_input(params, items, cfg)
    steps = trace.step_magnitudes   # (inputs, sweeps), NaN after an input's last sweep
    active = ~np.isnan(steps).T     # (sweeps, inputs)
    # Each sweep's column compacted in input order: a mean sums as over its inputs alone.
    columns = [steps[a, i] for i, a in enumerate(active)]
    return RegimeResult(
        regime=regime,
        initial_steps=steps[:, :1].ravel(),
        iters_to_tol=trace.iters_run,
        converged=trace.converged,
        final_residuals=resid,
        step_stats=np.array([(c.mean(), c.min(), c.max()) for c in columns]),
        n_active=active.sum(axis=1),
        energy_means=None if trace.energies is None else np.array(
            [trace.energies[a, i + 1].mean() for i, a in enumerate(active)]),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the regime comparison and write its CSV outputs.

    Builds the dataset, trains the stacked auto-encoder, constructs the
    parameters of every requested regime, relaxes each evaluated input
    from feedforward initialization, and writes per-regime per-iteration
    step-magnitude statistics (linear and log10), the training curve and a
    summary table into ``spec.output_dir``.

    The random-tied weights are ``norm_matched_random(trained, train.seed)``:
    rescaled per layer to the trained weights' Frobenius norms, so that
    weight scale does not confound the comparison. The trained-ae weights
    are untied unless ``train.tie_decoder``, while random-tied is always
    tied, so the two regimes also differ in tying.

    The dataset is held through training only; evaluation holds a copy
    of the evaluated rows and the parameters of every regime.

    Returns:
        The in-memory report that was also written to disk.
    """
    data = build_dataset(spec.dataset, spec.sizes, spec.seed)
    if spec.n_inputs_evaluated > len(data):
        raise DatasetError(
            f"n_inputs_evaluated={spec.n_inputs_evaluated} exceeds dataset size {len(data)}")

    curve: list[tuple[int, int, float]] = []
    trained = train_stacked_ae(
        data, spec.sizes, spec.train,
        progress=lambda pair, epoch, err: curve.append((pair, epoch, err)))
    items = data.items[:spec.n_inputs_evaluated].copy()
    items.setflags(write=False)   # so the relaxation's NetworkState adopts it
    data = None   # evaluation reads the evaluated rows only
    params_by_regime = {REGIME_TRAINED_AE: trained}
    if REGIME_RANDOM_TIED in spec.regimes:
        params_by_regime[REGIME_RANDOM_TIED] = norm_matched_random(trained, spec.train.seed)

    results = tuple(
        _evaluate_regime(regime, params_by_regime[regime], items, spec.relaxation)
        for regime in spec.regimes)
    report = ExperimentReport(regimes=results, training_curve=tuple(curve))
    emit_csv(report, spec.output_dir)
    return report


def _fmt(x: float) -> str:
    return repr(float(x))


def _log10(x: float) -> float:
    return math.log10(x) if x > 0.0 else float("-inf")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_training_curve(curve, path: str | Path) -> None:
    """Write ``(pair, epoch, error)`` rows as the training-curve CSV with
    columns ``epoch,pair_index,reconstruction_error``."""
    _write_lines(Path(path), ["epoch,pair_index,reconstruction_error"]
                 + [f"{epoch},{pair},{_fmt(err)}" for pair, epoch, err in curve])


def write_trace(trace: ConvergenceTrace, path: str | Path) -> None:
    """Write one input's trace as the CSV ``iter,step_magnitude[,energy]``."""
    e = trace.energies
    _write_lines(Path(path), ["iter,step_magnitude" + ("" if e is None else ",energy")]
                 + [f"{i},{_fmt(m)}" + ("" if e is None else f",{_fmt(e[i + 1])}")
                    for i, m in enumerate(trace.step_magnitudes)])


def emit_csv(report: ExperimentReport, out_dir: str | Path) -> None:
    """Write the report as CSV files under ``out_dir``.

    Per regime: ``<regime>.csv`` with columns
    ``iter,step_mag_mean,step_mag_min,step_mag_max,energy_mean,n_active``
    and ``<regime>_log10.csv`` with the same step statistics in log10.
    ``n_active`` counts the inputs still relaxing at that iteration, the
    non-NaN entries of its column of the block trace, and ``step_mag_*``
    and ``energy_mean`` average over those inputs only, in input order. The
    energy column is populated only for regimes whose parameters admit
    an energy, i.e. tied weights: always ``random-tied``, and
    ``trained-ae`` only under ``train.tie_decoder``. ``summary.csv`` holds one
    ``regime,metric,value`` row per summary statistic, and
    ``training_curve.csv`` the per-epoch reconstruction errors. Floats use
    shortest round-trip decimals, so re-parsing reproduces them exactly.

    Summary statistics, over the evaluated inputs (every regime holds at
    least one): ``initial_step_mag_*`` is the first sweep's step.
    ``iters_to_tol_*`` counts sweeps until the step drops below the
    absolute ``tol`` (the budget if it never does), so it measures
    contraction near the fixed point, not closeness to it.
    ``final_residual_*`` is the largest single-branch prediction error
    ``|d - h_k|`` over the layers of the relaxed state; predictions are
    voltages and states rates, and a fixed point matches the clipped mean
    of the branches, not each branch, so it is not zero there.
    ``frac_converged`` is the share of inputs that reached ``tol``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rr in report.regimes:
        lines = ["iter,step_mag_mean,step_mag_min,step_mag_max,energy_mean,n_active"]
        log_lines = ["iter,log10_step_mag_mean,log10_step_mag_min,log10_step_mag_max"]
        for i, (mean_, min_, max_) in enumerate(rr.step_stats):
            e = _fmt(rr.energy_means[i]) if rr.energy_means is not None else ""
            lines.append(f"{i},{_fmt(mean_)},{_fmt(min_)},{_fmt(max_)},{e},{rr.n_active[i]}")
            log_lines.append(
                f"{i},{_fmt(_log10(mean_))},{_fmt(_log10(min_))},{_fmt(_log10(max_))}")
        _write_lines(out / f"{rr.regime}.csv", lines)
        _write_lines(out / f"{rr.regime}_log10.csv", log_lines)

    lines = ["regime,metric,value"]
    for rr in report.regimes:
        metrics = (
            ("initial_step_mag_mean", rr.initial_steps.mean()),
            ("initial_step_mag_min", rr.initial_steps.min()),
            ("initial_step_mag_max", rr.initial_steps.max()),
            ("iters_to_tol_mean", rr.iters_to_tol.mean()),
            ("iters_to_tol_min", rr.iters_to_tol.min()),
            ("iters_to_tol_max", rr.iters_to_tol.max()),
            ("final_residual_mean", rr.final_residuals.mean()),
            ("final_residual_max", rr.final_residuals.max()),
            ("frac_converged", rr.converged.mean()),
        )
        for name, value in metrics:
            lines.append(f"{rr.regime},{name},{_fmt(value)}")
    _write_lines(out / "summary.csv", lines)

    write_training_curve(report.training_curve, out / "training_curve.csv")


def _section(cls, doc, where: str, **convert):
    """``cls(**doc)`` with each value first passed through its ``convert``
    entry; a non-object ``doc``, a key that is no field of ``cls`` and a
    missing key of a field without a default are rejected."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for what, keys in (("unknown", set(doc) - {f.name for f in fields(cls)}),
                       ("missing", required - set(doc))):
        if keys:
            raise ConfigurationError(f"{what} {where} keys: {sorted(keys)}")
    return cls(**{key: convert[key](value) if key in convert else value
                  for key, value in doc.items()})


def _json_array(key: str, value) -> tuple:
    """``value`` as a tuple; ConfigurationError unless it is a JSON array."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{key} must be a JSON array, got {value!r}")
    return tuple(value)


def experiment_spec_from_config(doc) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a parsed JSON config document.

    The keys are the field names of :class:`ExperimentSpec`, and those of
    its ``dataset``, ``relaxation`` and ``train`` sections the field names
    of their dataclasses. Omitted keys take the dataclass defaults, the
    dataclasses check every value, and unknown keys are rejected.
    """
    try:
        return _section(
            ExperimentSpec, doc, "config",
            sizes=lambda sizes: LayerSpec(sizes=_json_array("sizes", sizes)),
            regimes=lambda regimes: _json_array("regimes", regimes),
            dataset=lambda sub: _section(DatasetSpec, sub, "dataset"),
            relaxation=lambda sub: _section(RelaxationConfig, sub, "relaxation"),
            train=lambda sub: _section(TrainConfig, sub, "train"))
    except FfinitError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid config: {exc}") from exc


def override_seed(spec: ExperimentSpec, seed: int) -> ExperimentSpec:
    """Replace every seed in the spec (top-level, training, relaxation)."""
    return replace(
        spec,
        seed=seed,
        train=replace(spec.train, seed=seed),
        relaxation=replace(spec.relaxation, seed=seed),
    )
