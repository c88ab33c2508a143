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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DataSource,
    DatasetHandle,
    default_mnist_images_path,
    load_idx_images,
    synth_autoencodable,
    synth_blobs,
)
from .energy import energy_model_or_none
from .exceptions import (
    ConfigurationError,
    DatasetError,
    FfinitError,
    check_count,
    check_member,
    check_real,
)
from .inference import RelaxationConfig, infer_from_feedforward
from .learning import (
    TrainConfig,
    init_random_tied,
    norm_matched_random,
    train_stacked_ae,
)
from .network import Activation, LayerSpec, NetworkParams, mutual_prediction_residual

REGIME_RANDOM_TIED = "random-tied"
REGIME_TRAINED_AE = "trained-ae"
KNOWN_REGIMES = (REGIME_RANDOM_TIED, REGIME_TRAINED_AE)


@dataclass(frozen=True)
class DatasetSpec:
    """Where the experiment's data comes from.

    ``source`` is a :class:`DataSource` or its value string. ``path``, a
    string, only applies to ``idx-file`` (when omitted the loader falls
    back to the ``FFINIT_MNIST_DIR`` directory); the remaining fields
    parameterize the synthetic generators. ``n_items`` truncates a
    loaded IDX dataset or sizes a synthetic one. The item dimension is
    always the network's visible size.
    """

    source: DataSource = DataSource.SYNTHETIC_BLOBS
    path: str | None = None
    n_items: int = 2000
    n_clusters: int = 8
    spread: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "source",
                           check_member("dataset source", self.source, DataSource))
        if self.path is not None and not isinstance(self.path, str):
            raise ConfigurationError(f"dataset path must be a string, got {self.path!r}")
        check_count("dataset n_items", self.n_items, 0, sys.maxsize)
        check_count("dataset n_clusters", self.n_clusters, 1, sys.maxsize)
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
        if not self.regimes:
            raise ConfigurationError("regimes must not be empty")
        for regime in self.regimes:
            if regime not in KNOWN_REGIMES:
                raise ConfigurationError(
                    f"unknown regime {regime!r}; known regimes: {KNOWN_REGIMES}")
        if len(set(self.regimes)) != len(self.regimes):
            raise ConfigurationError("regimes must not repeat")
        # A synthetic dataset is an (n_items, visible) float64 array, whose
        # entries numpy can address only up to sys.maxsize // 8; an IDX
        # file's n_items only truncates the file.
        n_entries = int(self.dataset.n_items) * self.sizes.visible_size
        if self.dataset.source is not DataSource.IDX_FILE and n_entries > sys.maxsize // 8:
            raise ConfigurationError(
                f"dataset n_items {self.dataset.n_items} at visible size "
                f"{self.sizes.visible_size} needs {n_entries} entries, more than the "
                f"{sys.maxsize // 8} a float64 array can hold")
        check_count("n_inputs_evaluated", self.n_inputs_evaluated, 0)
        if not isinstance(self.output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {self.output_dir!r}")
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
    training_curve: tuple[tuple[int, int, float], ...] | None


def build_dataset(dspec: DatasetSpec, sizes: LayerSpec, seed: int) -> DatasetHandle:
    """Load or generate the dataset a spec names, sized for ``sizes``."""
    if dspec.source is DataSource.IDX_FILE:
        path = Path(dspec.path) if dspec.path else default_mnist_images_path()
        try:
            data = load_idx_images(path)
        except FileNotFoundError as exc:
            raise DatasetError(
                f"dataset file {path} does not exist; point dataset.path (or "
                f"FFINIT_MNIST_DIR) at the MNIST IDX files") from exc
        if data.dim != sizes.visible_size:
            raise DatasetError(
                f"dataset dimension {data.dim} does not match visible size "
                f"{sizes.visible_size}")
        if 0 < dspec.n_items < len(data):
            data = DatasetHandle(data.items[:dspec.n_items])
        return data
    if dspec.source is DataSource.SYNTHETIC_BLOBS:
        return synth_blobs(dspec.n_items, sizes.visible_size, dspec.n_clusters,
                           dspec.spread, seed)
    data, _ = synth_autoencodable(dspec.n_items, sizes, seed)
    return data


def _evaluate_regime(regime: str, params: NetworkParams, items: np.ndarray,
                     cfg: RelaxationConfig) -> RegimeResult:
    energy_model = energy_model_or_none(params)
    state, traces = infer_from_feedforward(params, items, cfg, energy_model=energy_model)
    resid = mutual_prediction_residual(params, state).max(axis=1)
    iters = np.asarray([t.iters_run for t in traces], dtype=int)
    n_iters = int(iters.max(initial=0))
    stats = np.empty((n_iters, 3))
    n_active = np.empty(n_iters, dtype=int)
    energy_means = np.empty(n_iters) if energy_model is not None else None
    for i in range(n_iters):
        active = [t for t in traces if t.iters_run > i]
        vals = np.array([t.step_magnitudes[i] for t in active])
        stats[i] = (vals.mean(), vals.min(), vals.max())
        n_active[i] = len(active)
        if energy_means is not None:
            energy_means[i] = np.mean([t.energies[i + 1] for t in active])
    return RegimeResult(
        regime=regime,
        initial_steps=np.asarray([t.step_magnitudes[0] for t in traces]),
        iters_to_tol=iters,
        converged=np.asarray([t.converged for t in traces], dtype=bool),
        final_residuals=resid,
        step_stats=stats,
        n_active=n_active,
        energy_means=energy_means,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the regime comparison and write its CSV outputs.

    Builds the dataset, constructs the parameters of every requested
    regime, relaxes each evaluated input from feedforward initialization,
    and writes per-regime per-iteration step-magnitude statistics (linear
    and log10), the training curve when training happened, and a summary
    table into ``spec.output_dir``.

    When both regimes are requested, the random-tied weights are rescaled
    per layer to match the Frobenius norm of the trained weights so that
    the comparison is not confounded by weight scale.

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
    params_by_regime: dict[str, NetworkParams] = {}
    if REGIME_TRAINED_AE in spec.regimes:
        params_by_regime[REGIME_TRAINED_AE] = train_stacked_ae(
            data, spec.sizes, spec.train,
            progress=lambda pair, epoch, err: curve.append((pair, epoch, err)))
    items = data.items[:spec.n_inputs_evaluated].copy()
    items.setflags(write=False)   # so the relaxation's NetworkState adopts it
    data = None   # evaluation reads the evaluated rows only
    if REGIME_RANDOM_TIED in spec.regimes:
        trained = params_by_regime.get(REGIME_TRAINED_AE)
        params_by_regime[REGIME_RANDOM_TIED] = (
            init_random_tied(spec.sizes, Activation.HARD_SIGMOID, spec.train.init_scale,
                             spec.train.seed) if trained is None
            else norm_matched_random(trained, spec.train.init_scale, spec.train.seed))

    results = tuple(
        _evaluate_regime(regime, params_by_regime[regime], items, spec.relaxation)
        for regime in spec.regimes)
    report = ExperimentReport(regimes=results, training_curve=tuple(curve) if curve else None)
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


def emit_csv(report: ExperimentReport, out_dir: str | Path) -> None:
    """Write the report as CSV files under ``out_dir``.

    Per regime: ``<regime>.csv`` with columns
    ``iter,step_mag_mean,step_mag_min,step_mag_max,energy_mean,n_active``
    and ``<regime>_log10.csv`` with the same step statistics in log10.
    ``n_active`` counts the inputs still relaxing at that iteration, and
    the ``step_mag_*`` statistics and ``energy_mean`` average over those
    ``n_active`` inputs only; inputs that have converged drop out. The
    energy column is populated only for regimes whose parameters admit
    an energy, i.e. tied weights. ``summary.csv`` holds one
    ``regime,metric,value`` row per summary statistic, and
    ``training_curve.csv`` the per-epoch reconstruction errors when
    training took place. Floats use shortest round-trip decimals, so
    re-parsing reproduces them exactly.
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
        if len(rr.initial_steps) == 0:
            continue
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

    if report.training_curve is not None:
        write_training_curve(report.training_curve, out / "training_curve.csv")


def _section(cls, doc, where: str, **convert):
    """``cls(**doc)`` with each value first passed through its ``convert``
    entry; a non-object ``doc`` or a key that is no field of ``cls`` is rejected."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    return cls(**{key: convert[key](value) if key in convert else value
                  for key, value in doc.items()})


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
            sizes=lambda sizes: LayerSpec(sizes=tuple(sizes)),
            regimes=tuple,
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
