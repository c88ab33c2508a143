"""Layered recurrent energy networks with feedforward-initialized inference.

A chain of hard-sigmoid hidden layers sits over a clamped visible
vector; each hidden layer moves to the rate of the plain mean of its
bottom-up and top-down branch predictions, the one update rule, stated
and computed in :mod:`ffinit.network`. The package also provides a scalar
energy with analytic gradient for tied weights (:mod:`ffinit.energy`),
direct / leaky / Langevin relaxation (:mod:`ffinit.inference`),
random-tied and trained auto-encoder weight regimes
(:mod:`ffinit.learning`), dataset and checkpoint handling
(:mod:`ffinit.data`), and an experiment harness plus CLI
(:mod:`ffinit.harness`, ``ffinit``).
"""

from .exceptions import (
    CheckpointError,
    ConfigurationError,
    DatasetError,
    FfinitError,
    InvalidInputError,
)
from .network import (
    Activation,
    LayerSpec,
    NetworkParams,
    NetworkState,
    apply_activation,
    feedforward_init,
    mutual_prediction_residual,
)
from .energy import EnergyModel, energy, energy_gradient
from .inference import (
    ConvergenceTrace,
    RelaxationConfig,
    Scheme,
    direct_update_layer,
    infer_from_feedforward,
    relax,
)
from .data import (
    DataSource,
    DatasetHandle,
    load_params,
    save_params,
    synth_autoencodable,
    synth_blobs,
)
from .learning import (
    TrainConfig,
    TrainRule,
    init_random_tied,
    norm_matched_random,
    reconstruction_error,
    train_stacked_ae,
)
from .harness import (
    DatasetSpec,
    ExperimentReport,
    ExperimentSpec,
    RegimeResult,
    emit_csv,
    experiment_spec_from_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Activation", "LayerSpec", "NetworkParams", "NetworkState",
    "apply_activation", "feedforward_init", "mutual_prediction_residual",
    "EnergyModel", "energy", "energy_gradient",
    "Scheme", "RelaxationConfig", "ConvergenceTrace",
    "direct_update_layer", "relax", "infer_from_feedforward",
    "TrainConfig", "TrainRule", "init_random_tied", "norm_matched_random",
    "train_stacked_ae", "reconstruction_error",
    "DataSource", "DatasetHandle", "synth_blobs", "synth_autoencodable",
    "save_params", "load_params",
    "DatasetSpec", "ExperimentSpec", "ExperimentReport", "RegimeResult",
    "run_experiment", "emit_csv", "experiment_spec_from_config",
    "FfinitError", "ConfigurationError", "InvalidInputError", "DatasetError",
    "CheckpointError",
]
