"""Layered recurrent energy networks with feedforward-initialized inference.

A chain of hard-sigmoid hidden layers sits over a clamped visible
vector; each hidden layer moves to the rate of the gain-weighted mean of
its bottom-up and top-down branch predictions, the one update rule
stated in :mod:`ffinit.network`. The package also provides a scalar
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
    ConstructionError,
    DatasetError,
    DimensionError,
    DivergenceError,
    FfinitError,
    IdxFormatError,
    IdxLengthError,
    InvalidInputError,
    NotAnEnergyModelError,
)
from .network import (
    Activation,
    LayerSpec,
    NetworkParams,
    NetworkState,
    apply_activation,
    activation_subderivative,
    branch_combine,
    branch_predictions,
    feedforward_init,
    mutual_prediction_residual,
)
from .energy import EnergyModel, energy, energy_gradient, energy_model_or_none
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
    load_idx_images,
    load_params,
    save_params,
    subset,
    synth_autoencodable,
    synth_blobs,
)
from .learning import (
    TrainConfig,
    TrainRule,
    init_random_tied,
    local_branch_update,
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
    "apply_activation", "activation_subderivative", "branch_predictions",
    "branch_combine", "feedforward_init", "mutual_prediction_residual",
    "EnergyModel", "energy", "energy_gradient", "energy_model_or_none",
    "Scheme", "RelaxationConfig", "ConvergenceTrace",
    "direct_update_layer", "relax", "infer_from_feedforward",
    "TrainConfig", "TrainRule", "init_random_tied", "norm_matched_random",
    "train_stacked_ae", "local_branch_update", "reconstruction_error",
    "DataSource", "DatasetHandle", "load_idx_images", "synth_blobs",
    "synth_autoencodable", "subset", "save_params", "load_params",
    "DatasetSpec", "ExperimentSpec", "ExperimentReport", "RegimeResult",
    "run_experiment", "emit_csv", "experiment_spec_from_config",
    "FfinitError", "InvalidInputError", "DimensionError", "ConfigurationError",
    "NotAnEnergyModelError", "IdxFormatError", "IdxLengthError", "DatasetError",
    "DivergenceError", "ConstructionError", "CheckpointError",
]
