"""Weight prediction for partially weighted directed networks.

Equips directed networks whose weights are known only on a training subset
(of origins, terminals, or edges) with a count-based distance, and predicts
the unknown weights with modified kNN and kernel-expansion regressors.
Includes dataset ingestion, fairness/goodness vertex-weight generation,
seeded train/test splitting, and MAE/RMSE evaluation.
"""

from .countmetric import CountMetric, stable_mean
from .errors import DomainError, ParseError, PredictionError, WeightpredError
from .evaluation import ExperimentConfig, mae, rmse, run_experiment
from .fairness import compute_fairness_goodness
from .graph import WeightKind, Weighting, build_graph, neighbors
from .ingest import (
    DatasetSpec,
    EdgeRecord,
    Snapshot,
    SplitPlan,
    build_snapshot,
    load_snapshot,
    make_split,
    parse_edge_list,
    rescale,
    rescale_inverse,
    save_snapshot,
)
from .knn import KnnConfig, KnnModel
from .svm import (
    KernelSpec,
    SvmConfig,
    fit,
    fit_points,
    predict_weight_svm,
)

__version__ = "0.3.0"

__all__ = [
    "CountMetric",
    "DatasetSpec",
    "DomainError",
    "EdgeRecord",
    "ExperimentConfig",
    "KernelSpec",
    "KnnConfig",
    "KnnModel",
    "ParseError",
    "PredictionError",
    "Snapshot",
    "SplitPlan",
    "SvmConfig",
    "WeightKind",
    "Weighting",
    "WeightpredError",
    "build_graph",
    "build_snapshot",
    "compute_fairness_goodness",
    "fit",
    "fit_points",
    "load_snapshot",
    "mae",
    "make_split",
    "neighbors",
    "parse_edge_list",
    "predict_weight_svm",
    "rescale",
    "rescale_inverse",
    "rmse",
    "run_experiment",
    "save_snapshot",
    "stable_mean",
]
