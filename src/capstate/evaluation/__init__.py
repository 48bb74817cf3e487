from ..metrics import Metrics, classification_metrics
from .stats import (
    cohens_d,
    incomplete_beta,
    one_sample_t,
    paired_t,
    partial_eta_sq_from_f,
    rm_anova_oneway,
)
from .statespace import (
    Quadrant,
    StateSpacePoint,
    TrajectoryPattern,
    TrajectorySummary,
    classify_trajectory,
    condition_centroids,
    map_state,
)
from .loso import FoldResult, run_loso

__all__ = [
    "Metrics",
    "classification_metrics",
    "cohens_d",
    "incomplete_beta",
    "one_sample_t",
    "paired_t",
    "partial_eta_sq_from_f",
    "rm_anova_oneway",
    "Quadrant",
    "StateSpacePoint",
    "TrajectoryPattern",
    "TrajectorySummary",
    "classify_trajectory",
    "condition_centroids",
    "map_state",
    "FoldResult",
    "run_loso",
]
