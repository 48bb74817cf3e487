"""Evaluation: LOSO folds (``loso``), the state-space and each subject's
trajectory record (``statespace``), t-tests and RM-ANOVA (``stats``), and the
report that aggregates the folds once (``report``). Results are the values
``stats.json`` stores: ``map_state`` returns a :class:`Quadrant`,
``rm_anova_oneway`` and ``condition_centroids`` return plain dicts."""

from .stats import (
    cohens_d,
    incomplete_beta,
    one_sample_t,
    paired_t,
    rm_anova_oneway,
)
from .statespace import (
    Quadrant,
    TrajectoryPattern,
    classify_trajectory,
    condition_centroids,
    map_state,
)
from .loso import FoldResult, run_loso

__all__ = [
    "cohens_d",
    "incomplete_beta",
    "one_sample_t",
    "paired_t",
    "rm_anova_oneway",
    "Quadrant",
    "TrajectoryPattern",
    "classify_trajectory",
    "condition_centroids",
    "map_state",
    "FoldResult",
    "run_loso",
]
