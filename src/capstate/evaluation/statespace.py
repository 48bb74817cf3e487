"""Capacity state-space: quadrant mapping, per-condition centroids, and the
five-way trajectory taxonomy over the c1 -> c2 -> c3 centroid path.

``map_state`` returns the :class:`Quadrant` of one (U, O) point and
``quadrant_occupancy`` counts many points per quadrant, both splitting each
axis by the heads' decision rule, ``capstate.metrics.is_high``.
``condition_centroids`` returns a subject's trajectory record as a plain
dict, the form ``report`` writes to ``stats.json``."""

import enum

import numpy as np

from ..metrics import is_high

FLAT_DELTA = 0.05  # |dU|, |dO| band for the flat/ceiling pattern


class Quadrant(enum.Enum):
    UNDERUTILIZED = "underutilized"
    MOTIVATED_ENGAGEMENT = "motivated_engagement"
    BOUNDARY_HIGH_LOAD = "boundary_high_load"
    OVERLOAD_STRAIN = "overload_strain"


class TrajectoryPattern(enum.Enum):
    MONOTONIC = "monotonic"
    RISING = "rising"
    PEAK_C2 = "peak_c2"
    FLAT_CEILING = "flat_ceiling"
    INVERTED = "inverted"


# The quadrant of a point whose U and O are high or not, at 2 * high U + high O
_BY_HIGH_UO = (Quadrant.UNDERUTILIZED, Quadrant.OVERLOAD_STRAIN, Quadrant.MOTIVATED_ENGAGEMENT,
               Quadrant.BOUNDARY_HIGH_LOAD)


def _high_uo(u, o) -> np.ndarray:
    """2 * high U + high O of each point (an index into ``_BY_HIGH_UO``);
    a point outside [0, 1]^2 raises."""
    u, o = np.asarray(u, dtype=np.float64), np.asarray(o, dtype=np.float64)
    outside = ~((u >= 0.0) & (u <= 1.0) & (o >= 0.0) & (o <= 1.0))
    if outside.any():
        raise ValueError(f"(U, O) must lie in [0,1]^2, got ({u[outside][0]}, {o[outside][0]})")
    return 2 * is_high(u) + is_high(o)


def map_state(u: float, o: float) -> Quadrant:
    """The quadrant of one (U, O) point; an exact 0.5 counts as high."""
    return _BY_HIGH_UO[int(_high_uo(u, o))]


def classify_trajectory(c1, c2, c3) -> TrajectoryPattern:
    """Decision order: flat/ceiling band, inverted, peak-c2, strict monotonic,
    rising; residual mixed-sign cases go to the nearest of rising/inverted by
    the sign of dU + dO (tie -> flat/ceiling)."""
    for point in (c1, c2, c3):
        u, o = point
        if not (0.0 <= u <= 1.0 and 0.0 <= o <= 1.0):
            raise ValueError("centroids must lie in [0,1]^2")
    du = c3[0] - c1[0]
    do = c3[1] - c1[1]
    if abs(du) < FLAT_DELTA and abs(do) < FLAT_DELTA:
        return TrajectoryPattern.FLAT_CEILING
    if du < 0 and do < 0:
        return TrajectoryPattern.INVERTED
    mean1, mean2, mean3 = ((p[0] + p[1]) / 2.0 for p in (c1, c2, c3))
    if mean2 > mean1 and mean2 > mean3 and (du + do) > 0:
        return TrajectoryPattern.PEAK_C2
    if c1[0] < c2[0] < c3[0] and c1[1] < c2[1] < c3[1]:
        return TrajectoryPattern.MONOTONIC
    if du + do > 0:
        return TrajectoryPattern.RISING
    if du + do < 0:
        return TrajectoryPattern.INVERTED
    return TrajectoryPattern.FLAT_CEILING


def condition_centroids(subject_id: str, conditions, u, o) -> dict:
    """One subject's trajectory record, as ``stats.json`` stores it:
    ``subject_id``; ``centroids``, per condition with windows the mean and SD
    of U and O and the window count ``n``; ``delta_u`` and ``delta_o``
    (c3 - c1); and ``pattern``, the :class:`TrajectoryPattern` value. The
    deltas and the pattern are None unless all three conditions have windows."""
    conditions = np.asarray(conditions)
    u = np.asarray(u, dtype=np.float64)
    o = np.asarray(o, dtype=np.float64)
    centroids = {}
    for cond in ("c1", "c2", "c3"):
        sel = conditions == cond
        if sel.any():
            centroids[cond] = {
                "u": float(u[sel].mean()),
                "o": float(o[sel].mean()),
                "u_sd": float(u[sel].std()),
                "o_sd": float(o[sel].std()),
                "n": int(sel.sum()),
            }
    record = {"subject_id": subject_id, "centroids": centroids, "delta_u": None, "delta_o": None, "pattern": None}
    if len(centroids) == 3:
        c1, c2, c3 = ((centroids[c]["u"], centroids[c]["o"]) for c in ("c1", "c2", "c3"))
        record.update(delta_u=c3[0] - c1[0], delta_o=c3[1] - c1[1], pattern=classify_trajectory(c1, c2, c3).value)
    return record


def quadrant_occupancy(u, o) -> dict:
    """Count of points per quadrant value; counts always sum to len(u)."""
    counts = np.bincount(_high_uo(u, o), minlength=len(_BY_HIGH_UO))
    return {q.value: int(n) for q, n in zip(_BY_HIGH_UO, counts)}
