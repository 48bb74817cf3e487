"""Capacity state-space: quadrant mapping, per-condition centroids, and the
five-way trajectory taxonomy over the c1 -> c2 -> c3 centroid path."""

import enum
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class StateSpacePoint:
    u: float
    o: float
    quadrant: Quadrant
    c_ops: float


def map_state(u: float, o: float) -> StateSpacePoint:
    """Quadrants split at the 0.5 decision threshold on each axis; exact 0.5
    counts as high. c_ops = (U + O) / 2 is a visualization aid only."""
    if not (0.0 <= u <= 1.0 and 0.0 <= o <= 1.0):
        raise ValueError(f"(U, O) must lie in [0,1]^2, got ({u}, {o})")
    high_u = u >= 0.5
    high_o = o >= 0.5
    if high_u and not high_o:
        quad = Quadrant.MOTIVATED_ENGAGEMENT
    elif not high_u and not high_o:
        quad = Quadrant.UNDERUTILIZED
    elif high_u and high_o:
        quad = Quadrant.BOUNDARY_HIGH_LOAD
    else:
        quad = Quadrant.OVERLOAD_STRAIN
    return StateSpacePoint(u=float(u), o=float(o), quadrant=quad, c_ops=(float(u) + float(o)) / 2.0)


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


@dataclass(frozen=True)
class TrajectorySummary:
    subject_id: str
    centroids: dict  # condition -> {"u": mean, "o": mean, "u_sd": .., "o_sd": .., "n": count}
    delta_u: float | None  # c3 - c1, None when a centroid is missing
    delta_o: float | None
    pattern: TrajectoryPattern | None

    def as_dict(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "centroids": self.centroids,
            "delta_u": self.delta_u,
            "delta_o": self.delta_o,
            "pattern": self.pattern.value if self.pattern else None,
        }


def condition_centroids(subject_id: str, conditions, u, o) -> TrajectorySummary:
    """Per-condition mean/SD of (U, O). The pattern is classified only when all
    three conditions have windows; missing conditions are recorded as absent."""
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
    if len(centroids) == 3:
        c1 = (centroids["c1"]["u"], centroids["c1"]["o"])
        c2 = (centroids["c2"]["u"], centroids["c2"]["o"])
        c3 = (centroids["c3"]["u"], centroids["c3"]["o"])
        pattern = classify_trajectory(c1, c2, c3)
        delta_u = c3[0] - c1[0]
        delta_o = c3[1] - c1[1]
    else:
        pattern = None
        delta_u = None
        delta_o = None
    return TrajectorySummary(subject_id, centroids, delta_u, delta_o, pattern)


def quadrant_occupancy(u, o) -> dict:
    """Count of points per quadrant; counts always sum to len(u)."""
    counts = {q.value: 0 for q in Quadrant}
    for ui, oi in zip(np.asarray(u), np.asarray(o)):
        counts[map_state(float(ui), float(oi)).quadrant.value] += 1
    return counts
