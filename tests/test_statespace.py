import numpy as np
import pytest

from capstate.evaluation import (
    Quadrant,
    TrajectoryPattern,
    classify_trajectory,
    condition_centroids,
    map_state,
)
from capstate.evaluation.statespace import quadrant_occupancy


class TestMapState:
    def test_quadrant_assignment(self):
        assert map_state(0.8, 0.2) is Quadrant.MOTIVATED_ENGAGEMENT
        assert map_state(0.2, 0.2) is Quadrant.UNDERUTILIZED
        assert map_state(0.8, 0.8) is Quadrant.BOUNDARY_HIGH_LOAD
        assert map_state(0.2, 0.8) is Quadrant.OVERLOAD_STRAIN

    def test_boundary_goes_high(self):
        assert map_state(0.5, 0.5) is Quadrant.BOUNDARY_HIGH_LOAD
        assert map_state(0.5, 0.2) is Quadrant.MOTIVATED_ENGAGEMENT
        assert map_state(0.2, 0.5) is Quadrant.OVERLOAD_STRAIN

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            map_state(1.2, 0.5)
        with pytest.raises(ValueError):
            map_state(0.5, -0.1)

    def test_partition_property(self, rng):
        u = rng.uniform(0, 1, 500)
        o = rng.uniform(0, 1, 500)
        counts = quadrant_occupancy(u, o)
        assert sum(counts.values()) == 500

    def test_occupancy_counts_each_point_once(self, rng):
        """The vectorised counts equal a per-point loop's: Python ints under
        all four keys, exact 0.5 high, the edges of [0, 1] inside; an empty
        set counts zeros and a point outside raises."""
        u = np.concatenate([rng.uniform(0, 1, 300), [0.5, 0.5, 0.2, 0.0, 1.0, 0.5]])
        o = np.concatenate([rng.uniform(0, 1, 300), [0.5, 0.2, 0.5, 1.0, 0.0, 0.0]])
        quadrant = {(False, False): Quadrant.UNDERUTILIZED, (True, False): Quadrant.MOTIVATED_ENGAGEMENT,
                    (True, True): Quadrant.BOUNDARY_HIGH_LOAD, (False, True): Quadrant.OVERLOAD_STRAIN}
        want = dict.fromkeys((q.value for q in Quadrant), 0)
        for ui, oi in zip(u.tolist(), o.tolist()):
            want[quadrant[ui >= 0.5, oi >= 0.5].value] += 1
            assert map_state(ui, oi) is quadrant[ui >= 0.5, oi >= 0.5]
        counts = quadrant_occupancy(u, o)
        assert counts == want and all(type(n) is int for n in counts.values())
        assert quadrant_occupancy(np.empty(0), np.empty(0)) == dict.fromkeys(want, 0)
        for bad in (1.0 + 1e-12, -0.0 - 1e-300, np.nan):
            with pytest.raises(ValueError):
                quadrant_occupancy(np.array([0.3, bad]), np.array([0.3, 0.3]))


class TestClassifyTrajectory:
    def test_monotonic(self):
        assert classify_trajectory((0.2, 0.2), (0.4, 0.4), (0.6, 0.6)) is TrajectoryPattern.MONOTONIC

    def test_peak_c2(self):
        assert classify_trajectory((0.3, 0.3), (0.7, 0.7), (0.5, 0.5)) is TrajectoryPattern.PEAK_C2

    def test_flat_ceiling(self):
        assert (
            classify_trajectory((0.5, 0.5), (0.51, 0.49), (0.52, 0.51))
            is TrajectoryPattern.FLAT_CEILING
        )

    def test_inverted(self):
        assert classify_trajectory((0.7, 0.7), (0.5, 0.6), (0.4, 0.3)) is TrajectoryPattern.INVERTED

    def test_rising_without_monotonicity(self):
        # net positive on both axes but c2 dips below c1
        assert classify_trajectory((0.3, 0.3), (0.25, 0.35), (0.6, 0.6)) is TrajectoryPattern.RISING

    def test_totality_on_grid(self):
        u_vals = np.linspace(0.0, 1.0, 10)
        o_vals = np.linspace(0.0, 1.0, 5)
        mids = ((0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.0, 0.0))
        count = 0
        for u1 in u_vals:
            for o1 in o_vals:
                for u3 in u_vals:
                    for o3 in o_vals:
                        for u2, o2 in mids:
                            p = classify_trajectory((u1, o1), (u2, o2), (u3, o3))
                            assert isinstance(p, TrajectoryPattern)
                            count += 1
        assert count >= 10_000

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_trajectory((1.2, 0.0), (0.5, 0.5), (0.6, 0.6))


class TestConditionCentroids:
    def test_identical_windows_flat(self):
        conds = np.array(["c1"] * 5 + ["c2"] * 5 + ["c3"] * 5)
        u = np.full(15, 0.7)
        o = np.full(15, 0.3)
        s = condition_centroids("pp01", conds, u, o)
        assert s["pattern"] == TrajectoryPattern.FLAT_CEILING.value
        assert s["delta_u"] == pytest.approx(0.0)
        for c in ("c1", "c2", "c3"):
            assert s["centroids"][c]["u"] == pytest.approx(0.7)
            assert s["centroids"][c]["n"] == 5

    def test_known_means_recovered(self, rng):
        conds = np.array(["c1"] * 10 + ["c2"] * 10 + ["c3"] * 10)
        u = np.concatenate([np.full(10, 0.2), np.full(10, 0.5), np.full(10, 0.8)])
        o = np.concatenate([np.full(10, 0.3), np.full(10, 0.5), np.full(10, 0.7)])
        u = u + rng.normal(0, 1e-9, 30)
        o = o + rng.normal(0, 1e-9, 30)
        s = condition_centroids("pp02", conds, u, o)
        assert s["centroids"]["c2"]["u"] == pytest.approx(0.5, abs=1e-6)
        assert s["pattern"] == TrajectoryPattern.MONOTONIC.value
        assert s["delta_u"] == pytest.approx(0.6, abs=1e-6)

    def test_missing_condition_no_pattern(self):
        conds = np.array(["c1"] * 5 + ["c3"] * 5)
        s = condition_centroids("pp03", conds, np.full(10, 0.4), np.full(10, 0.4))
        assert s["pattern"] is None
        assert "c2" not in s["centroids"]
        assert s["delta_u"] is None
