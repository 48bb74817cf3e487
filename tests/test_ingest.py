import numpy as np
import pytest

from capstate.errors import DataError
from capstate.ingest import (
    Condition,
    LabelPair,
    LabelScheme,
    Level,
    SyntheticSpec,
    assign_labels,
    generate_synthetic_recording,
    load_recording,
    relabel_stress,
    write_recording_csvs,
    write_sessions_csv,
)


class TestLabels:
    def test_assignment_exhaustive(self):
        assert assign_labels(Condition.C1) == LabelPair(Level.LOW, Level.LOW, 1)
        assert assign_labels(Condition.C2) == LabelPair(Level.HIGH, Level.UNDEFINED, 0)
        assert assign_labels(Condition.C3) == LabelPair(Level.HIGH, Level.HIGH, 1)

    def test_mask_invariant_enforced(self):
        with pytest.raises(ValueError):
            LabelPair(Level.HIGH, Level.UNDEFINED, 1)
        with pytest.raises(ValueError):
            LabelPair(Level.HIGH, Level.LOW, 0)

    CONDITIONS = np.array(["c1", "c2", "c3", "c2", "c1", "c3"], dtype=object)

    def _stress(self):
        return np.array([assign_labels(Condition(c)).stress.value for c in self.CONDITIONS])

    def test_relabel_c2_stress_low(self):
        out = relabel_stress(self._stress(), self.CONDITIONS, LabelScheme.C2_STRESS_LOW)
        assert out.tolist() == [0, 0, 1, 0, 0, 1]

    def test_relabel_identity_cases(self):
        stress = self._stress()
        out = relabel_stress(stress, self.CONDITIONS, LabelScheme.PRIMARY)
        assert np.array_equal(out, stress)
        out = relabel_stress(stress, self.CONDITIONS, LabelScheme.C2_STRESS_LOW)
        keep = self.CONDITIONS != "c2"
        assert np.array_equal(out[keep], stress[keep])

    def test_relabel_touches_only_c2_stress_fields(self, rng):
        # arbitrary stress values: only c2 rows change, and the input is not mutated
        stress = rng.integers(0, 2, len(self.CONDITIONS))
        before = stress.copy()
        out = relabel_stress(stress, self.CONDITIONS, LabelScheme.C2_STRESS_LOW)
        assert np.array_equal(stress, before)
        assert out is not stress
        assert np.all(out[self.CONDITIONS == "c2"] == Level.LOW.value)
        assert np.array_equal(out[self.CONDITIONS != "c2"], before[self.CONDITIONS != "c2"])


class TestSyntheticGeneration:
    def test_constant_ibi_peak_count_and_intervals(self):
        spec = SyntheticSpec(duration_s=60.0, heart_rate_profile=((0.0, 1000.0),), seed=3)
        _, truth = generate_synthetic_recording(spec)
        assert len(truth.r_peak_times_s) in (60, 61)
        assert np.allclose(truth.true_ibis_ms, 1000.0)

    def test_no_events_no_noise_gives_exact_tonic(self):
        spec = SyntheticSpec(
            duration_s=30.0, tonic_level_us=2.5, tonic_drift_slope=0.01, seed=0
        )
        rec, truth = generate_synthetic_recording(spec)
        t = np.arange(len(rec.eda)) / rec.eda_rate_hz
        assert np.abs(rec.eda - (2.5 + 0.01 * t)).max() < 1e-12
        assert np.array_equal(truth.tonic_trace, rec.eda)

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(
            duration_s=20.0,
            ibi_jitter_ms=25.0,
            scr_events=((5.0, 0.4), (12.0, 0.7)),
            noise_sd=0.01,
            ecg_noise_sd=0.05,
            seed=99,
        )
        rec1, truth1 = generate_synthetic_recording(spec)
        rec2, truth2 = generate_synthetic_recording(spec)
        assert np.array_equal(rec1.ecg, rec2.ecg)
        assert np.array_equal(rec1.eda, rec2.eda)
        assert np.array_equal(truth1.r_peak_times_s, truth2.r_peak_times_s)

    def test_peak_count_covers_duration(self):
        spec = SyntheticSpec(duration_s=45.0, heart_rate_profile=((0.0, 750.0),), seed=1)
        _, truth = generate_synthetic_recording(spec)
        # beats accumulate from 0.5 s at 0.75 s spacing until duration - 0.1 s
        expected = int(np.floor((45.0 - 0.1 - 0.5) / 0.75)) + 1
        assert abs(len(truth.r_peak_times_s) - expected) <= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(duration_s=10.0, scr_events=((5.0, -0.1),))
        with pytest.raises(ValueError):
            SyntheticSpec(duration_s=10.0, scr_events=((50.0, 0.1),))
        with pytest.raises(ValueError):
            SyntheticSpec(duration_s=-1.0)


class TestLoadRecording:
    @pytest.fixture
    def tree(self, tmp_path):
        spec = SyntheticSpec(duration_s=12.0, seed=5, ecg_rate_hz=256.0, eda_rate_hz=32.0)
        rec, _ = generate_synthetic_recording(spec)
        row = write_recording_csvs(tmp_path, "pp01", Condition.C1, rec)
        write_sessions_csv(tmp_path, [row])
        return tmp_path

    def test_round_trip(self, tree):
        rec = load_recording(tree, "pp01", Condition.C1, ecg_nominal_hz=256.0, eda_nominal_hz=32.0)
        assert rec.subject_id == "pp01"
        assert rec.condition is Condition.C1
        assert rec.ecg_rate_hz == pytest.approx(256.0, rel=1e-6)
        assert rec.eda_rate_hz == pytest.approx(32.0, rel=1e-6)
        assert len(rec.ecg) == 12 * 256

    def test_missing_file_reported_with_name(self, tree):
        with pytest.raises(DataError, match="sessions.csv"):
            load_recording(tree, "nobody", Condition.C1)

    def test_non_monotonic_timestamps_rejected(self, tree):
        path = tree / "pp01" / "ecg_c1.csv"
        lines = path.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-monotonic"):
            load_recording(tree, "pp01", Condition.C1, ecg_nominal_hz=256.0)

    def test_rate_mismatch_rejected(self, tree):
        with pytest.raises(DataError, match="rate mismatch"):
            load_recording(tree, "pp01", Condition.C1, ecg_nominal_hz=2048.0)

    def test_bad_header_rejected(self, tree):
        path = tree / "pp01" / "eda_c1.csv"
        body = path.read_text().splitlines()[1:]
        path.write_text("time,value\n" + "\n".join(body) + "\n")
        with pytest.raises(DataError, match="header"):
            load_recording(tree, "pp01", Condition.C1, ecg_nominal_hz=256.0)
