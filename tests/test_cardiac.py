import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstate import cardiac
from capstate.cardiac import (
    HRV_FEATURE_NAMES,
    IBI_MAX_MS,
    IBI_MIN_MS,
    PeakList,
    _centered_running_max,
    _moving_window_integral,
    _pt_scan_loop,
    _squared_slope,
    build_ibi,
    detect_r_peaks,
    hrv_features,
    hrv_frequency_features,
    hrv_nonlinear_features,
    hrv_time_features,
    ibi_to_uniform,
)
from capstate.dsp import UniformSeries, butterworth_bandpass
from capstate.ingest import Condition, SyntheticSpec, generate_synthetic_recording
from capstate.pipeline import normalize_per_subject, synthetic_condition_spec
from conftest import (
    brute_hrv_time,
    centered_running_max_reference,
    detect_r_peaks_full_rate,
    match_peaks_f1,
    moving_window_integral_reference,
    pt_scan_reference,
)


def synthetic_ecg(duration_s=60.0, ibi_ms=1000.0, jitter=0.0, snr_db=None, seed=1, rate=512.0):
    spec = SyntheticSpec(
        duration_s=duration_s,
        heart_rate_profile=((0.0, ibi_ms),),
        ibi_jitter_ms=jitter,
        seed=seed,
        ecg_rate_hz=rate,
    )
    rec, truth = generate_synthetic_recording(spec)
    ecg = rec.ecg.values
    if snr_db is not None:
        rms = np.sqrt(np.mean(ecg**2))
        noise_sd = rms / (10.0 ** (snr_db / 20.0))
        ecg = ecg + np.random.default_rng(seed + 1).normal(0.0, noise_sd, len(ecg))
    return UniformSeries(ecg, rate), truth


class TestDetectRPeaks:
    def test_clean_count_and_timing(self):
        ecg, truth = synthetic_ecg()
        peaks = detect_r_peaks(ecg)
        assert abs(len(peaks) - 60) <= 1
        for p in peaks.times_s:
            assert np.abs(truth.r_peak_times_s - p).min() <= 0.02

    @pytest.mark.parametrize("higher", ["first", "second"])
    def test_colliding_refinements_keep_the_higher_apex(self, monkeypatch, higher):
        """Two accepted marks 220 ms apart whose +/-50 ms maxima lie 140 ms
        apart, inside the 200 ms refractory window, give one peak at the
        higher apex, whichever of the two it is; a third mark far from both
        gives its own peak, and the times increase strictly."""
        rate = 1000.0  # q = 4, so mark m is refined around sample 4 m + 1
        marks = np.array([1000, 1055, 2000], dtype=np.intp)
        apexes = [4001 + 40, 4221 - 40, 8001]
        values = np.zeros(12 * int(rate))
        values[apexes] = [1.0, 0.8, 1.0] if higher == "first" else [0.8, 1.0, 1.0]
        monkeypatch.setattr(cardiac, "_pt_scan_loop", lambda *args: marks)
        times = detect_r_peaks(UniformSeries(values, rate)).times_s
        kept = apexes[0] if higher == "first" else apexes[1]
        np.testing.assert_array_equal(times, np.array([kept, apexes[2]]) / rate)
        assert np.all(np.diff(times) > 0)

    def test_flat_zero_gives_empty(self):
        assert len(detect_r_peaks(UniformSeries(np.zeros(512 * 20), 512.0))) == 0

    def test_snr10db_f1(self):
        ecg, truth = synthetic_ecg(duration_s=120.0, jitter=30.0, snr_db=10.0, seed=7)
        peaks = detect_r_peaks(ecg)
        assert match_peaks_f1(peaks.times_s, truth.r_peak_times_s, tol_s=0.02) >= 0.99

    def test_preconditions(self):
        with pytest.raises(ValueError):
            detect_r_peaks(UniformSeries(np.zeros(100 * 20), 100.0))
        with pytest.raises(ValueError):
            detect_r_peaks(UniformSeries(np.zeros(512 * 5), 512.0))

    def test_translation_equivariance(self):
        ecg, _ = synthetic_ecg(duration_s=60.0, jitter=20.0, seed=3)
        shift = 256  # half a second
        shifted = UniformSeries(np.concatenate([np.zeros(shift), ecg.values]), ecg.rate_hz)
        base = detect_r_peaks(ecg).times_s
        moved = detect_r_peaks(shifted).times_s - shift / ecg.rate_hz
        base = base[(base > 3.0) & (base < 55.0)]
        for p in base:
            assert np.abs(moved - p).min() <= 1.5 / ecg.rate_hz

    @pytest.mark.parametrize("rate", [1024.0, 2048.0])
    def test_high_rate_timing_against_ground_truth(self, rate):
        # at these rates one QRS gives several MWI maxima; the first one above
        # threshold used to be accepted, up to ~130 ms before the R peak
        for cond in Condition:
            spec = synthetic_condition_spec(0, cond, 120.0, seed=100, ecg_rate_hz=rate)
            rec, truth = generate_synthetic_recording(spec)
            peaks = detect_r_peaks(rec.ecg).times_s
            assert match_peaks_f1(peaks, truth.r_peak_times_s, tol_s=0.02) >= 0.99
            errors = np.abs(truth.r_peak_times_s[:, None] - peaks[None, :]).min(axis=0)
            assert errors.max() <= 0.005

    @pytest.mark.parametrize("n, half", [(1, 0), (1, 3), (50, 0), (97, 4), (200, 11), (31, 40),
                                         (8, 4), (9, 4), (2, 1), (300, 64), (129, 63)])
    def test_centered_running_max_matches_brute_force(self, rng, n, half):
        # half = 0 is w = 1; n < w = 2 half + 1 at (1, 3), (31, 40), (8, 4), (2, 1);
        # w = 9 and 129, one above a power of two, at (8, 4) and (300, 64); w = 127 at (129, 63)
        plateaus = np.repeat(rng.integers(0, 3, n), rng.integers(1, 6, n))[:n].astype(float)
        for x in (rng.normal(size=n), rng.integers(0, 3, n).astype(float), plateaus, np.full(n, -2.5)):
            expected = [x[max(i - half, 0) : i + half + 1].max() for i in range(n)]
            assert np.array_equal(_centered_running_max(x, half), expected)

    @given(
        half=st.sampled_from([0, 1, 2, 5, 38, 154]),  # 38 and 154: the MWI half-widths at 512 and 2048 Hz
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_moving_window_integral_matches_gather(self, half, data, seed):
        # n runs from 1 to 3 w, so n < w (edges only, no interior) and n == w are both drawn
        w = 2 * half + 1
        n = data.draw(st.integers(1, 3 * w), label="n")
        x = np.random.default_rng(seed).normal(size=n) ** 2 * 1e3
        got = _moving_window_integral(x, half)
        assert got.shape == (n,)
        assert got.tobytes() == moving_window_integral_reference(x, half).tobytes()

    @pytest.mark.parametrize("n, half", [(1, 0), (1, 3), (50, 0), (97, 4), (31, 40), (9, 4), (300, 64),
                                         (2000, 102), (2000, 205)])
    def test_centered_running_max_matches_fresh_buffers(self, rng, n, half):
        # 102 and 205: the half-widths at 1024 and 2048 Hz; -0.0 and +0.0 ties keep their order
        signed_zeros = rng.choice([-0.0, 0.0], n)
        for x in (rng.normal(size=n), signed_zeros, np.full(n, -0.0), 1e150 * rng.normal(size=n)):
            kept = x.copy()
            got = _centered_running_max(x, half)
            assert got.tobytes() == centered_running_max_reference(x, half).tobytes()
            assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("rate", [200.0, 512.0, 2048.0])
    def test_squared_slope_is_np_gradient_squared(self, rng, rate):
        for band in (rng.normal(size=3001), 1e150 * rng.normal(size=2), np.full(40, -0.0),
                     np.sin(np.arange(5000) * 0.01)):
            kept = band.copy()
            deriv = np.gradient(band) * rate
            assert _squared_slope(band, rate).tobytes() == (deriv * deriv).tobytes()
            assert band.tobytes() == kept.tobytes()

    # measured: 33.93, 20.97 and 5.24 B/sample; each bound is about 15% above
    @pytest.mark.parametrize("rate, bound", [(256.0, 39.0), (512.0, 24.1), (2048.0, 6.0)],
                             ids=["256Hz", "512Hz", "2048Hz"])
    def test_chain_peak_memory_per_sample(self, rate, bound):
        """Peak traced memory of ``detect_r_peaks`` on a 70 s ECG per input
        sample, at the rates the product runs: 512 Hz in criterion 7, the CLI
        tests and the LOSO benchmarks' set-up, 2048 Hz in SWELL-rate
        preprocess. numpy reports its buffers to tracemalloc, so the peak is
        deterministic. At 2048 Hz it is 5.2 B/sample, as the scan runs on
        block means at 256 Hz (an eighth of the samples) and only the
        refinement reads the ECG at 2048 Hz; it was 33.8 when the chain's
        buffers were full length and 73.0 when every step took a fresh array
        as well. At 256 Hz the scan runs on the samples themselves, and at
        512 Hz on pairs. The caller's samples are only read."""
        spec = synthetic_condition_spec(0, Condition.C1, 70.0, seed=5, ecg_rate_hz=rate)
        ecg = generate_synthetic_recording(spec)[0].ecg
        kept = ecg.values.copy()
        want = detect_r_peaks(ecg).times_s  # builds the cached designs outside the trace
        tracemalloc.start()
        try:
            got = detect_r_peaks(ecg).times_s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_sample = peak / len(ecg.values)
        assert per_sample <= bound, f"{per_sample:.2f} B/sample"
        assert got.tobytes() == want.tobytes() and len(got) > 60
        assert ecg.values.tobytes() == kept.tobytes()

    def test_threshold_scan_matches_reference(self, rng):
        # increasing candidate samples, some inside the refractory period, with values on both
        # sides of the thresholds: several hundred search-back accepts over these 200 streams
        for _ in range(200):
            m = int(rng.integers(0, 120))
            idx = np.cumsum(rng.integers(1, 400, m)).astype(np.int64)
            val = rng.exponential(1.0, m) * rng.choice([0.2, 1.0], m)
            refr = float(rng.choice([40.0, 102.4, 409.6]))
            args = (idx, val, refr, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.5)))
            marks = _pt_scan_loop(*args)
            assert marks.tobytes() == pt_scan_reference(*args).tobytes()
            assert np.all(np.diff(marks) > 0)  # detect_r_peaks takes them in order, unsorted


def condition_ecg(rate, cond, seed, duration_s=30.0):
    spec = synthetic_condition_spec(seed % 4, cond, duration_s, seed=seed, ecg_rate_hz=rate)
    return generate_synthetic_recording(spec)


class TestBlockMeanScan:
    """``detect_r_peaks`` scans block means of q samples at ``rate / q`` and
    refines each beat at the full rate; ``conftest.detect_r_peaks_full_rate``
    runs every stage at the full rate."""

    @pytest.mark.parametrize("rate, q", [(256.0, 1), (499.9, 1), (500.1, 2), (1000.0, 4), (2048.0, 8)])
    def test_band_pass_filters_block_means_at_about_250_hz(self, monkeypatch, rate, q):
        seen = []

        def spy(x, *args):
            seen.append(x)
            return butterworth_bandpass(x, *args)

        monkeypatch.setattr(cardiac, "butterworth_bandpass", spy)
        ecg = condition_ecg(rate, Condition.C1, 1)[0].ecg
        detect_r_peaks(ecg)
        (scan,) = seen
        n = len(ecg.values) // q
        assert scan.rate_hz == rate / q and len(scan.values) == n
        sums = sum(ecg.values[k : n * q : q] for k in range(q))
        assert np.allclose(scan.values, sums / q, rtol=1e-12, atol=0.0)

    # q = rate // 250 Hz, at least 1: 1 at 499.9 Hz and 2 at 500.1 Hz, 2 at 512 Hz, 4 at 1000 and
    # 1024 Hz, 8 at 2048 Hz
    @pytest.mark.parametrize("rate", [499.9, 500.1, 512.0, 1000.0, 1024.0, 2048.0])
    def test_same_peaks_as_the_full_rate_scan(self, rate):
        for seed in (1, 2, 3):
            for cond in Condition:
                ecg = condition_ecg(rate, cond, seed)[0].ecg
                got = detect_r_peaks(ecg).times_s
                assert got.tobytes() == detect_r_peaks_full_rate(ecg).times_s.tobytes(), (seed, cond)
                assert len(got) > 25

    @pytest.mark.parametrize("end", ["mid_interval", "after_a_beat"])
    def test_same_peaks_at_every_length_modulo_the_block(self, end):
        # q = 8 at 2048 Hz, so n = 0 ... 7 (mod 8) leaves 0 ... 7 samples out of the block means;
        # "after_a_beat" ends the record 20 ms after an R peak, inside its refinement window
        rec, truth = condition_ecg(2048.0, Condition.C2, 4)
        beat = truth.r_peak_times_s[-3]
        stop = beat + (0.02 if end == "after_a_beat" else 0.3)
        base = int(stop * 2048.0) // 8 * 8
        for extra in range(8):
            ecg = rec.ecg.replace_values(rec.ecg.values[: base + extra])
            got = detect_r_peaks(ecg).times_s
            assert got.tobytes() == detect_r_peaks_full_rate(ecg).times_s.tobytes(), extra
            assert len(got) > 25

    @pytest.mark.parametrize("rate", [512.0, 1000.0, 2048.0])
    def test_noisy_f1_within_a_margin_of_the_full_rate_scan(self, rate):
        """White noise at an SNR after the MIT-BIH noise stress test: the signal
        power is the squared peak-to-peak ECG amplitude over 8. On 5 seeds x 3
        conditions x 60 s at each of these rates and SNRs, both detectors
        scored F1 1.0, so the measured difference was 0; it first shows at
        0 dB (-0.070 to +0.096 per record). The margin, 0.005, is less than
        one missed beat in these 60 s records."""
        for cond in Condition:
            rec, truth = condition_ecg(rate, cond, seed=11, duration_s=60.0)
            clean = rec.ecg.values
            noise = np.random.default_rng(11).normal(size=len(clean))
            for snr_db in (24.0, 12.0, 6.0):
                noise_sd = np.sqrt(np.ptp(clean) ** 2 / 8.0 / 10.0 ** (snr_db / 10.0))
                ecg = rec.ecg.replace_values(clean + noise_sd * noise)
                got = match_peaks_f1(detect_r_peaks(ecg).times_s, truth.r_peak_times_s)
                want = match_peaks_f1(detect_r_peaks_full_rate(ecg).times_s, truth.r_peak_times_s)
                assert got >= want - 0.005, (cond, snr_db, got, want)

    @pytest.mark.parametrize("shift", range(1, 8))
    def test_translation_equivariance_at_every_block_phase(self, shift):
        # shifts of 1-7 samples move the beats against the 8-sample blocks of the 2048 Hz scan;
        # every refined peak away from the ends moves by exactly the shift
        rate = 2048.0
        ecg, _ = synthetic_ecg(duration_s=60.0, jitter=20.0, seed=3, rate=rate)
        shifted = ecg.replace_values(np.concatenate([np.zeros(shift), ecg.values]))
        base = np.rint(detect_r_peaks(ecg).times_s * rate).astype(np.int64)
        moved = np.rint(detect_r_peaks(shifted).times_s * rate).astype(np.int64) - shift

        def inner(idx):
            return idx[(idx > 3.0 * rate) & (idx < 55.0 * rate)]

        assert len(inner(base)) > 45
        np.testing.assert_array_equal(inner(moved), inner(base))


class TestBeatsAtTheEnds:
    """A beat just inside either end of the record: its MWI maximum can fall
    on the record's first or last scan sample, which is a candidate when
    the MWI rises toward it; a refined maximum on the record's first or last
    sample is a QRS cut before its apex, and no beat. The record is
    subject 0's c2 at seed 4, 30 s."""

    LAST, FIRST = 27.619, 4.721  # the beats the record is cut after and before (s)

    def _record(self, rate):
        rec, truth = condition_ecg(rate, Condition.C2, 4)
        beats = truth.r_peak_times_s
        for beat in (self.LAST, self.FIRST):
            assert np.abs(beats - beat).min() < 1e-3
        return rec.ecg, beats

    def _cut(self, ecg, start_s, end_s):
        rate = ecg.rate_hz
        lo, hi = int(np.ceil(start_s * rate)), int(np.floor(end_s * rate)) + 1
        return UniformSeries(ecg.values[lo:hi], rate, start_s=lo / rate)

    @pytest.mark.parametrize("rate", [512.0, 1000.0, 2048.0])
    @pytest.mark.parametrize("cut_ms", [5, 10, 20, 30, 40, 50])
    def test_a_beat_just_inside_either_end_is_found(self, rate, cut_ms):
        ecg, _ = self._record(rate)
        ends = detect_r_peaks(self._cut(ecg, 0.0, self.LAST + cut_ms / 1000.0)).times_s
        assert abs(ends[-1] - self.LAST) <= 0.025
        starts = detect_r_peaks(self._cut(ecg, self.FIRST - cut_ms / 1000.0, 30.0)).times_s
        assert abs(starts[0] - self.FIRST) <= 0.025

    @pytest.mark.parametrize("rate", [512.0, 1000.0, 2048.0])
    def test_a_qrs_cut_before_its_apex_adds_no_peak(self, rate):
        """The noise-free record ends 2-40 ms before an R peak, on the QRS
        upslope, or starts 2-40 ms after one: the ECG maximum near the cut
        is the end sample, and the peaks are those of the beats inside."""
        spec = synthetic_condition_spec(0, Condition.C2, 30.0, seed=4, ecg_rate_hz=rate)
        rec, truth = generate_synthetic_recording(replace(spec, ecg_noise_sd=0.0))
        beats = truth.r_peak_times_s
        for beat in beats[(beats > 10.5) & (beats < 14.5)]:
            for cut_ms in (2, 5, 10, 20, 40):
                for start_s, end_s in ((0.0, beat - cut_ms / 1000.0), (beat + cut_ms / 1000.0, 30.0)):
                    got = detect_r_peaks(self._cut(rec.ecg, start_s, end_s)).times_s
                    inside = beats[(beats > start_s) & (beats < end_s)]
                    assert len(got) == len(inside), (beat, cut_ms, start_s)
                    assert np.abs(got - inside).max() <= 0.025

    @pytest.mark.parametrize("rate", [512.0, 1000.0, 2048.0])
    def test_every_peak_of_a_cut_record_is_a_beat(self, rate):
        """With the generator's ECG noise, a cut within about 12 ms of an
        apex can leave the maximum a sample or two inside the record, and
        the cut beat is then found there; every peak is still within 25 ms
        of a true beat, and every beat inside is found."""
        ecg, beats = self._record(rate)
        for beat in beats[(beats > 10.5) & (beats < 14.5)]:
            for cut_ms in (1, 2, 5, 10, 15, 20, 40):
                for start_s, end_s in ((0.0, beat - cut_ms / 1000.0), (beat + cut_ms / 1000.0, 30.0)):
                    got = detect_r_peaks(self._cut(ecg, start_s, end_s)).times_s
                    assert np.abs(got[:, None] - beats[None, :]).min(axis=1).max() <= 0.025
                    inside = beats[(beats > start_s) & (beats < end_s)]
                    assert np.abs(inside[:, None] - got[None, :]).min(axis=1).max() <= 0.025


class TestBuildIbi:
    def test_simple_arithmetic(self):
        ibi = build_ibi(PeakList(np.array([0.0, 0.8, 1.6, 2.4, 3.2])))
        assert np.allclose(ibi.ibis_ms, 800.0)
        assert ibi.valid.all()

    def test_short_artifact_spline_filled(self):
        times = np.concatenate([[0.0], np.cumsum([0.8] * 6 + [0.25] + [0.8] * 6)])
        ibi = build_ibi(PeakList(times))
        assert not ibi.valid[6]
        assert 700.0 <= ibi.ibis_ms[6] <= 900.0
        assert ibi.valid[[5, 7]].all()

    def test_missed_beat_interval_retained(self):
        times = np.concatenate([[0.0], np.cumsum([0.8] * 5 + [1.6] + [0.8] * 5)])
        ibi = build_ibi(PeakList(times))
        assert ibi.valid[5]
        assert ibi.ibis_ms[5] == pytest.approx(1600.0)

    def test_too_few_peaks_rejected(self):
        with pytest.raises(ValueError):
            build_ibi(PeakList(np.array([0.0, 0.8, 1.6, 2.4])))

    def test_valid_flag_never_out_of_range(self, rng):
        for _ in range(50):
            ibis = rng.uniform(0.2, 2.5, 30)
            times = np.concatenate([[0.0], np.cumsum(ibis)])
            try:
                out = build_ibi(PeakList(times))
            except ValueError:
                continue
            flagged = out.ibis_ms[out.valid]
            assert np.all((flagged >= IBI_MIN_MS) & (flagged <= IBI_MAX_MS))

    def test_resample_to_2hz(self):
        times = np.concatenate([[0.0], np.cumsum(np.full(100, 0.8))])
        series = ibi_to_uniform(build_ibi(PeakList(times)))
        assert series.rate_hz == 2.0
        assert np.abs(series.values - 800.0).max() < 1e-6


class TestHrvTime:
    def test_constant_window(self):
        out = hrv_time_features(np.full(120, 800.0))
        assert np.allclose(out, [800.0, 0.0, 0.0, 0.0, 0.0, 75.0, 0.0])

    def test_alternating_window(self):
        out = hrv_time_features(np.tile([800.0, 900.0], 60))
        assert out[0] == pytest.approx(850.0)
        assert out[1] == pytest.approx(50.0)
        assert out[2] == pytest.approx(100.0)
        assert out[3] == pytest.approx(100.0)
        assert out[4] == pytest.approx(0.0588, abs=1e-4)

    def test_matches_brute_force_reference(self, rng):
        for _ in range(25):
            w = rng.uniform(500.0, 1200.0, 120)
            mine = hrv_time_features(w)
            ref = brute_hrv_time(w)
            assert np.allclose(mine, ref, rtol=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            hrv_time_features(np.array([800.0, -1.0, 700.0]))


class TestHrvFrequency:
    def test_constant_window_all_zero(self):
        out = hrv_frequency_features(np.full(120, 800.0))
        assert np.allclose(out, 0.0)

    def test_lf_tone_dominates_lf(self):
        t = np.arange(120) / 2.0
        lf, hf, ratio, total = hrv_frequency_features(800.0 + 50.0 * np.sin(2 * np.pi * 0.1 * t))
        assert lf / total >= 0.9
        assert hf / total <= 0.1
        assert ratio > 1.0

    def test_hf_tone_dominates_hf(self):
        t = np.arange(120) / 2.0
        lf, hf, ratio, total = hrv_frequency_features(800.0 + 50.0 * np.sin(2 * np.pi * 0.3 * t))
        assert hf / total >= 0.9


class TestHrvNonlinear:
    def test_constant_window(self):
        assert np.allclose(hrv_nonlinear_features(np.full(120, 800.0)), 0.0)

    def test_alternating_equals_rmssd_identity(self):
        out = hrv_nonlinear_features(np.tile([800.0, 900.0], 60))
        assert out[0] == pytest.approx(100.0 / np.sqrt(2.0), rel=1e-12)

    def test_ramp_sd2_is_sd_of_sums(self):
        ramp = np.arange(700.0, 820.0)
        sd1, sd2, ratio = hrv_nonlinear_features(ramp)
        sums = (ramp[1:] + ramp[:-1]) / np.sqrt(2.0)
        assert sd2 == pytest.approx(float(np.std(sums)), rel=1e-12)
        # successive diffs constant at 1 ms -> RMS-form SD1 equals 1/sqrt(2)
        assert sd1 == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_identity_sd1_rmssd_on_fuzzed_windows(self, rng):
        for _ in range(1000):
            w = rng.uniform(400.0, 1500.0, 120)
            t7 = hrv_time_features(w)
            n3 = hrv_nonlinear_features(w)
            assert n3[0] == pytest.approx(t7[2] / np.sqrt(2.0), rel=1e-9)
            assert t7[4] == t7[1] / t7[0]

    def test_all_features_finite_on_fuzzed_windows(self, rng):
        for _ in range(200):
            vals = rng.uniform(350.0, 1800.0, 120)
            feats = hrv_features(vals)
            assert np.all(np.isfinite(feats))

    def test_hrv_features_is_time_frequency_nonlinear(self, rng):
        w = rng.uniform(600.0, 1100.0, 120)
        expected = np.concatenate([hrv_time_features(w), hrv_frequency_features(w), hrv_nonlinear_features(w)])
        assert np.array_equal(hrv_features(w), expected)
        assert len(expected) == len(HRV_FEATURE_NAMES)

    def test_matrix_equals_rows(self, rng):
        """One call on an (8, 120) window matrix gives, bit for bit, what
        eight one-window calls give (the band powers integrate a C-ordered
        copy of each band; a strided band is summed in another order)."""
        t = np.arange(120) / 2.0
        windows = 800.0 + 50.0 * np.sin(2 * np.pi * 0.1 * t) + rng.normal(0.0, 30.0, (8, 120))
        windows[3] = 800.0  # a constant window: both ratios take their zero branch
        assert np.array_equal(hrv_features(windows), np.stack([hrv_features(w) for w in windows]))


class TestNormalizePerSubject:
    def test_zscore_definition(self, rng):
        feats = rng.normal(5.0, 3.0, size=(40, 6))
        subjects = np.array(["a"] * 20 + ["b"] * 20)
        out = normalize_per_subject(feats, subjects)
        for s in ("a", "b"):
            rows = subjects == s
            assert np.abs(out[rows].mean(axis=0)).max() < 1e-9
            assert np.abs(out[rows].std(axis=0) - 1.0).max() < 1e-6

    def test_constant_column_maps_to_zero(self):
        feats = np.ones((10, 3))
        out = normalize_per_subject(feats, np.array(["a"] * 10))
        assert np.all(out == 0.0)

    def test_affinely_related_subjects_identical(self, rng):
        base = rng.normal(size=(15, 4))
        feats = np.vstack([base, 7.0 + 3.5 * base])
        subjects = np.array(["a"] * 15 + ["b"] * 15)
        out = normalize_per_subject(feats, subjects)
        assert np.allclose(out[:15], out[15:], atol=1e-9)

    def test_single_window_subject_rejected(self):
        with pytest.raises(ValueError):
            normalize_per_subject(np.ones((3, 2)), np.array(["a", "a", "b"]))
