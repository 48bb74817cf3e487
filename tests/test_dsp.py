import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capstate.dsp import (
    NaturalCubicSpline,
    UniformSeries,
    WindowingPlan,
    _IIR_BLOCK,
    _butter_sos,
    _sos_steady_zi,
    _sosfilt,
    butterworth_lowpass,
    detrend_linear,
    fft_radix2,
    resample_uniform,
    spline_fill,
    welch_psd,
)
from conftest import butterworth_power_response, digests_by_blas_threads, direct_periodogram, sosfilt_reference


def sine(f_hz, rate_hz, dur_s, amp=1.0, phase=0.0):
    t = np.arange(0, dur_s, 1.0 / rate_hz)
    return UniformSeries(amp * np.sin(2 * np.pi * f_hz * t + phase), rate_hz)


def measured_amplitude(x: UniformSeries, f_hz: float) -> float:
    """Amplitude at f via complex projection over the interior of the trace."""
    n = len(x.values)
    lo, hi = n // 4, 3 * n // 4
    seg = x.values[lo:hi]
    t = np.arange(lo, hi) / x.rate_hz
    z = np.exp(-2j * np.pi * f_hz * t)
    return 2.0 * abs(np.sum(seg * z)) / len(seg)


class TestButterworth:
    def test_dc_gain_exact(self):
        for order in (1, 2, 3, 4, 6):
            for cutoff in (0.5, 1.0, 5.0):
                x = UniformSeries(np.full(500, 3.7), 32.0)
                y = butterworth_lowpass(x, order, cutoff)
                assert np.abs(y.values - 3.7).max() < 1e-9

    def test_cutoff_magnitude_squares_to_half(self):
        # single-pass magnitude at the cutoff is 1/sqrt(2); forward-backward halves the power
        x = sine(1.0, 32.0, 120.0)
        y = butterworth_lowpass(x, 4, 1.0)
        amp = measured_amplitude(y, 1.0)
        assert amp == pytest.approx(0.5, rel=1e-3)

    def test_deep_stopband_attenuation(self):
        x = sine(8.0, 32.0, 120.0)
        y = butterworth_lowpass(x, 4, 1.0)
        assert np.abs(y.values[len(y.values) // 4 : -len(y.values) // 4]).max() <= 1e-7

    def test_matches_analytic_power_response_across_frequencies(self):
        # acceptance 3: forward-backward attenuation == |H|^2 within 5% at 10 frequencies
        rate = 32.0
        order, cutoff = 4, 1.0
        freqs = [0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0]
        for f in freqs:
            x = sine(f, rate, 240.0)
            y = butterworth_lowpass(x, order, cutoff)
            measured = measured_amplitude(y, f)
            expected = butterworth_power_response(f, cutoff, order, rate)
            assert measured == pytest.approx(expected, rel=0.05, abs=1e-9), f"f={f}"

    def test_cutoff_at_nyquist_rejected(self):
        x = sine(1.0, 32.0, 30.0)
        with pytest.raises(ValueError):
            butterworth_lowpass(x, 4, 16.0)
        with pytest.raises(ValueError):
            butterworth_lowpass(x, 0, 1.0)


IIR_CASES = [(4, 15.0, 2048.0, "lowpass"), (2, 5.0, 512.0, "highpass"), (3, 1.0, 32.0, "lowpass")]


# The ECG band-pass of cardiac.detect_r_peaks at the SWELL-KW rate.
ECG_BAND_SECTIONS = [(2, 5.0, 2048.0, "highpass"), (2, 15.0, 2048.0, "lowpass")]
# The block kernel sums each block's impulse response in another order than
# the per-sample recursion; measured deviation is <= 1e-13 of max|y|.
IIR_REL_TOL = 1e-12


class TestIirOracle:
    """The block IIR kernel against the per-sample DF2T recursion
    (``conftest.sosfilt_reference``) and scipy.signal (test-only oracles)."""

    @pytest.mark.parametrize("order,cutoff,rate,btype", IIR_CASES)
    def test_sosfilt_matches_scipy(self, rng, order, cutoff, rate, btype):
        signal = pytest.importorskip("scipy.signal")
        sos = _butter_sos(order, cutoff, rate, btype)
        x = rng.normal(size=4096) + np.sin(np.arange(4096) * 0.01)
        zi = rng.normal(size=(sos.shape[0], 2))
        want, _ = signal.sosfilt(sos, x, zi=zi)
        assert np.abs(_sosfilt(sos, x, zi) - want).max() <= 1e-12

    @pytest.mark.parametrize("order,cutoff,rate,btype", IIR_CASES)
    def test_sosfilt_matches_reference(self, rng, order, cutoff, rate, btype):
        sos = _butter_sos(order, cutoff, rate, btype)
        x = rng.normal(size=4096) + np.sin(np.arange(4096) * 0.01)
        zi = rng.normal(size=(sos.shape[0], 2))
        assert np.abs(_sosfilt(sos, x, zi) - sosfilt_reference(sos, x, zi)).max() <= 1e-12

    @pytest.mark.parametrize("order,cutoff,rate,btype", ECG_BAND_SECTIONS)
    def test_ecg_band_sections_match_reference(self, rng, order, cutoff, rate, btype):
        sos = _butter_sos(order, cutoff, rate, btype)
        n = 20 * 2048 + 77  # not a whole number of blocks
        x = rng.normal(size=n) + 5.0 * np.sin(2 * np.pi * 1.2 * np.arange(n) / rate)
        zi = rng.normal(size=(sos.shape[0], 2))
        want = sosfilt_reference(sos, x, zi)
        assert np.abs(_sosfilt(sos, x, zi) - want).max() <= IIR_REL_TOL * np.abs(want).max()

    @given(
        n=st.integers(1, 3 * _IIR_BLOCK + 7),
        case=st.sampled_from(IIR_CASES + ECG_BAND_SECTIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_length_matches_reference(self, n, case, seed):
        rng = np.random.default_rng(seed)
        sos = _butter_sos(*case)
        x = rng.normal(size=n)
        zi = rng.normal(size=(sos.shape[0], 2))
        got = _sosfilt(sos, x, zi)
        want = sosfilt_reference(sos, x, zi)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= IIR_REL_TOL * max(np.abs(want).max(), 1.0)

    def test_filtered_digest_independent_of_blas_threads(self):
        # neither the block GEMMs nor the band-pass line fit may depend on how BLAS splits them
        script = (
            "import hashlib, numpy as np\n"
            "from capstate.dsp import UniformSeries, _butter_sos, _sosfiltfilt, butterworth_bandpass\n"
            f"sos = np.vstack([_butter_sos(*case) for case in {ECG_BAND_SECTIONS!r}])\n"
            "x = np.random.default_rng(3).normal(size=60 * 2048)\n"
            "y = _sosfiltfilt(sos, x, pad_samples=1228)\n"
            "band = butterworth_bandpass(UniformSeries(x, 2048.0), 2, 5.0, 15.0).values\n"
            "print(hashlib.sha256(y.tobytes()).hexdigest(), hashlib.sha256(band.tobytes()).hexdigest())\n"
        )
        one, two = digests_by_blas_threads(script)
        assert len(one.split()) == 2 and one == two

    @pytest.mark.parametrize("order,cutoff,rate,btype", IIR_CASES)
    def test_steady_state_matches_scipy(self, order, cutoff, rate, btype):
        signal = pytest.importorskip("scipy.signal")
        sos = _butter_sos(order, cutoff, rate, btype)
        assert np.abs(_sos_steady_zi(sos) - signal.sosfilt_zi(sos)).max() <= 1e-12

    @pytest.mark.parametrize("order,cutoff,rate,btype", IIR_CASES)
    def test_design_response_matches_scipy(self, order, cutoff, rate, btype):
        signal = pytest.importorskip("scipy.signal")
        ours = _butter_sos(order, cutoff, rate, btype)
        ref = signal.butter(order, cutoff, btype=btype, fs=rate, output="sos")
        _, h_ours = signal.sosfreqz(ours, worN=512, fs=rate)
        _, h_ref = signal.sosfreqz(ref, worN=512, fs=rate)
        assert np.abs(h_ours - h_ref).max() <= 1e-12


class TestDetrend:
    def test_exact_line_to_zero(self):
        t = np.arange(200)
        x = UniformSeries(3.0 + 0.25 * t, 10.0)
        assert np.abs(detrend_linear(x).values).max() < 1e-9

    def test_zero_signal_stays_zero(self):
        x = UniformSeries(np.zeros(50), 10.0)
        assert np.abs(detrend_linear(x).values).max() == 0.0

    def test_matches_polyfit_oracle_on_line_plus_sine(self, rng):
        rate, dur = 32.0, 120.0  # 12 periods of the 0.1 Hz component
        t = np.arange(0, dur, 1.0 / rate)
        v = 2.0 + 0.01 * t + 0.5 * np.sin(2 * np.pi * 0.1 * t)
        out = detrend_linear(UniformSeries(v, rate)).values
        coef = np.polyfit(np.arange(len(v)), v, 1)
        expected = v - np.polyval(coef, np.arange(len(v)))
        assert np.abs(out - expected).max() < 1e-6
        # and the dominant content is the sinusoid
        assert measured_amplitude(UniformSeries(out, rate), 0.1) == pytest.approx(0.5, rel=0.05)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            detrend_linear(UniformSeries(np.array([1.0]), 10.0))

    def test_output_zero_mean_zero_slope(self, rng):
        v = rng.normal(size=500).cumsum()
        out = detrend_linear(UniformSeries(v, 10.0)).values
        n = len(out)
        tc = np.arange(n) - (n - 1) / 2.0
        assert abs(out.mean()) < 1e-9
        assert abs((tc @ out) / (tc @ tc)) < 1e-9


class TestResample:
    def test_constant_survives(self):
        x = UniformSeries(np.full(320, 5.0), 32.0)
        y = resample_uniform(x, 2.0)
        assert y.rate_hz == 2.0
        assert np.abs(y.values - 5.0).max() < 1e-9

    def test_ramp_pointwise_exact(self):
        x = UniformSeries(np.arange(320) / 32.0, 32.0)
        y = resample_uniform(x, 2.0)
        assert np.abs(y.values - y.times()).max() < 1e-9

    def test_slow_sine_error_below_one_percent(self):
        x = sine(0.1, 32.0, 300.0)
        y = resample_uniform(x, 2.0)
        ref = np.sin(2 * np.pi * 0.1 * y.times())
        interior = slice(10, -10)
        assert np.abs(y.values[interior] - ref[interior]).max() < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resample_uniform(UniformSeries(np.array([]), 32.0), 2.0)


class TestSpline:
    def test_cubic_polynomial_reproduced(self, rng):
        t = np.sort(rng.uniform(0, 10, 30))
        t[0], t[-1] = 0.0, 10.0
        v = 0.3 * t**3 - 2.0 * t**2 + t - 5.0
        # natural spline reproduces the cubic only between knots dense enough;
        # exactness holds at the knots regardless of boundary conditions
        s = NaturalCubicSpline(t, v)
        assert np.abs(s(t) - v).max() < 1e-8

    def test_grid_values_match_cubic_between_interior_knots(self):
        # natural end conditions distort only near the boundary; check interior
        t = np.linspace(0, 10, 51)
        v = t**3
        out = spline_fill(t, v, np.zeros(len(t), dtype=bool), grid_hz=20.0)
        tt = out.times()
        sel = (tt > 2.0) & (tt < 8.0)
        assert np.abs(out.values[sel] - tt[sel] ** 3).max() < 1e-2 * np.abs(tt[sel] ** 3).max()

    def test_masked_point_on_line_filled_on_line(self):
        t = np.linspace(0, 9, 10)
        v = 2.0 + 3.0 * t
        invalid = np.zeros(10, dtype=bool)
        invalid[4] = True
        v_corrupt = v.copy()
        v_corrupt[4] = 99.0
        s = NaturalCubicSpline(t[~invalid], v_corrupt[~invalid])
        assert abs(s(t[4]).item() - v[4]) < 1e-8

    def test_masked_gap_in_slow_sine_within_two_percent(self):
        t = np.linspace(0, 60, 121)
        v = np.sin(2 * np.pi * 0.05 * t)
        invalid = np.zeros(len(t), dtype=bool)
        invalid[60:63] = True
        out = spline_fill(t, v, invalid, grid_hz=2.0)
        ref = np.sin(2 * np.pi * 0.05 * out.times())
        assert np.abs(out.values - ref).max() < 0.02

    def test_too_few_valid_points_rejected(self):
        t = np.arange(5.0)
        invalid = np.array([False, False, True, True, False])
        with pytest.raises(ValueError):
            spline_fill(t, t, invalid, 2.0)

    def test_knot_interpolation_invariant(self, rng):
        t = np.sort(rng.uniform(0, 50, 40))
        t += np.arange(40) * 1e-6  # guard strict monotonicity
        v = rng.normal(size=40) * 100
        s = NaturalCubicSpline(t, v)
        assert np.abs(s(t) - v).max() < 1e-8


class TestFft:
    def test_matches_numpy_fft(self, rng):
        for n in (2, 8, 64, 256, 1024):
            a = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            assert np.abs(fft_radix2(a) - np.fft.fft(a, axis=-1)).max() < 1e-9 * n

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft_radix2(np.zeros(100))


class TestWelch:
    def test_constant_is_pure_dc(self):
        x = UniformSeries(np.full(512, 2.0), 2.0)
        spec = welch_psd(x, 128, 0.5)
        assert spec.power[0] > 0
        assert spec.power[1:].max() <= 1e-12 * spec.power[0]

    def test_white_noise_total_power_near_one(self, rng):
        x = UniformSeries(rng.standard_normal(8192), 2.0)
        spec = welch_psd(x, 256, 0.5)
        total = np.trapezoid(spec.power, spec.freqs_hz)
        assert abs(total - 1.0) < 0.2

    def test_tone_band_localization_against_direct_periodogram(self, rng):
        # 0.1 Hz tone, 2 Hz rate, 120 samples, segment 64, overlap 0.5
        x = sine(0.1, 2.0, 60.0)
        spec = welch_psd(x, 64, 0.5)
        in_band = (spec.freqs_hz >= 0.04) & (spec.freqs_hz <= 0.15)
        nondc = spec.freqs_hz > 0
        share = spec.power[in_band & nondc].sum() / spec.power[nondc].sum()
        assert share >= 0.9

    def test_two_tone_band_shares_match_oracle(self):
        rate = 2.0
        t = np.arange(0, 64.0, 1.0 / rate)
        v = np.sin(2 * np.pi * 0.1 * t) + 0.7 * np.sin(2 * np.pi * 0.3 * t)
        x = UniformSeries(v, rate)
        spec = welch_psd(x, len(v), 0.0)
        freqs_o, power_o = direct_periodogram(v, rate, 128)
        assert np.allclose(spec.freqs_hz, freqs_o)
        for lo, hi in ((0.04, 0.15), (0.15, 0.40)):
            sel = (spec.freqs_hz >= lo) & (spec.freqs_hz <= hi)
            mine = spec.power[sel].sum() / spec.power.sum()
            theirs = power_o[sel].sum() / power_o.sum()
            assert mine == pytest.approx(theirs, rel=0.10)

    def test_single_segment_equals_periodogram_bitwise(self, rng):
        v = rng.normal(size=128)
        x = UniformSeries(v, 2.0)
        spec = welch_psd(x, 128, 0.0)
        freqs_o, power_o = direct_periodogram(v, 2.0, 128)
        assert np.allclose(spec.power, power_o, rtol=1e-10, atol=1e-12)

    def test_segment_longer_than_signal_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(UniformSeries(np.zeros(64), 2.0), 128, 0.5)


class TestWindowing:
    def test_count_formula_240(self):
        assert WindowingPlan().starts(240).tolist() == [0, 30, 60, 90, 120]

    def test_boundaries(self):
        assert len(WindowingPlan().starts(120)) == 1
        assert len(WindowingPlan().starts(119)) == 0

    def test_forty_five_minutes_gives_177(self):
        assert len(WindowingPlan().starts(5400)) == 177

    def test_windows_tile_source_exactly(self):
        plan = WindowingPlan()
        starts = plan.starts(300)
        assert starts[0] == 0
        assert np.all(np.diff(starts) == plan.step_samples)
        # the last window ends inside the stream and one more step would not fit
        last_end = starts[-1] + plan.window_len_samples
        assert last_end <= 300 < last_end + plan.step_samples

    @given(
        n=st.integers(min_value=1, max_value=700),
        length=st.integers(min_value=2, max_value=200),
        overlap=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, n, length, overlap):
        assume(int(round(length * (1.0 - overlap))) >= 1)
        plan = WindowingPlan(window_len_samples=length, overlap_fraction=overlap)
        expected = 0 if n < length else (n - length) // plan.step_samples + 1
        assert len(plan.starts(n)) == expected

    def test_plan_invariants(self):
        with pytest.raises(ValueError):
            WindowingPlan(overlap_fraction=1.0)
        assert WindowingPlan().step_samples == 30
