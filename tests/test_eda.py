import tracemalloc

import numpy as np
import pytest

from capstate.dsp import UniformSeries
from capstate.eda import (
    EDA_FEATURE_NAMES,
    CvxEdaParams,
    LogTransform,
    _bspline3,
    _ReducedProblem,
    _tonic_basis,
    cvxeda_decompose,
    detect_scrs,
    eda_features,
    preprocess_eda,
)
from capstate.ingest import bateman_kernel
from capstate.pipeline import make_synthetic_recordings
from conftest import (
    criterion_5_traces,
    cvxeda_decompose_reference,
    cvxeda_decompose_unstacked,
    digests_by_blas_threads,
    sample_times,
    tonic_basis_by_column,
)


def bateman(amp, onset_s, n, rate=2.0):
    t_k = np.arange(0.0, 40.0, 1.0 / rate)
    k = bateman_kernel(t_k, 0.7, 2.0)
    k = k / k.max()
    out = np.zeros(n)
    i0 = int(round(onset_s * rate))
    seg = min(len(k), n - i0)
    out[i0 : i0 + seg] = amp * k[:seg]
    return out


class TestPreprocess:
    def test_constant_detrends_to_zero(self):
        x = UniformSeries(np.full(32 * 90, 5.0), 32.0)
        out = preprocess_eda(x)
        assert out.rate_hz == 2.0
        assert np.abs(out.values).max() < 1e-9

    def test_line_plus_slow_sine_recovered(self):
        t = np.arange(0, 300, 1 / 32.0)
        x = UniformSeries(2.0 + 0.01 * t + 0.5 * np.sin(2 * np.pi * 0.1 * t), 32.0)
        out = preprocess_eda(x)
        to = sample_times(out)
        lo, hi = len(to) // 4, 3 * len(to) // 4
        z = np.exp(-2j * np.pi * 0.1 * to[lo:hi])
        amp = 2.0 * abs(np.sum(out.values[lo:hi] * z)) / (hi - lo)
        assert amp == pytest.approx(0.5, rel=0.02)

    def test_fast_noise_attenuated_40db(self, rng):
        t = np.arange(0, 120, 1 / 32.0)
        burst = np.sin(2 * np.pi * 5.0 * t)
        out = preprocess_eda(UniformSeries(burst, 32.0))
        in_rms = np.sqrt(np.mean(burst**2))
        out_rms = np.sqrt(np.mean(out.values**2))
        assert out_rms <= in_rms * 10 ** (-40 / 20)

    def test_short_recording_rejected(self):
        with pytest.raises(ValueError):
            preprocess_eda(UniformSeries(np.zeros(32 * 30), 32.0))


class TestCvxEda:
    def test_zero_signal_zero_everything(self):
        dec = cvxeda_decompose(UniformSeries(np.zeros(100), 2.0))
        assert np.all(dec.driver.values == 0.0)
        assert np.abs(dec.tonic.values).max() < 1e-9
        assert dec.objective_trace[-1] == pytest.approx(0.0, abs=1e-15)

    def test_linear_drift_goes_to_tonic(self):
        t = np.arange(0, 120, 0.5)
        dec = cvxeda_decompose(UniformSeries(1.0 + 0.01 * t, 2.0))
        drift_range = 0.01 * 120
        assert np.abs(dec.phasic.values).max() < 0.01 * drift_range

    def test_single_pulse_recovery(self, rng):
        n = 240
        sig = np.full(n, 2.0) + bateman(1.0, 30.0, n) + rng.normal(0, 0.005, n)
        dec = cvxeda_decompose(UniformSeries(sig, 2.0))
        drv = dec.driver.values
        onset_idx = 60
        assert drv[onset_idx - 1 : onset_idx + 2].sum() / drv.sum() >= 0.8
        assert abs(int(np.argmax(drv)) - onset_idx) <= 1
        assert dec.phasic.values.max() == pytest.approx(1.0, rel=0.10)

    def test_objective_monotone_nonincreasing(self, rng):
        n = 300
        sig = 1.5 + bateman(0.6, 40.0, n) + bateman(0.4, 90.0, n) + rng.normal(0, 0.01, n)
        dec = cvxeda_decompose(UniformSeries(sig, 2.0))
        assert np.all(np.diff(dec.objective_trace) <= 1e-12)

    def test_reconstruction_identity(self, rng):
        n = 200
        sig = 2.0 + 0.002 * np.arange(n) + bateman(0.5, 20.0, n) + rng.normal(0, 0.01, n)
        dec = cvxeda_decompose(UniformSeries(sig, 2.0))
        recon = dec.tonic.values + dec.phasic.values + dec.residual.values
        assert np.abs(recon - sig).max() < 1e-6

    def test_driver_nonnegative(self, rng):
        n = 200
        sig = 1.0 + bateman(0.7, 30.0, n) + rng.normal(0, 0.02, n)
        dec = cvxeda_decompose(UniformSeries(sig, 2.0))
        assert dec.driver.values.min() >= -1e-9

    def test_scaling_equivariance(self, rng):
        n = 220
        sig = 1.2 + bateman(0.5, 25.0, n) + rng.normal(0, 0.004, n)
        k = 3.0
        base = CvxEdaParams()
        scaled = CvxEdaParams(alpha=base.alpha * k)
        d1 = cvxeda_decompose(UniformSeries(sig, 2.0), base)
        d2 = cvxeda_decompose(UniformSeries(k * sig, 2.0), scaled)
        assert np.allclose(d2.tonic.values, k * d1.tonic.values, atol=1e-8)
        assert np.allclose(d2.phasic.values, k * d1.phasic.values, atol=1e-8)
        assert np.allclose(d2.driver.values, k * d1.driver.values, atol=1e-8)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            cvxeda_decompose(UniformSeries(np.zeros(10), 2.0))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CvxEdaParams(tau0_s=2.0, tau1_s=0.7)
        with pytest.raises(ValueError):
            CvxEdaParams(alpha=0.0)


class TestTonicElimination:
    """The reduced problem against cvxEDA's tonic block written out in full:
    every spline whose support meets [0, t_end] extended by one more centre
    (zero on every sample), plus an offset and a normalized-time drift,
    solved by least squares."""

    def _stream(self, rng, n):
        x = 1.5 + 0.002 * np.arange(n) + rng.normal(0, 0.01, n)
        for onset in rng.uniform(0, n / 2.0 - 20, 3):
            x += bateman(rng.uniform(0.2, 0.9), onset, n)
        return x

    def _full_objective(self, x, r, prob, params):
        n, h = len(x), params.tonic_knot_spacing_s
        t = np.arange(n) / 2.0
        n_knots = int(np.ceil(t[-1] / h)) + 1
        splines = [_bspline3((t - c) / h) for c in np.arange(-1, n_knots + 2) * h]
        a = np.column_stack([*splines, np.ones(n), t / t[-1]])
        d2 = np.zeros((len(splines) - 2, a.shape[1]))
        d2[:, : len(splines)] = np.diff(np.eye(len(splines)), 2, axis=0)
        w = x - prob.forward(r)
        a_aug = np.vstack([a, np.sqrt(2.0 * params.gamma_tonic) * d2])
        z = np.linalg.lstsq(a_aug, np.concatenate([w, np.zeros(len(d2))]), rcond=None)[0]
        resid, curv = w - a @ z, d2 @ z
        return 0.5 * resid @ resid + params.gamma_tonic * curv @ curv + params.alpha * r.sum()

    @pytest.mark.parametrize("n,spacing_s", [(124, 1.0), (300, 10.0), (600, 1000.0)])
    def test_objective_matches_the_full_tonic_block(self, rng, n, spacing_s):
        x = self._stream(rng, n)
        params = CvxEdaParams(tonic_knot_spacing_s=spacing_s)
        prob = _ReducedProblem(x, 2.0, params)
        for _ in range(3):
            r = rng.exponential(0.05, n) * (rng.random(n) < 0.2)
            assert prob.objective(r, *prob.split(r)) == pytest.approx(self._full_objective(x, r, prob, params),
                                                                     rel=1e-10)

    @pytest.mark.parametrize("n,spacing_s", [(124, 1.0), (300, 10.0), (600, 1000.0)])
    def test_gradient_matches_central_differences(self, rng, n, spacing_s):
        x = self._stream(rng, n)
        params = CvxEdaParams(tonic_knot_spacing_s=spacing_s)
        prob = _ReducedProblem(x, 2.0, params)
        r = rng.exponential(0.05, n) * (rng.random(n) < 0.2)
        grad = prob.gradient(prob.split(r)[1])
        eps = 1e-3
        for i in rng.choice(n, 12, replace=False):
            step = np.zeros(n)
            step[i] = eps
            up, down = r + step, r - step
            fd = (prob.objective(up, *prob.split(up)) - prob.objective(down, *prob.split(down))) / (2.0 * eps)
            assert fd == pytest.approx(grad[i], abs=1e-7 * np.abs(grad).max())

    @pytest.mark.parametrize("n", [30, 47, 48, 49, 140, 600])
    def test_operators_are_the_convolution_and_its_transpose(self, rng, n):
        """``forward`` is the causal convolution with the kernel times dt,
        cut to the record, and ``adjoint`` its transpose: v . M r = r . M^T v.
        n runs across the 48-sample kernel's length."""
        prob = _ReducedProblem(1.0 + rng.normal(0, 0.01, n), 2.0, CvxEdaParams())
        r, v = rng.normal(size=n), rng.normal(size=n)
        kernel = bateman_kernel(np.arange(min(n, 48)) / 2.0, 0.7, 2.0)
        want = np.convolve(r, kernel)[:n] * 0.5
        assert np.abs(prob.forward(r) - want).max() <= 1e-14 * np.abs(want).max()
        assert v @ prob.forward(r) == pytest.approx(r @ prob.adjoint(v), rel=1e-12)

    @pytest.mark.parametrize("spacing_s", [1.0, 10.0, 1000.0])
    def test_split_is_affine_in_the_driver(self, rng, spacing_s):
        """The loop carries the extrapolated residual u(z) + beta (u(z) - u(r))
        in place of a split at y = z + beta (z - r); the two agree to
        rounding."""
        n = 300
        prob = _ReducedProblem(self._stream(rng, n), 2.0, CvxEdaParams(tonic_knot_spacing_s=spacing_s))
        r, z = (rng.exponential(0.05, n) * (rng.random(n) < 0.2) for _ in range(2))
        beta = 0.7
        (w_r, u_r), (w_z, u_z) = prob.split(r), prob.split(z)
        w_y, u_y = prob.split(z + beta * (z - r))
        assert np.abs(u_y - (u_z + beta * (u_z - u_r))).max() <= 1e-12 * np.abs(prob.x).max()
        assert np.abs(w_y - (w_z + beta * (w_z - w_r))).max() <= 1e-12 * np.abs(prob.x).max()

    # 5400 samples at 1 s spacing is left out: its 2703-column SVD takes
    # about 7 s, and at 1 s spacing the basis's condition number is the same
    # (4.2e2) from 140 samples up
    @pytest.mark.parametrize("n,spacing_s", [
        (n, spacing_s) for n in (30, 31, 121, 140, 200, 600, 1201, 5400)
        for spacing_s in (1.0, 3.3, 10.0, 45.0, 1000.0) if (n, spacing_s) != (5400, 1.0)
    ])
    def test_basis_has_full_column_rank(self, n, spacing_s):
        basis = _tonic_basis(n, 2.0, spacing_s)
        assert np.linalg.matrix_rank(basis) == basis.shape[1]

    @pytest.mark.parametrize("n", [30, 31, 140, 600, 1201])
    @pytest.mark.parametrize("spacing_s", [1.0, 3.3, 10.0, 45.0, 1000.0])
    def test_basis_on_the_grid_is_the_basis_by_column(self, n, spacing_s):
        """The splines evaluated once over the (n, k) grid give the bytes of
        the basis built one column at a time."""
        got, want = _tonic_basis(n, 2.0, spacing_s), tonic_basis_by_column(n, 2.0, spacing_s)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_long_slow_time_constant_allocates_only_the_record(self, rng):
        """The Bateman kernel spans 12 tau1 but is built only as far as the
        record reaches: at tau1 = 1e6 s a 140-sample record's reduced problem
        stays under 1 MiB traced (24e6 kernel samples would take 183 MiB)."""
        x = self._stream(rng, 140)
        tracemalloc.start()
        try:
            prob = _ReducedProblem(x, 2.0, CvxEdaParams(tau1_s=1e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"
        t = np.arange(140) / 2.0
        assert np.array_equal(prob.kernel, bateman_kernel(t, 0.7, 1e6) * 0.5)

    def test_decomposition_digest_independent_of_blas_threads(self):
        # holds up to 2400 samples; from 3600 samples (30 min at 2 Hz) the
        # LAPACK SVD behind np.linalg.pinv gives other bits on 2 threads
        script = (
            "import hashlib, numpy as np\n"
            "from capstate.dsp import UniformSeries\n"
            "from capstate.eda import cvxeda_decompose\n"
            "rng = np.random.default_rng(600)\n"
            "x = 2.0 + 0.3 * np.sin(np.linspace(0, 2 * np.pi, 600)) + np.abs(rng.normal(0, 0.05, 600)).cumsum() % 0.7\n"
            "d = cvxeda_decompose(UniformSeries(x, 2.0))\n"
            "print(*(hashlib.sha256(s.values.tobytes()).hexdigest() for s in (d.tonic, d.phasic, d.driver)))\n"
        )
        one, two = digests_by_blas_threads(script)
        assert len(one.split()) == 3 and one == two


def _sweep_stream(seed: int, n: int) -> np.ndarray:
    """A 2 Hz stream of ``n`` samples: a slow drift, three SCRs and noise."""
    rng = np.random.default_rng(seed)
    x = 1.5 + 0.002 * np.arange(n) + rng.normal(0, 0.01, n)
    for onset in rng.uniform(0, n / 2.0 - 20, 3):
        x += bateman(rng.uniform(0.2, 0.9), onset, n)
    return x


@pytest.fixture(scope="module")
def generator_streams() -> dict[str, UniformSeries]:
    """The criterion-7 generator's conditioned EDA: 4 subjects x 3
    conditions at 70 s and 3 x 3 at 300 s."""
    streams = {}
    for duration_s, n_subjects in ((70.0, 4), (300.0, 3)):
        for rec in make_synthetic_recordings(n_subjects, duration_s=duration_s, seed=42):
            streams[f"{rec.subject_id}-{rec.condition.value}-{duration_s:g}s"] = preprocess_eda(rec.eda)
    return streams


# of max|x|, over tonic, phasic and driver; the measured worst is 1.4e-14 on
# the generator streams, 4.8e-14 on the knot-spacing sweep and 1.6e-14 on
# criterion 5's traces, all 38 at the oracle's iteration counts
ORACLE_TOL = 1e-12


class TestCarriedResidual:
    """The loop that carries the split of the accepted iterate and the
    extrapolated residual, against the loop that ran a fresh split for the
    gradient at y and another for the objective at z (``conftest``'s
    oracle): the same iterations, and the same outputs to rounding."""

    def _assert_matches_oracle(self, series, params=CvxEdaParams()):
        got, want = cvxeda_decompose(series, params), cvxeda_decompose_reference(series, params)
        assert got.iterations == want.iterations
        scale = np.abs(series.values).max()
        for name in ("tonic", "phasic", "driver"):
            assert np.abs(getattr(got, name).values - getattr(want, name).values).max() <= ORACLE_TOL * scale, name

    def test_generator_streams_match_the_oracle(self, generator_streams):
        for series in generator_streams.values():
            self._assert_matches_oracle(series)

    @pytest.mark.parametrize("duration_s", [62, 150, 300])
    @pytest.mark.parametrize("spacing_s", [1.0, 3.3, 10.0, 45.0, 1000.0])
    def test_knot_spacing_sweep_matches_the_oracle(self, duration_s, spacing_s):
        series = UniformSeries(_sweep_stream(duration_s, 2 * duration_s), 2.0)
        self._assert_matches_oracle(series, CvxEdaParams(tonic_knot_spacing_s=spacing_s))

    def test_criterion_5_traces_match_the_oracle(self):
        (pulse, _), long_trace = criterion_5_traces()
        for values in (pulse, long_trace):
            self._assert_matches_oracle(UniformSeries(values, 2.0))

    def test_carried_split_is_the_split_of_the_result(self, generator_streams):
        """What the loop carried to its end is what a fresh split of the
        returned driver gives, and the last objective is the objective
        recomputed there. The stream restarts (a repeated trace value), so
        the reset of the extrapolated residual is exercised too."""
        series = generator_streams["sim01-c1-70s"]
        dec = cvxeda_decompose(series)
        assert np.any(np.diff(dec.objective_trace) == 0.0), "no restart on this stream"
        prob = _ReducedProblem(series.values, series.rate_hz, CvxEdaParams())
        r = dec.driver.values
        w, u = prob.split(r)
        scale = np.abs(series.values).max()
        for got, want in ((dec.residual.values, u), (dec.tonic.values, w - u), (dec.phasic.values, prob.x - w)):
            assert np.abs(got - want).max() <= 1e-12 * scale
        assert dec.objective_trace[-1] == pytest.approx(prob.objective(r, w, u), rel=1e-12)

    def test_one_forward_and_one_adjoint_per_iteration(self, generator_streams, monkeypatch):
        """``lipschitz`` runs 30 of each; the start point's split one forward;
        each iteration one forward (its split) and one adjoint (its
        gradient); each KKT check one adjoint."""
        calls = {"forward": 0, "adjoint": 0, "kkt_residual": 0}
        for name in calls:
            method = getattr(_ReducedProblem, name)

            def counted(self, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(_ReducedProblem, name, counted)
        dec = cvxeda_decompose(generator_streams["sim02-c2-70s"])
        assert calls["kkt_residual"] >= 2
        assert calls["forward"] == 30 + 1 + dec.iterations
        assert calls["adjoint"] == 30 + dec.iterations + calls["kkt_residual"]


class TestStackedBuffers:
    """The loop on three ``[driver | residual]`` buffers, against the loop
    that kept each point and its residual in separate arrays (``conftest``'s
    byte oracle): the same bytes in every output, the same iterations and
    the same KKT residual."""

    def _assert_same_bytes(self, series, params=CvxEdaParams()):
        got, want = cvxeda_decompose(series, params), cvxeda_decompose_unstacked(series, params)
        assert (got.iterations, got.kkt_residual) == (want.iterations, want.kkt_residual)
        assert got.objective_trace.tobytes() == want.objective_trace.tobytes()
        for name in ("tonic", "phasic", "driver", "residual"):
            assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes(), name
        return got

    def test_generator_streams(self, generator_streams):
        for series in generator_streams.values():
            self._assert_same_bytes(series)

    @pytest.mark.parametrize("duration_s", [62, 150, 300])
    @pytest.mark.parametrize("spacing_s", [1.0, 3.3, 10.0, 45.0, 1000.0])
    def test_knot_spacing_sweep(self, duration_s, spacing_s):
        series = UniformSeries(_sweep_stream(duration_s, 2 * duration_s), 2.0)
        self._assert_same_bytes(series, CvxEdaParams(tonic_knot_spacing_s=spacing_s))

    def test_criterion_5_traces(self):
        (pulse, _), long_trace = criterion_5_traces()
        for values in (pulse, long_trace):
            self._assert_same_bytes(UniformSeries(values, 2.0))

    def test_a_stream_that_restarts(self, generator_streams):
        """A restart copies the accepted buffer into the extrapolated one;
        the stream restarts (a repeated trace value) and still matches."""
        dec = self._assert_same_bytes(generator_streams["sim03-c3-70s"])
        assert np.any(np.diff(dec.objective_trace) == 0.0), "no restart on this stream"


class TestDetectScrs:
    def test_flat_empty(self):
        assert all(len(a) == 0 for a in detect_scrs(UniformSeries(np.zeros(100), 2.0)))

    def test_two_separated_pulses(self, rng):
        n = 480
        sig = np.full(n, 1.0) + bateman(0.5, 50.0, n) + bateman(0.8, 150.0, n) + rng.normal(0, 0.003, n)
        dec = cvxeda_decompose(UniformSeries(sig, 2.0))
        _, _, amplitudes = detect_scrs(dec.phasic)
        assert len(amplitudes) == 2
        assert amplitudes[0] == pytest.approx(0.5, rel=0.10)
        assert amplitudes[1] == pytest.approx(0.8, rel=0.10)

    def test_below_threshold_dropped(self):
        n = 200
        phasic = UniformSeries(bateman(0.005, 50.0, n), 2.0)
        assert all(len(a) == 0 for a in detect_scrs(phasic))

    def test_event_invariants_fuzzed(self, rng):
        for _ in range(30):
            n = 300
            sig = np.zeros(n)
            for onset in rng.uniform(5, 120, 4):
                sig += bateman(rng.uniform(0.02, 1.0), onset, n)
            onsets, peaks, amplitudes = detect_scrs(UniformSeries(sig, 2.0))
            assert len(onsets) == len(peaks) == len(amplitudes)
            assert np.all(np.diff(onsets) > 0)
            assert np.all(peaks > onsets)
            assert np.all(amplitudes >= 0.01)


def _scrs(*events):
    """The (onsets, peaks, amplitudes) arrays ``detect_scrs`` returns, from
    (onset_s, peak_s, amplitude_us) triples."""
    return tuple(np.array(events, dtype=float).reshape(-1, 3).T)


class TestEdaFeatures:
    def _rows(self, *windows):
        """(N, T) matrix of the given 1-D windows."""
        return np.array([np.asarray(w, dtype=float) for w in windows])

    def _named(self, raw, tonic, phasic, events, start=0.0):
        rows = (self._rows(raw), self._rows(tonic), self._rows(phasic))
        return dict(zip(EDA_FEATURE_NAMES, eda_features(*rows, _scrs(*events), [start])[0], strict=True))

    def test_constants_no_events(self):
        w = self._rows(np.full(120, 3.0))
        out = eda_features(w, w, self._rows(np.zeros(120)), _scrs(), [0.0])
        assert np.allclose(out, [[3, 0, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0]])

    def test_tonic_slope_and_range(self):
        t = np.arange(120) / 2.0
        out = self._named(np.full(120, 1.0), 0.1 * t, np.zeros(120), [])
        assert out["scl_slope"] == pytest.approx(0.1, rel=1e-9)
        assert out["scl_range"] == pytest.approx(0.1 * 119 / 2.0, rel=1e-9)

    def test_two_events_amplitude_stats(self):
        w = np.full(120, 1.0)
        phasic = bateman(0.5, 10.0, 120) + bateman(0.8, 40.0, 120)
        events = [(10.0, 11.0, 0.5), (40.0, 41.0, 0.8)]
        out = self._named(w, w, phasic, events)
        assert out["scr_amp_mean"] == pytest.approx(0.65)
        assert out["scr_count"] == 2
        assert out["scr_amp_sd"] == pytest.approx(0.15)
        assert out["scr_peak_mean"] > 0

    def test_events_assigned_by_onset(self):
        """Each window counts the events whose onset lies in [start, start + 60 s)."""
        w = self._rows(*([np.zeros(120)] * 3))
        events = _scrs((10.0, 11.0, 0.5), (50.0, 51.0, 0.3))
        out = eda_features(w, w, w, events, [0.0, 10.5, 100.0])
        assert out[:, EDA_FEATURE_NAMES.index("scr_count")].tolist() == [2, 1, 0]
        assert out[:, EDA_FEATURE_NAMES.index("scr_amp_mean")].tolist() == [0.4, 0.3, 0.0]

    def test_event_window_edges(self):
        """An onset at a window's start counts; one at start + duration
        belongs to the next window; a peak after the window's last sample
        reads that last sample."""
        phasic = np.arange(120) / 100.0
        start = 30.0
        at_start = (start, start + 1.0, 0.2)
        at_end = (start + 60.0, start + 61.0, 0.9)
        late_peak = (start + 59.0, start + 75.0, 0.4)
        out = self._named(np.zeros(120), np.zeros(120), phasic, [at_start, at_end], start)
        assert out["scr_count"] == 1 and out["scr_amp_mean"] == 0.2
        assert out["scr_peak_mean"] == phasic[2]
        out = self._named(np.zeros(120), np.zeros(120), phasic, [late_peak], start)
        assert out["scr_count"] == 1 and out["scr_peak_mean"] == phasic[-1]

    def test_misaligned_windows_rejected(self):
        a = self._rows(np.zeros(120))
        b = self._rows(np.zeros(119))
        with pytest.raises(ValueError):
            eda_features(a, b, a, _scrs(), [0.0])
        with pytest.raises(ValueError):
            eda_features(a, a, a, _scrs(), [0.0, 15.0])


class TestLogTransform:
    def test_low_cv_unchanged(self, rng):
        train = np.column_stack([rng.normal(10.0, 1.0, 200), rng.normal(1.0, 5.0, 200)])
        tr = LogTransform.fit(train)
        assert not tr.flags[0] and tr.flags[1]
        transformed = tr.apply(train)
        assert np.array_equal(transformed[:, 0], train[:, 0])
        assert not np.array_equal(transformed[:, 1], train[:, 1])

    def test_heldout_uses_training_flags_only(self, rng):
        train = np.column_stack([rng.normal(10.0, 1.0, 300), np.abs(rng.normal(0.2, 1.0, 300))])
        tr = LogTransform.fit(train)
        held = np.column_stack([rng.normal(10.0, 40.0, 50), np.abs(rng.normal(0.2, 0.01, 50))])
        tr2 = LogTransform.fit(np.vstack([train, held]))
        # flags decided by training windows only: recomputing with held-out
        # rows included may differ, but the applied transform must not
        out1 = tr.apply(held)
        assert tr.flags.tolist() == LogTransform.fit(train).flags.tolist()
        assert np.all(np.isfinite(out1))
        del tr2

    def test_heldout_below_training_min_stays_finite(self):
        train = np.random.default_rng(0).exponential(2.0, (200, 1)) + 0.5  # CV ~ 0.8+
        train[:20] *= 10.0
        tr = LogTransform.fit(train)
        assert tr.flags[0]
        held = np.array([[tr.shifts[0] - 5.0]])
        assert np.isfinite(tr.apply(held)).all()

    def test_cv_boundary(self):
        rng = np.random.default_rng(1)
        low = rng.normal(1.0, 0.2, (400, 1))   # CV ~ 0.2
        high = rng.normal(1.0, 2.0, (400, 1))  # CV ~ 2.0
        assert not LogTransform.fit(low).flags[0]
        assert LogTransform.fit(high).flags[0]
