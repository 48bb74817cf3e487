"""Electrodermal chain: conditioning, convex tonic/phasic decomposition,
SCR event detection, and the 12 EDA features.

The decomposition solves

    min_{r >= 0, c, d}  0.5 ||x - (M r + B c + U d)||^2
                        + alpha * ||r||_1 + gamma * ||D2 c||^2

where M convolves the nonnegative neural driver r with a Bateman kernel,
B is a uniform cubic B-spline basis for the tonic level, U an affine drift
term, and D2 the second-difference curvature penalty. The tonic block is
eliminated exactly through a precomputed pseudoinverse, and the reduced
problem in r is solved by monotone FISTA (projection + soft-threshold), so
the objective trace is non-increasing by construction.

Conditioning resamples to ``dsp.GRID_HZ``. SCR detection counts a rise from
above ``SCR_NOISE_FLOOR_US`` and keeps events of at least
``SCR_MIN_AMPLITUDE_US``; the log transform flags a feature whose training
coefficient of variation exceeds ``LOG_CV_THRESHOLD``.
"""

from dataclasses import dataclass, field

import numpy as np

from .dsp import GRID_HZ, UniformSeries, butterworth_lowpass, detrend_linear, linear_fit, resample_uniform
from .errors import NumericalError
from .ingest import bateman_kernel


SCR_MIN_AMPLITUDE_US = 0.01
SCR_NOISE_FLOOR_US = 1e-4
LOG_CV_THRESHOLD = 0.8


@dataclass(frozen=True)
class CvxEdaParams:
    tau0_s: float = 0.7  # fast Bateman time constant
    tau1_s: float = 2.0  # slow Bateman time constant
    alpha: float = 8e-4  # driver sparsity weight
    gamma_tonic: float = 1e-2  # tonic curvature weight
    tonic_knot_spacing_s: float = 10.0
    max_iters: int = 20000
    tol_objective: float = 1e-8  # relative objective change
    tol_kkt: float = 1e-6

    def __post_init__(self):
        if not (self.tau1_s > self.tau0_s > 0):
            raise ValueError("tau1_s must exceed tau0_s, and tau0_s must be > 0")
        for name in ("alpha", "gamma_tonic", "tonic_knot_spacing_s", "tol_objective", "tol_kkt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class EdaDecomposition:
    tonic: UniformSeries
    phasic: UniformSeries
    driver: UniformSeries  # uS/s, nonnegative
    residual: UniformSeries
    objective_trace: np.ndarray = field(repr=False, default=None)
    kkt_residual: float = float("nan")
    iterations: int = 0


@dataclass(frozen=True)
class ScrEvent:
    onset_s: float
    peak_s: float
    amplitude_us: float

    def __post_init__(self):
        if self.peak_s <= self.onset_s:
            raise ValueError("peak must come after onset")


EDA_FEATURE_NAMES = [
    "raw_mean",
    "raw_sd",
    "raw_min",
    "raw_max",
    "scl_mean",
    "scl_sd",
    "scl_slope",
    "scl_range",
    "scr_amp_mean",
    "scr_amp_sd",
    "scr_count",
    "scr_peak_mean",
]


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


MIN_DURATION_S = 60.0


def preprocess_eda(raw: UniformSeries) -> UniformSeries:
    """Detrend -> 4th-order 1 Hz Butterworth low-pass -> resample to ``GRID_HZ``."""
    if raw.duration_s < MIN_DURATION_S:
        raise ValueError(f"EDA recording shorter than {MIN_DURATION_S:g} s")
    return resample_uniform(butterworth_lowpass(detrend_linear(raw), 4, 1.0), GRID_HZ)


# ---------------------------------------------------------------------------
# Convex decomposition
# ---------------------------------------------------------------------------


def _bspline3(u: np.ndarray) -> np.ndarray:
    au = np.abs(u)
    out = np.zeros_like(au)
    inner = au <= 1.0
    outer = (au > 1.0) & (au < 2.0)
    out[inner] = 2.0 / 3.0 - au[inner] ** 2 + au[inner] ** 3 / 2.0
    out[outer] = (2.0 - au[outer]) ** 3 / 6.0
    return out


def _tonic_basis(n: int, rate_hz: float, knot_spacing_s: float) -> np.ndarray:
    """Columns: uniform cubic B-splines covering the record, plus offset and
    normalized-time drift."""
    t = np.arange(n) / rate_hz
    span = t[-1] if n > 1 else 1.0
    n_knots = int(np.ceil(span / knot_spacing_s)) + 1
    centers = np.arange(-1, n_knots + 2) * knot_spacing_s
    cols = [_bspline3((t - c) / knot_spacing_s) for c in centers]
    cols.append(np.ones(n))
    cols.append(t / max(span, 1.0))
    return np.column_stack(cols)


def _second_difference(m: int) -> np.ndarray:
    if m < 3:
        return np.zeros((0, m))
    d2 = np.zeros((m - 2, m))
    for i in range(m - 2):
        d2[i, i : i + 3] = (1.0, -2.0, 1.0)
    return d2


class _ReducedProblem:
    """Smooth part of the objective after exact elimination of the tonic block."""

    def __init__(self, x: np.ndarray, rate_hz: float, params: CvxEdaParams):
        self.x = x
        self.n = len(x)
        self.dt = 1.0 / rate_hz
        t_k = np.arange(0.0, 12.0 * params.tau1_s, self.dt)
        kernel = bateman_kernel(t_k, params.tau0_s, params.tau1_s)
        self.kernel = kernel[: self.n]
        self.alpha = params.alpha

        basis = _tonic_basis(self.n, rate_hz, params.tonic_knot_spacing_s)
        n_spline = basis.shape[1] - 2
        d2 = np.zeros((max(n_spline - 2, 0), basis.shape[1]))
        d2[:, :n_spline] = _second_difference(n_spline)
        a_aug = np.vstack([basis, np.sqrt(2.0 * params.gamma_tonic) * d2])
        self.basis = basis
        self.d2 = d2
        pinv = np.linalg.pinv(a_aug, rcond=1e-10)
        self.p1 = pinv[:, : self.n]  # maps (x - M r) to the optimal tonic coefficients
        self.gamma = params.gamma_tonic

    def apply_m(self, r: np.ndarray) -> np.ndarray:
        return np.convolve(r, self.kernel)[: self.n] * self.dt

    def apply_mt(self, v: np.ndarray) -> np.ndarray:
        return np.convolve(v[::-1], self.kernel)[: self.n][::-1] * self.dt

    def tonic_fit(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = self.p1 @ (self.x - self.apply_m(r))
        return self.basis @ z, z

    def objective(self, r: np.ndarray) -> float:
        tonic, z = self.tonic_fit(r)
        resid = self.x - self.apply_m(r) - tonic
        curv = self.d2 @ z
        return float(0.5 * resid @ resid + self.gamma * curv @ curv + self.alpha * r.sum())

    def smooth_grad(self, r: np.ndarray) -> np.ndarray:
        """Gradient of the eliminated smooth part at r."""
        w = self.x - self.apply_m(r)
        z = self.p1 @ w
        u1 = w - self.basis @ z
        u2 = self.d2 @ z
        back = u1 - self.p1.T @ (self.basis.T @ u1) + 2.0 * self.gamma * (self.p1.T @ (self.d2.T @ u2))
        return -self.apply_mt(back)

    def lipschitz(self) -> float:
        rng = np.random.default_rng(0)
        v = rng.normal(size=self.n)
        v /= np.linalg.norm(v)
        lam = 1.0
        for _ in range(30):
            w = self.apply_mt(self.apply_m(v))
            lam = np.linalg.norm(w)
            if lam == 0.0:
                return 1.0
            v = w / lam
        return float(lam) * 1.05

    def kkt_residual(self, r: np.ndarray) -> float:
        g = self.smooth_grad(r) + self.alpha
        active = r > 1e-12
        res_active = np.abs(g[active]).max() if active.any() else 0.0
        res_bound = np.maximum(-g[~active], 0.0).max() if (~active).any() else 0.0
        return float(max(res_active, res_bound))


def cvxeda_decompose(x: UniformSeries, params: CvxEdaParams = CvxEdaParams()) -> EdaDecomposition:
    """Tonic/phasic split by monotone proximal iterations on the driver.

    Raises :class:`NumericalError` with the final KKT residual when neither
    the relative-objective nor the KKT tolerance is met within ``max_iters``.
    """
    if len(x.values) < 30:
        raise ValueError("decomposition needs at least 30 samples")
    prob = _ReducedProblem(np.asarray(x.values, dtype=np.float64), x.rate_hz, params)
    step = 1.0 / prob.lipschitz()

    r = np.zeros(prob.n)
    y = r.copy()
    t_momentum = 1.0
    f_curr = prob.objective(r)
    trace = [f_curr]
    kkt = prob.kkt_residual(r)
    converged = kkt < params.tol_kkt
    iters = 0

    while not converged and iters < params.max_iters:
        iters += 1
        z = np.maximum(y - step * (prob.smooth_grad(y) + params.alpha), 0.0)
        f_z = prob.objective(z)
        if f_z <= f_curr:
            rel = (f_curr - f_z) / max(abs(f_curr), 1e-15)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            y = z + ((t_momentum - 1.0) / t_next) * (z - r)
            r, t_momentum = z, t_next
            f_curr = f_z
            # the relative-change criterion only counts genuine descent steps
            if rel < params.tol_objective or iters % 25 == 0:
                kkt = prob.kkt_residual(r)
                converged = kkt < params.tol_kkt or rel < params.tol_objective
        else:
            # overshoot from momentum: restart so the next step is plain
            # proximal descent from the current iterate (guaranteed decrease)
            t_momentum = 1.0
            y = r.copy()
        trace.append(f_curr)

    if not converged:
        kkt = prob.kkt_residual(r)
        raise NumericalError(
            f"cvxeda_decompose: no convergence in {params.max_iters} iterations "
            f"(KKT residual {kkt:.3e})"
        )

    tonic_vals, _ = prob.tonic_fit(r)
    phasic_vals = prob.apply_m(r)
    residual_vals = prob.x - tonic_vals - phasic_vals
    return EdaDecomposition(
        tonic=x.replace_values(tonic_vals),
        phasic=x.replace_values(phasic_vals),
        driver=x.replace_values(r),
        residual=x.replace_values(residual_vals),
        objective_trace=np.asarray(trace),
        kkt_residual=kkt,
        iterations=iters,
    )


# ---------------------------------------------------------------------------
# SCR events
# ---------------------------------------------------------------------------


def detect_scrs(phasic: UniformSeries) -> list[ScrEvent]:
    """SCR events from the phasic trace.

    An event onset is an upward crossing of ``SCR_NOISE_FLOOR_US``; within one
    supra-floor excursion, compound responses are split at interior local
    minima (each subsequent rise gets the local minimum as its onset). The
    peak is the next local maximum, the amplitude is peak minus onset value,
    and events below ``SCR_MIN_AMPLITUDE_US`` are dropped.
    """
    v = phasic.values
    floor = SCR_NOISE_FLOOR_US
    n = len(v)
    events = []

    def emit(onset: int, peak: int):
        amp = v[peak] - v[onset]
        if peak > onset and amp >= SCR_MIN_AMPLITUDE_US:
            events.append(
                ScrEvent(
                    onset_s=phasic.start_s + onset / phasic.rate_hz,
                    peak_s=phasic.start_s + peak / phasic.rate_hz,
                    amplitude_us=float(amp),
                )
            )

    i = 1
    while i < n:
        if not (v[i] > floor and v[i - 1] <= floor):
            i += 1
            continue
        onset = i - 1
        j = i
        while j < n and v[j] > floor:
            # climb to the next local maximum
            while j + 1 < n and v[j + 1] >= v[j]:
                j += 1
            peak = j
            # descend to the next local minimum (or below the floor)
            while j + 1 < n and v[j + 1] < v[j] and v[j + 1] > floor:
                j += 1
            emit(onset, peak)
            if j + 1 >= n or v[j + 1] <= floor:
                j += 1
                break
            onset = j  # interior local minimum starts the next compound rise
        i = max(j, i) + 1
    return events


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


def eda_features(
    window_raw: UniformSeries,
    window_tonic: UniformSeries,
    window_phasic: UniformSeries,
    events_in_window: list[ScrEvent],
) -> np.ndarray:
    """The 12 EDA features for aligned raw/tonic/phasic windows, in
    ``EDA_FEATURE_NAMES`` order."""
    for other in (window_tonic, window_phasic):
        if len(other.values) != len(window_raw.values) or other.rate_hz != window_raw.rate_hz:
            raise ValueError("raw/tonic/phasic windows are misaligned")
        if abs(other.start_s - window_raw.start_s) > 0.5 / window_raw.rate_hz:
            raise ValueError("raw/tonic/phasic windows are misaligned")

    raw = window_raw.values
    scl = window_tonic.values

    amps = np.array([e.amplitude_us for e in events_in_window])
    if len(events_in_window):
        idx = np.clip(
            np.round((np.array([e.peak_s for e in events_in_window]) - window_phasic.start_s) * window_phasic.rate_hz).astype(int),
            0,
            len(window_phasic.values) - 1,
        )
        peak_mean = float(window_phasic.values[idx].mean())
    else:
        peak_mean = 0.0

    return np.array([
        raw.mean(),
        raw.std(),
        raw.min(),
        raw.max(),
        scl.mean(),
        scl.std(),
        linear_fit(scl)[2] * window_raw.rate_hz,  # SCL slope in uS per second
        scl.max() - scl.min(),
        amps.mean() if len(amps) else 0.0,
        amps.std() if len(amps) else 0.0,
        len(amps),
        peak_mean,
    ], dtype=float)


def events_in_window(events: list[ScrEvent], start_s: float, duration_s: float) -> list[ScrEvent]:
    """Window a global event list by onset time: start_s <= onset < start_s + duration."""
    return [e for e in events if start_s <= e.onset_s < start_s + duration_s]


# ---------------------------------------------------------------------------
# CV-gated log transform (fit on training windows, applied everywhere)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogTransform:
    """Per-dimension ln(1 + x - min_train) for dimensions whose training CV
    exceeds ``LOG_CV_THRESHOLD``. The argument is clamped at 1e-12 so held-out
    values below the training minimum stay finite."""

    flags: np.ndarray
    shifts: np.ndarray

    @classmethod
    def fit(cls, train_features: np.ndarray) -> "LogTransform":
        f = np.asarray(train_features, dtype=np.float64)
        mu = f.mean(axis=0)
        sd = f.std(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cv = np.where(np.abs(mu) > 0, sd / np.abs(mu), np.where(sd > 0, np.inf, 0.0))
        return cls(flags=cv > LOG_CV_THRESHOLD, shifts=f.min(axis=0))

    def apply(self, features: np.ndarray) -> np.ndarray:
        f = np.asarray(features, dtype=np.float64).copy()
        for j in np.nonzero(self.flags)[0]:
            f[:, j] = np.log(np.maximum(1.0 + f[:, j] - self.shifts[j], 1e-12))
        return f
