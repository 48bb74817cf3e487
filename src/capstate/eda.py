"""Electrodermal chain: conditioning, convex tonic/phasic decomposition,
SCR event detection, and the 12 EDA features.

The decomposition solves

    min_{r >= 0, z}  0.5 ||x - (M r + B z)||^2
                     + alpha * ||r||_1 + gamma * ||D2 z||^2

where M convolves the nonnegative neural driver r with a Bateman kernel,
B is a uniform cubic B-spline basis for the tonic level, and D2 the
second-difference curvature penalty. cvxEDA's affine drift term U d is
left out: on the record the splines sum to 1 and reproduce t, so they
already span it, and D2 does not charge it. The tonic block is eliminated
exactly through a precomputed pseudoinverse, and the reduced problem in r
is solved by monotone FISTA (projection + soft-threshold), so the
objective trace is non-increasing by construction.

Conditioning resamples to ``dsp.GRID_HZ``. SCR detection counts a rise from
above ``SCR_NOISE_FLOOR_US`` and keeps events of at least
``SCR_MIN_AMPLITUDE_US``; the log transform flags a feature whose training
coefficient of variation exceeds ``LOG_CV_THRESHOLD``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import GRID_HZ, UniformSeries, butterworth_lowpass, detrend_linear, linear_fit, resample_uniform
from .errors import NumericalError
from .ingest import bateman_kernel


SCR_MIN_AMPLITUDE_US = 0.01
SCR_NOISE_FLOOR_US = 1e-4
LOG_CV_THRESHOLD = 0.8
# Two steps of the 2 Hz grid, where the tonic basis has about half as many
# columns as the record has samples. Below one step it has more columns than
# samples, and its pseudoinverse can exhaust memory.
MIN_TONIC_KNOT_SPACING_S = 2.0 / GRID_HZ


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
        if self.tonic_knot_spacing_s < MIN_TONIC_KNOT_SPACING_S:
            raise ValueError(f"tonic_knot_spacing_s must be >= {MIN_TONIC_KNOT_SPACING_S:g} s")
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
    """Columns: the uniform cubic B-splines that are nonzero on the record.
    They have full column rank."""
    t = np.arange(n) / rate_hz
    n_knots = int(np.ceil(t[-1] / knot_spacing_s)) + 1
    centers = np.arange(-1, n_knots + 1) * knot_spacing_s
    return np.column_stack([_bspline3((t - c) / knot_spacing_s) for c in centers])


class _ReducedProblem:
    """Smooth part of the objective after exact elimination of the tonic block."""

    def __init__(self, x: np.ndarray, rate_hz: float, params: CvxEdaParams):
        self.x = x
        self.n = len(x)
        self.dt = 1.0 / rate_hz
        # the kernel spans 12 tau1, cut to the record: only the samples a convolution reads
        m = min(self.n, math.ceil(12.0 * params.tau1_s / self.dt))
        self.kernel = bateman_kernel(np.arange(m) * self.dt, params.tau0_s, params.tau1_s)
        self.alpha = params.alpha

        self.basis = _tonic_basis(self.n, rate_hz, params.tonic_knot_spacing_s)
        d2 = np.diff(np.eye(self.basis.shape[1]), 2, axis=0)
        # pinv's rcond, not a normal-equations solve: at wide knot spacings
        # the splines are nearly collinear, and the normal matrix would
        # square their condition number
        pinv = np.linalg.pinv(np.vstack([self.basis, np.sqrt(2.0 * params.gamma_tonic) * d2]), rcond=1e-10)
        self.p1 = pinv[:, : self.n]  # maps (x - M r) to the optimal tonic coefficients

    def apply_m(self, r: np.ndarray) -> np.ndarray:
        return np.convolve(r, self.kernel)[: self.n] * self.dt

    def apply_mt(self, v: np.ndarray) -> np.ndarray:
        return np.convolve(v[::-1], self.kernel)[: self.n][::-1] * self.dt

    def split(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w = x - M r, what the tonic block fits for driver r, and the
        residual u = w - B z its optimal coefficients z leave. The normal
        equations give B^T u = 2 gamma D2^T D2 z, so w . u is
        ||u||^2 + 2 gamma ||D2 z||^2."""
        w = self.x - self.apply_m(r)
        return w, w - self.basis @ (self.p1 @ w)

    def objective(self, r: np.ndarray) -> float:
        w, u = self.split(r)
        return float(0.5 * w @ u + self.alpha * r.sum())

    def smooth_grad(self, r: np.ndarray) -> np.ndarray:
        """Gradient of the eliminated smooth part at r: -M^T u, since z is
        optimal for every r (the envelope theorem)."""
        return -self.apply_mt(self.split(r)[1])

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

    w, u = prob.split(r)
    return EdaDecomposition(
        tonic=x.replace_values(w - u),
        phasic=x.replace_values(prob.x - w),
        driver=x.replace_values(r),
        residual=x.replace_values(u),
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
    raw: np.ndarray,
    tonic: np.ndarray,
    phasic: np.ndarray,
    events: list[ScrEvent],
    starts_s: np.ndarray,
) -> np.ndarray:
    """The 12 EDA features, in ``EDA_FEATURE_NAMES`` order, of each row of
    the aligned (N, T) ``GRID_HZ`` window matrices; row k starts at
    ``starts_s[k]``. An SCR event belongs to window k when
    ``starts_s[k] <= onset < starts_s[k] + T / GRID_HZ``."""
    starts_s = np.asarray(starts_s, dtype=np.float64)
    if raw.ndim != 2 or not raw.shape == tonic.shape == phasic.shape or starts_s.shape != raw.shape[:1]:
        raise ValueError("raw/tonic/phasic windows and their starts are misaligned")
    n_samples = raw.shape[1]

    onsets = np.array([e.onset_s for e in events])
    peaks = np.array([e.peak_s for e in events])
    amplitudes = np.array([e.amplitude_us for e in events])
    member = (starts_s[:, None] <= onsets) & (onsets < starts_s[:, None] + n_samples / GRID_HZ)  # (N, events)
    scr = np.zeros((len(raw), 4))  # amplitude mean and SD, count, phasic level at the peaks
    for k in np.nonzero(member.any(axis=1))[0]:
        amps = amplitudes[member[k]]
        idx = np.clip(np.round((peaks[member[k]] - starts_s[k]) * GRID_HZ).astype(int), 0, n_samples - 1)
        scr[k] = amps.mean(), amps.std(), len(amps), phasic[k, idx].mean()

    scl_slope = linear_fit(tonic)[2] * GRID_HZ  # uS per second
    return np.column_stack([
        raw.mean(axis=1), raw.std(axis=1), raw.min(axis=1), raw.max(axis=1),
        tonic.mean(axis=1), tonic.std(axis=1), scl_slope, tonic.max(axis=1) - tonic.min(axis=1),
        scr,
    ])


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
