"""Cardiac chain: ECG -> R peaks -> corrected IBI series -> HRV features.

The R-peak detector follows the classic Pan-Tompkins stages (band-pass,
derivative, squaring, moving-window integration, adaptive dual threshold with
refractory and search-back), with the final peak time refined to the local ECG
maximum.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import (
    NaturalCubicSpline,
    Spectrum,
    UniformSeries,
    _next_pow2,
    band_power,
    butterworth_bandpass,
    spline_fill,
    welch_psd,
)

IBI_MIN_MS = 300.0
IBI_MAX_MS = 2000.0

LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)
TOTAL_BAND = (0.0033, 0.40)

HRV_FEATURE_NAMES = [
    "mean_ibi_ms",
    "sdnn_ms",
    "rmssd_ms",
    "pnn50_pct",
    "cv",
    "mean_hr_bpm",
    "sd_hr_bpm",
    "lf_power",
    "hf_power",
    "lf_hf_ratio",
    "total_power",
    "sd1_ms",
    "sd2_ms",
    "sd1_sd2_ratio",
]


@dataclass(frozen=True)
class PeakList:
    times_s: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times_s, dtype=np.float64)
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("peak times must be strictly increasing")
        object.__setattr__(self, "times_s", times)

    def __len__(self):
        return len(self.times_s)


@dataclass(frozen=True)
class IbiSeries:
    """Successive beat intervals in ms. ``ibis_ms`` holds corrected values;
    ``valid`` flags which entries passed the physiological range gate before
    correction."""

    beat_times_s: np.ndarray
    ibis_ms: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if len(self.ibis_ms) != len(self.beat_times_s) - 1:
            raise ValueError("ibis length must be number of beats - 1")


# ---------------------------------------------------------------------------
# Pan-Tompkins R-peak detection
# ---------------------------------------------------------------------------


def _pt_scan_loop(cand_idx, cand_val, refr_samples, spki0, npki0):
    """Adaptive dual-threshold scan over MWI local maxima with 200 ms
    refractory and RR-based search-back. Returns accepted candidate indices."""
    m = cand_idx.shape[0]
    accepted = np.empty(m, np.int64)
    n_acc = 0
    spki = spki0
    npki = npki0
    rr = np.zeros(8)
    n_rr = 0
    last_t = -1.0e18
    # best noise-classified candidate since the last accepted QRS
    sb_idx = -1
    sb_val = 0.0
    for i in range(m):
        t = float(cand_idx[i])
        v = cand_val[i]
        th1 = npki + 0.25 * (spki - npki)
        th2 = 0.5 * th1
        if n_rr >= 2 and n_acc > 0:
            cnt = 8 if n_rr > 8 else n_rr
            rr_avg = 0.0
            for k in range(cnt):
                rr_avg += rr[k]
            rr_avg /= cnt
            if (t - last_t) > 1.66 * rr_avg and sb_idx >= 0 and sb_val > th2:
                accepted[n_acc] = sb_idx
                n_acc += 1
                spki = 0.25 * sb_val + 0.75 * spki
                rr[(n_rr % 8)] = float(sb_idx) - last_t
                n_rr += 1
                last_t = float(sb_idx)
                sb_idx = -1
                sb_val = 0.0
                th1 = npki + 0.25 * (spki - npki)
        if t - last_t < refr_samples:
            continue
        if v > th1:
            accepted[n_acc] = cand_idx[i]
            n_acc += 1
            spki = 0.125 * v + 0.875 * spki
            if last_t > -1.0e17:
                rr[(n_rr % 8)] = t - last_t
                n_rr += 1
            last_t = t
            sb_idx = -1
            sb_val = 0.0
        else:
            npki = 0.125 * v + 0.875 * npki
            if v > sb_val:
                sb_val = v
                sb_idx = cand_idx[i]
    return accepted[:n_acc]


def _moving_window_integral(x: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average via cumulative sums."""
    n = len(x)
    c = np.concatenate(([0.0], np.cumsum(x)))
    lo = np.clip(np.arange(n) - half_width, 0, n)
    hi = np.clip(np.arange(n) + half_width + 1, 0, n)
    return (c[hi] - c[lo]) / (hi - lo)


def _centered_running_max(x: np.ndarray, half_width: int) -> np.ndarray:
    """``max(x[i - half_width : i + half_width + 1])`` for every i in O(n):
    block prefix and suffix maxima (van Herk 1992; Gil & Werman 1993)."""
    n, w = len(x), 2 * half_width + 1
    padded = np.full(-(-(n + 2 * half_width) // w) * w, -np.inf)
    padded[half_width : half_width + n] = x
    prefix = np.maximum.accumulate(padded.reshape(-1, w), axis=1).ravel()
    suffix = np.maximum.accumulate(padded[::-1].reshape(-1, w), axis=1).ravel()[::-1]
    return np.maximum(suffix[:n], prefix[w - 1 : w - 1 + n])


def detect_r_peaks(ecg: UniformSeries) -> PeakList:
    """Pan-Tompkins-style R-peak detection. Only MWI local maxima that are
    the largest MWI value within +/-100 ms enter the threshold scan (at high
    rates one QRS gives several); peak times are refined to the local ECG
    maximum within +/-50 ms of each accepted fiducial mark."""
    rate = ecg.rate_hz
    if rate < 200.0:
        raise ValueError(f"ECG rate {rate} Hz is below the 200 Hz minimum")
    if ecg.duration_s < 10.0:
        raise ValueError("ECG shorter than 10 s")

    band = butterworth_bandpass(ecg, 2, 5.0, 15.0).values
    deriv = np.gradient(band) * rate
    squared = deriv * deriv
    mwi = _moving_window_integral(squared, int(round(0.075 * rate)))

    widest = _centered_running_max(mwi, int(round(0.1 * rate)))
    interior = (mwi[1:-1] > mwi[:-2]) & (mwi[1:-1] >= mwi[2:]) & (mwi[1:-1] == widest[1:-1])
    cand_idx = np.nonzero(interior)[0] + 1
    if len(cand_idx) == 0:
        return PeakList(np.empty(0))
    cand_val = mwi[cand_idx]

    init = mwi[: int(2.0 * rate)]
    spki0 = 0.5 * init.max()
    npki0 = 0.5 * init.mean()
    fiducials = np.sort(_pt_scan_loop(cand_idx, cand_val, 0.2 * rate, float(spki0), float(npki0)))

    half = int(round(0.05 * rate))
    near = np.clip(fiducials[:, None] + np.arange(-half, half + 1), 0, len(ecg.values) - 1)
    refined = near[np.arange(len(near)), np.argmax(ecg.values[near], axis=1)]

    # collapse refinements that collided within the refractory window
    if len(refined) > 1:
        keep = [refined[0]]
        refr = 0.2 * rate
        for idx in refined[1:]:
            if idx - keep[-1] < refr:
                if ecg.values[idx] > ecg.values[keep[-1]]:
                    keep[-1] = idx
            else:
                keep.append(idx)
        refined = np.asarray(keep)

    return PeakList(ecg.start_s + refined / rate)


# ---------------------------------------------------------------------------
# IBI construction and correction
# ---------------------------------------------------------------------------


def build_ibi(peaks: PeakList) -> IbiSeries:
    """Successive differences in ms with range gating; entries outside
    [300, 2000] ms are replaced by a natural cubic spline over the surviving
    beats (the original validity is kept in ``valid``)."""
    if len(peaks) < 5:
        raise ValueError(f"need at least 5 peaks to build an IBI series, got {len(peaks)}")
    times = peaks.times_s
    ibis = np.diff(times) * 1000.0
    valid = (ibis >= IBI_MIN_MS) & (ibis <= IBI_MAX_MS)
    corrected = ibis.copy()
    if not valid.all():
        t_ibi = times[1:]
        if valid.sum() < 4:
            raise ValueError("fewer than 4 in-range IBIs; cannot spline-correct")
        spline = NaturalCubicSpline(t_ibi[valid], ibis[valid])
        corrected[~valid] = spline(t_ibi[~valid])
    return IbiSeries(times, corrected, valid)


def ibi_to_uniform(ibi: IbiSeries, grid_hz: float = 2.0) -> UniformSeries:
    """Natural-spline interpolation of the corrected IBI series onto a uniform
    grid (each IBI is anchored at its later beat time)."""
    t = ibi.beat_times_s[1:]
    return spline_fill(t, ibi.ibis_ms, np.zeros(len(t), dtype=bool), grid_hz)


# ---------------------------------------------------------------------------
# HRV features (7 time + 4 frequency + 3 nonlinear)
# ---------------------------------------------------------------------------


def hrv_time_features(window: np.ndarray) -> np.ndarray:
    """mean IBI, SDNN, RMSSD, pNN50, CV, mean HR, SD of HR.

    SDs are population SDs; pNN50 uses the standard 50 ms threshold.
    """
    x = np.asarray(window, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("window must have at least 2 samples")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("IBI window must be finite and positive")
    d = np.diff(x)
    mean_ibi = x.mean()
    sdnn = x.std()
    rmssd = np.sqrt(np.mean(d * d))
    pnn50 = 100.0 * np.mean(np.abs(d) > 50.0)
    cv = sdnn / mean_ibi
    hr = 60000.0 / x
    return np.array([mean_ibi, sdnn, rmssd, pnn50, cv, hr.mean(), hr.std()])


def hrv_frequency_features(window: UniformSeries, segment_len: int = 64, nfft: int = 128) -> np.ndarray:
    """LF, HF, LF/HF and total band power of the mean-removed window."""
    centered = window.replace_values(window.values - window.values.mean())
    seg = min(segment_len, len(centered.values))
    spec = welch_psd(centered, seg, 0.5, nfft=max(nfft, _next_pow2(seg)))
    return band_powers_from_spectrum(spec)


def band_powers_from_spectrum(spec: Spectrum) -> np.ndarray:
    lf = band_power(spec, *LF_BAND)
    hf = band_power(spec, *HF_BAND)
    total = band_power(spec, *TOTAL_BAND)
    ratio = lf / hf if hf > 1e-12 else 0.0
    return np.array([lf, hf, ratio, total])


def hrv_nonlinear_features(window: np.ndarray) -> np.ndarray:
    """Poincare SD1, SD2, SD1/SD2.

    SD1 is computed as the RMS of successive differences over sqrt(2), which
    makes SD1 == RMSSD/sqrt(2) an exact identity; SD2 is the population SD of
    successive sums over sqrt(2).
    """
    x = np.asarray(window, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("window must have at least 2 samples")
    d = np.diff(x)
    s = x[1:] + x[:-1]
    sd1 = np.sqrt(np.mean(d * d) / 2.0)
    sd2 = np.std(s) / np.sqrt(2.0)  # scale after std so constant windows give exactly 0
    ratio = sd1 / sd2 if sd2 > 1e-12 else 0.0
    return np.array([sd1, sd2, ratio])


def hrv_features(window: UniformSeries) -> np.ndarray:
    """All 14 HRV features for one 2 Hz IBI window, in ``HRV_FEATURE_NAMES``
    order."""
    t7 = hrv_time_features(window.values)
    f4 = hrv_frequency_features(window)
    n3 = hrv_nonlinear_features(window.values)
    return np.concatenate([t7, f4, n3])


# ---------------------------------------------------------------------------
# Per-subject normalization
# ---------------------------------------------------------------------------


def normalize_per_subject(features: np.ndarray, subjects) -> tuple[np.ndarray, dict]:
    """Z-score each feature dimension within each subject.

    ``features`` has one row per window and the feature dimension last; the
    statistics pool every other axis, so an (N, d) matrix gets per-column
    stats and an (N, T, 1) series one scalar per subject. Uses the subject's
    own label-free statistics (population SD, guarded at 1e-8 so constant
    dimensions map to zero). Returns the normalized array and the per-subject
    (mean, sd) audit record.
    """
    features = np.asarray(features, dtype=np.float64)
    subjects = np.asarray(subjects)
    axes = tuple(range(features.ndim - 1))
    out = np.empty_like(features)
    stats = {}
    for subj in np.unique(subjects):
        rows = np.nonzero(subjects == subj)[0]
        if len(rows) < 2:
            raise ValueError(f"subject {subj!r} has fewer than 2 windows")
        mu = features[rows].mean(axis=axes)
        sd = features[rows].std(axis=axes)
        out[rows] = (features[rows] - mu) / np.maximum(sd, 1e-8)
        stats[str(subj)] = (mu, sd)
    return out, stats
