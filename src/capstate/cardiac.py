"""Cardiac chain: ECG -> R peaks -> corrected IBI series -> HRV features.

The R-peak detector follows the classic Pan-Tompkins stages (band-pass,
derivative, squaring, moving-window integration, adaptive dual threshold with
refractory and search-back), with the final peak time refined to the local ECG
maximum. The moving-window integral is a difference of cumulative sums: one
slice difference over the full-width windows, with clipped windows only at
the two edges. The chain runs in a fixed set of full-length buffers and
frees each stage's input once the next stage has it: the band-pass holds its
input and two padded block buffers (``dsp``), the derivative is squared in
its own buffer, the integral takes one cumulative-sum buffer, and the
running max swaps between two. Every step is the exact operation of the
expression it replaced, so the peaks keep their bits. The IBI series is
resampled to ``dsp.GRID_HZ``; the frequency-domain HRV features use Welch
segments of ``HRV_SEGMENT_LEN`` samples zero-padded to ``HRV_NFFT``.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dsp import (
    GRID_HZ,
    NaturalCubicSpline,
    UniformSeries,
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
HRV_SEGMENT_LEN = 64  # Welch segment, 32 s at 2 Hz (shorter windows use their length)
HRV_NFFT = 128

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
    accepted = []
    spki = spki0
    npki = npki0
    rr = deque(maxlen=8)  # the last eight RR intervals, in samples
    last_t = None  # sample of the last accepted QRS
    # best noise-classified candidate since the last accepted QRS
    sb_idx = None
    sb_val = 0.0
    for idx, v in zip(cand_idx.tolist(), cand_val.tolist()):
        t = float(idx)
        th1 = npki + 0.25 * (spki - npki)
        th2 = 0.5 * th1
        # RR values are whole samples, so their sum is exact in any order
        if len(rr) >= 2 and (t - last_t) > 1.66 * (sum(rr) / len(rr)) and sb_idx is not None and sb_val > th2:
            accepted.append(sb_idx)
            spki = 0.25 * sb_val + 0.75 * spki
            rr.append(sb_idx - last_t)
            last_t = float(sb_idx)
            sb_idx = None
            sb_val = 0.0
            th1 = npki + 0.25 * (spki - npki)
        if last_t is not None and t - last_t < refr_samples:
            continue
        if v > th1:
            accepted.append(idx)
            spki = 0.125 * v + 0.875 * spki
            if last_t is not None:
                rr.append(t - last_t)
            last_t = t
            sb_idx = None
            sb_val = 0.0
        else:
            npki = 0.125 * v + 0.875 * npki
            if v > sb_val:
                sb_val = v
                sb_idx = idx
    return np.array(accepted, dtype=np.int64)


def _squared_slope(band: np.ndarray, rate: float) -> np.ndarray:
    """``(np.gradient(band) * rate) ** 2``, taken as ``deriv * deriv``, in
    one new buffer: ``np.gradient``'s formula with unit spacing, central
    differences halved inside and one-sided differences at the two ends,
    then the scaling and the square in place."""
    deriv = np.empty(len(band))
    inner = deriv[1:-1]
    np.subtract(band[2:], band[:-2], out=inner)
    inner /= 2.0
    deriv[0] = band[1] - band[0]  # np.gradient divides these by the unit spacing, 1.0
    deriv[-1] = band[-1] - band[-2]
    deriv *= rate
    return np.multiply(deriv, deriv, out=deriv)


def _moving_window_integral(x: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average via cumulative sums: the mean of
    ``x[i - half_width : i + half_width + 1]``, the window clipped to the
    signal at both ends. Interior windows, all ``w = 2 half_width + 1`` wide,
    are one slice difference; only the ``half_width`` samples at each edge
    index the sums through their clipped bounds."""
    n, w = len(x), 2 * half_width + 1
    c = np.empty(n + 1)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    out = np.empty(n)
    head = min(half_width, n)
    edges = np.concatenate([np.arange(head), np.arange(max(n - half_width, head), n)])
    lo = np.maximum(edges - half_width, 0)
    hi = np.minimum(edges + half_width + 1, n)
    out[edges] = (c[hi] - c[lo]) / (hi - lo)
    if n >= w:
        inner = out[half_width : n - half_width]
        np.subtract(c[w:], c[: n + 1 - w], out=inner)
        inner /= w
    return out


def _centered_running_max(x: np.ndarray, half_width: int) -> np.ndarray:
    """``max(x[i - half_width : i + half_width + 1])`` for every i in
    O(n log w), w = 2 half_width + 1: doubling gives the max over every run of
    ``span`` samples (1, 2, 4, ... up to the largest power of two <= w), and
    two such runs, overlapping, cover each window. A max rounds nothing, so
    the result is exact."""
    n, w = len(x), 2 * half_width + 1
    m = np.empty(n + 2 * half_width)  # window i is m[i : i + w]
    m[:half_width] = -np.inf
    m[half_width : half_width + n] = x
    m[half_width + n :] = -np.inf
    other = np.empty_like(m)
    size, span = len(m), 1
    while 2 * span <= w:
        size -= span
        np.maximum(m[:size], m[span : size + span], out=other[:size])  # other[i]: the 2 span samples from i
        m, other = other, m
        span *= 2
    return np.maximum(m[:n], m[w - span : w - span + n], out=other[:n])


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

    squared = _squared_slope(butterworth_bandpass(ecg, 2, 5.0, 15.0).values, rate)
    mwi = _moving_window_integral(squared, int(round(0.075 * rate)))
    del squared  # the running max's two buffers take its place

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


def ibi_to_uniform(ibi: IbiSeries) -> UniformSeries:
    """Natural-spline interpolation of the corrected IBI series onto the
    ``GRID_HZ`` grid (each IBI is anchored at its later beat time)."""
    return spline_fill(ibi.beat_times_s[1:], ibi.ibis_ms, GRID_HZ)


# ---------------------------------------------------------------------------
# HRV features (7 time + 4 frequency + 3 nonlinear)
# ---------------------------------------------------------------------------


def hrv_time_features(windows: np.ndarray) -> np.ndarray:
    """mean IBI, SDNN, RMSSD, pNN50, CV, mean HR, SD of HR per window (last axis).

    SDs are population SDs; pNN50 uses the standard 50 ms threshold.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("window must have at least 2 samples")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("IBI window must be finite and positive")
    d = np.diff(x, axis=-1)
    mean_ibi = x.mean(axis=-1)
    sdnn = x.std(axis=-1)
    rmssd = np.sqrt(np.mean(d * d, axis=-1))
    pnn50 = 100.0 * np.mean(np.abs(d) > 50.0, axis=-1)
    cv = sdnn / mean_ibi
    hr = 60000.0 / x
    return np.stack([mean_ibi, sdnn, rmssd, pnn50, cv, hr.mean(axis=-1), hr.std(axis=-1)], axis=-1)


def hrv_frequency_features(windows: np.ndarray) -> np.ndarray:
    """LF, HF, LF/HF and total band power of each mean-removed 2 Hz window (last axis)."""
    x = np.asarray(windows, dtype=np.float64)
    centered = x - x.mean(axis=-1, keepdims=True)
    freqs, power = welch_psd(centered, GRID_HZ, min(HRV_SEGMENT_LEN, x.shape[-1]), 0.5, nfft=HRV_NFFT)
    lf, hf, total = (band_power(freqs, power, *band) for band in (LF_BAND, HF_BAND, TOTAL_BAND))
    ratio = np.where(hf > 1e-12, lf / np.where(hf > 1e-12, hf, 1.0), 0.0)
    return np.stack([lf, hf, ratio, total], axis=-1)


def hrv_nonlinear_features(windows: np.ndarray) -> np.ndarray:
    """Poincare SD1, SD2, SD1/SD2 per window (last axis).

    SD1 is computed as the RMS of successive differences over sqrt(2), which
    makes SD1 == RMSSD/sqrt(2) an exact identity; SD2 is the population SD of
    successive sums over sqrt(2).
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("window must have at least 2 samples")
    d = np.diff(x, axis=-1)
    s = x[..., 1:] + x[..., :-1]
    sd1 = np.sqrt(np.mean(d * d, axis=-1) / 2.0)
    sd2 = np.std(s, axis=-1) / np.sqrt(2.0)  # scale after std so constant windows give exactly 0
    ratio = np.where(sd2 > 1e-12, sd1 / np.where(sd2 > 1e-12, sd2, 1.0), 0.0)
    return np.stack([sd1, sd2, ratio], axis=-1)


def hrv_features(windows: np.ndarray) -> np.ndarray:
    """The 14 ``HRV_FEATURE_NAMES`` of each 2 Hz IBI window (last axis)."""
    return np.concatenate(
        [hrv_time_features(windows), hrv_frequency_features(windows), hrv_nonlinear_features(windows)], axis=-1)
