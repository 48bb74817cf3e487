"""Shared signal-processing primitives.

Everything operates on :class:`UniformSeries` (a uniformly sampled float64
trace with an absolute start time).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class UniformSeries:
    """Uniformly sampled signal: ``values[k]`` is the sample at ``start_s + k / rate_hz``."""

    values: np.ndarray
    rate_hz: float
    start_s: float = 0.0

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self):
        return len(self.values)

    @property
    def duration_s(self) -> float:
        return (len(self.values) - 1) / self.rate_hz if len(self.values) else 0.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def times(self) -> np.ndarray:
        return self.start_s + np.arange(len(self.values)) / self.rate_hz

    def replace_values(self, values) -> "UniformSeries":
        return UniformSeries(values, self.rate_hz, self.start_s)


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectral density in units²/Hz."""

    freqs_hz: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs_hz", np.asarray(self.freqs_hz, dtype=np.float64))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=np.float64))
        if self.freqs_hz.shape != self.power.shape:
            raise ValueError("freqs_hz and power must have equal lengths")


@dataclass(frozen=True)
class WindowingPlan:
    """Fixed-length sliding windows: 120 samples with 75% overlap -> step 30."""

    window_len_samples: int = 120
    overlap_fraction: float = 0.75
    step_samples: int = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError("overlap_fraction must lie in [0, 1)")
        step = int(round(self.window_len_samples * (1.0 - self.overlap_fraction)))
        if step < 1:
            raise ValueError("derived step is below one sample")
        object.__setattr__(self, "step_samples", step)

    def starts(self, n_samples: int) -> np.ndarray:
        """First sample of every complete window in a stream of ``n_samples``:
        0, step, 2*step, ... (empty when the stream is shorter than a window)."""
        return np.arange(0, n_samples - self.window_len_samples + 1, self.step_samples)


# ---------------------------------------------------------------------------
# Butterworth design (analog prototype + bilinear transform) and zero-phase IIR
# ---------------------------------------------------------------------------


def _butter_sos(order: int, cutoff_hz: float, rate_hz: float, btype: str) -> np.ndarray:
    """Second-order-section coefficients, rows [b0, b1, b2, 1, a1, a2]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (0.0 < cutoff_hz < rate_hz / 2.0):
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie strictly inside (0, Nyquist={rate_hz / 2.0})"
        )
    if btype not in ("lowpass", "highpass"):
        raise ValueError(f"unknown btype {btype!r}")

    k = np.arange(order)
    proto = np.exp(1j * np.pi * (2 * k + order + 1) / (2 * order))  # unit-circle LHP poles
    wc = 2.0 * rate_hz * np.tan(np.pi * cutoff_hz / rate_hz)  # pre-warped cutoff, rad/s
    big_k = 2.0 * rate_hz

    if btype == "lowpass":
        analog = wc * proto
    else:
        analog = wc / proto

    sections = []
    # conjugate pairs first (poles come in conjugate pairs except one real pole for odd order)
    used = np.zeros(order, dtype=bool)
    for i in range(order):
        if used[i]:
            continue
        p = analog[i]
        if abs(p.imag) < 1e-12 * max(abs(p.real), 1.0):
            used[i] = True
            zp = (big_k + p) / (big_k - p)
            if btype == "lowpass":
                g = wc / (big_k - p)
                b = np.array([g.real, g.real, 0.0])
            else:
                g = big_k / (big_k - p)
                b = np.array([g.real, -g.real, 0.0])
            a = np.array([1.0, -zp.real, 0.0])
        else:
            # locate the conjugate partner
            j = None
            for j2 in range(i + 1, order):
                if not used[j2] and abs(analog[j2] - np.conj(p)) < 1e-8 * abs(p):
                    j = j2
                    break
            used[i] = True
            used[j] = True
            zp = (big_k + p) / (big_k - p)
            if btype == "lowpass":
                g = wc / (big_k - p)
                gain2 = (g * np.conj(g)).real
                b = gain2 * np.array([1.0, 2.0, 1.0])
            else:
                g = big_k / (big_k - p)
                gain2 = (g * np.conj(g)).real
                b = gain2 * np.array([1.0, -2.0, 1.0])
            a = np.array([1.0, -2.0 * zp.real, (zp * np.conj(zp)).real])
        sections.append(np.concatenate([b, a]))

    sos = np.array(sections, dtype=np.float64)
    # enforce exact unit gain at the reference frequency (DC for lowpass, Nyquist for highpass)
    for s in range(sos.shape[0]):
        b, a = sos[s, :3], sos[s, 3:]
        if btype == "lowpass":
            href = b.sum() / a.sum()
        else:
            alt = np.array([1.0, -1.0, 1.0])
            href = (b * alt).sum() / (a * alt).sum()
        sos[s, :3] /= href
    return sos


# Samples per block of the state-space IIR. GEMM work grows with it and the
# Python carry loop with n / block; 128 was the fastest of 64-512 on 2048 Hz ECG.
_IIR_BLOCK = 128


def _biquad_block_matrices(section: np.ndarray):
    """Block state-space form (Burrus 1972) of one DF2T biquad over blocks of
    L = ``_IIR_BLOCK`` samples.

    With state ``s = (w1, w2)`` the biquad is ``y = s[0] + b0 x`` and
    ``s' = A s + B x``, ``A = [[-a1, 1], [-a2, 0]]``, ``B = (b1 - a1 b0, b2 - a2 b0)``.
    For one block ``x`` (a row) entered with state ``s``:

        y  = x @ toeplitz + s @ carry_out
        s' = a_pow_l @ s + x @ drive

    ``toeplitz[j, k] = h[k - j]`` (zero below the diagonal) holds the impulse
    response, ``carry_out[:, k]`` is the first row of ``A^k`` and ``drive[j]``
    is ``A^(L-1-j) B``.
    """
    b0, b1, b2, _, a1, a2 = section.tolist()
    n = _IIR_BLOCK
    rows = [(1.0, 0.0)]  # rows[k] = first row of A^k
    for _ in range(n):
        r0, r1 = rows[-1]
        rows.append((-a1 * r0 - a2 * r1, r0))
    rows = np.array(rows)
    powers = np.empty((n + 1, 2, 2))  # A^k; its second row is -a2 times the first row of A^(k-1)
    powers[:, 0] = rows
    powers[0, 1] = 0.0, 1.0
    powers[1:, 1] = -a2 * rows[:-1]
    pow_b = powers @ np.array([b1 - a1 * b0, b2 - a2 * b0])  # A^k B
    h = np.concatenate([np.zeros(n - 1), [b0], pow_b[: n - 1, 0]])  # h[k] at index n - 1 + k
    toeplitz = np.lib.stride_tricks.sliding_window_view(h, n)[::-1].copy()
    return toeplitz, rows[:n].T.copy(), powers[n], pow_b[n - 1 :: -1].copy()


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Cascade of direct-form II transposed biquads from per-section state
    ``zi`` (the semantics of ``scipy.signal.sosfilt(sos, x, zi=zi)``), in
    blocks: per section, one GEMM for the zero-state response of every block,
    a 2-state carry from block to block, and one GEMM for the carry's effect."""
    n = x.shape[0]
    n_blocks = -(-n // _IIR_BLOCK)
    blocks = np.zeros(n_blocks * _IIR_BLOCK)
    blocks[:n] = x
    blocks = blocks.reshape(n_blocks, _IIR_BLOCK)
    out = np.empty_like(blocks)
    for s in range(sos.shape[0]):
        toeplitz, carry_out, a_pow_l, drive = _biquad_block_matrices(sos[s])
        (m00, m01), (m10, m11) = a_pow_l.tolist()
        s0, s1 = zi[s].tolist()
        states = []
        for d0, d1 in (blocks @ drive).tolist():
            states.append((s0, s1))
            s0, s1 = m00 * s0 + m01 * s1 + d0, m10 * s0 + m11 * s1 + d1
        np.matmul(blocks, toeplitz, out=out)
        out += np.array(states).reshape(n_blocks, 2) @ carry_out
        blocks, out = out, blocks
    return blocks.reshape(-1)[:n].copy()


def _sos_steady_zi(sos: np.ndarray) -> np.ndarray:
    """Per-section DF2T state that makes a unit-step input transient-free."""
    zi = np.zeros((sos.shape[0], 2))
    xin = 1.0
    for s in range(sos.shape[0]):
        b, a = sos[s, :3], sos[s, 3:]
        yout = xin * b.sum() / a.sum()
        zi[s, 0] = yout - b[0] * xin
        zi[s, 1] = b[2] * xin - a[2] * yout
        xin = yout
    return zi


def _sosfiltfilt(sos: np.ndarray, x: np.ndarray, pad_samples: int = 0) -> np.ndarray:
    """Forward-backward IIR cascade (zero phase) with odd-reflection padding
    and steady-state initial conditions: constants pass through exactly."""
    n = x.shape[0]
    padlen = min(n - 1, max(pad_samples, 24 * sos.shape[0], 32))
    if padlen > 0:
        head = 2.0 * x[0] - x[padlen:0:-1]
        tail = 2.0 * x[-1] - x[-2 : -padlen - 2 : -1]
        ext = np.concatenate([head, x, tail])
    else:
        ext = x.astype(np.float64)
    zi = _sos_steady_zi(sos)
    y = _sosfilt(sos, ext, zi * ext[0])[::-1]
    y = _sosfilt(sos, y, zi * y[0])[::-1]
    return y[padlen : padlen + n].copy()


def butterworth_lowpass(x: UniformSeries, order: int, cutoff_hz: float) -> UniformSeries:
    """Zero-phase Butterworth low-pass; the forward-backward pass squares the
    single-pass magnitude response.

    The least-squares line is removed before filtering and restored after:
    with unit DC gain and zero phase the filter leaves affine content
    untouched, and this suppresses edge transients on drifting signals.
    """
    sos = _butter_sos(order, cutoff_hz, x.rate_hz, "lowpass")
    t, mean, slope = linear_fit(x.values)
    line = mean + slope * t
    pad = int(3.0 * x.rate_hz / cutoff_hz)
    resid = _sosfiltfilt(sos, x.values - line, pad_samples=pad)
    return x.replace_values(resid + line)


def butterworth_highpass(x: UniformSeries, order: int, cutoff_hz: float) -> UniformSeries:
    """Zero-phase Butterworth high-pass (internal helper for the cardiac band-pass)."""
    sos = _butter_sos(order, cutoff_hz, x.rate_hz, "highpass")
    pad = int(3.0 * x.rate_hz / cutoff_hz)
    return x.replace_values(_sosfiltfilt(sos, x.values, pad_samples=pad))


def butterworth_bandpass(x: UniformSeries, order: int, low_hz: float, high_hz: float) -> UniformSeries:
    """Cascaded zero-phase high-pass + low-pass."""
    return butterworth_lowpass(butterworth_highpass(x, order, low_hz), order, high_hz)


# ---------------------------------------------------------------------------
# Detrend / resample / spline
# ---------------------------------------------------------------------------


def linear_fit(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares line through ``v``: the centred sample index ``t``, the
    mean and the slope per sample (0 for fewer than 2 samples).

    The sums are numpy reductions, not ``t @ r``: OpenBLAS splits a long
    ``ddot`` over its threads, which makes the bits depend on the thread count.
    """
    t = np.arange(len(v), dtype=np.float64)
    t -= t.mean()
    mean = v.mean()
    slope = np.sum(t * (v - mean)) / np.sum(t * t) if len(v) > 1 else 0.0
    return t, mean, slope


def detrend_linear(x: UniformSeries) -> UniformSeries:
    """Subtract the least-squares line; result has zero mean and zero LS slope."""
    if len(x.values) < 2:
        raise ValueError("detrend_linear needs at least 2 samples")
    t, mean, slope = linear_fit(x.values)
    return x.replace_values(x.values - mean - slope * t)


def resample_uniform(x: UniformSeries, target_hz: float, antialias_order: int = 4) -> UniformSeries:
    """Linear interpolation onto a uniform ``target_hz`` grid over the same span.

    Downsampling first applies a zero-phase anti-alias low-pass at
    0.45 * target_hz.
    """
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if len(x.values) == 0:
        raise ValueError("cannot resample an empty series")
    y = x
    if target_hz < x.rate_hz:
        y = butterworth_lowpass(x, antialias_order, 0.45 * target_hz)
    n = len(y.values)
    span = (n - 1) / y.rate_hz
    n_out = int(np.floor(span * target_hz)) + 1
    t_old = np.arange(n) / y.rate_hz
    t_new = np.arange(n_out) / target_hz
    return UniformSeries(np.interp(t_new, t_old, y.values), target_hz, x.start_s)


class NaturalCubicSpline:
    """Natural cubic spline through strictly increasing knots.

    Outside the knot span the spline is extended linearly with the boundary slope.
    """

    def __init__(self, t: np.ndarray, v: np.ndarray):
        t = np.asarray(t, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("knot arrays must be 1-D and equally sized")
        if len(t) < 4:
            raise ValueError("natural cubic spline needs at least 4 knots")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        self.t = t
        self.v = v
        n = len(t)
        h = np.diff(t)
        # tridiagonal system for interior second derivatives (natural: m0 = m_{n-1} = 0)
        rhs = 6.0 * ((v[2:] - v[1:-1]) / h[1:] - (v[1:-1] - v[:-2]) / h[:-1])
        diag = 2.0 * (h[:-1] + h[1:])
        lower = h[:-1].copy()
        upper = h[1:].copy()
        m_int = _thomas(lower[1:], diag, upper[:-1], rhs)
        m = np.zeros(n)
        m[1:-1] = m_int
        self.m = m
        self.h = h

    def __call__(self, tq) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(tq, dtype=np.float64))
        t, v, m, h = self.t, self.v, self.m, self.h
        idx = np.clip(np.searchsorted(t, tq) - 1, 0, len(t) - 2)
        hi = h[idx]
        a = (t[idx + 1] - tq) / hi
        b = (tq - t[idx]) / hi
        out = (
            a * v[idx]
            + b * v[idx + 1]
            + ((a**3 - a) * m[idx] + (b**3 - b) * m[idx + 1]) * hi**2 / 6.0
        )
        # linear extension beyond the knot hull
        s0 = (v[1] - v[0]) / h[0] - h[0] * m[1] / 6.0
        s1 = (v[-1] - v[-2]) / h[-1] + h[-1] * m[-2] / 6.0
        lo_mask = tq < t[0]
        hi_mask = tq > t[-1]
        if lo_mask.any():
            out[lo_mask] = v[0] + s0 * (tq[lo_mask] - t[0])
        if hi_mask.any():
            out[hi_mask] = v[-1] + s1 * (tq[hi_mask] - t[-1])
        return out


def _thomas(lower, diag, upper, rhs):
    """Solve a tridiagonal system in place (Thomas algorithm)."""
    n = len(diag)
    c = upper.astype(np.float64).copy()
    d = rhs.astype(np.float64).copy()
    b = diag.astype(np.float64).copy()
    for i in range(1, n):
        w = lower[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        d[i] -= w * d[i - 1]
    x = np.empty(n)
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - (c[i] * x[i + 1] if i < n - 1 else 0.0)) / b[i]
    return x


def spline_fill(t, v, invalid, grid_hz: float) -> UniformSeries:
    """Natural cubic spline through the valid points, sampled on a uniform grid.

    ``invalid`` marks points to be bridged by the spline. The grid spans the
    valid-knot hull starting at the first valid time.
    """
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    invalid = np.asarray(invalid, dtype=bool)
    valid = ~invalid
    if valid.sum() < 4:
        raise ValueError(f"spline_fill needs >= 4 valid points, got {int(valid.sum())}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("event times must be strictly increasing")
    spline = NaturalCubicSpline(t[valid], v[valid])
    t0, t1 = t[valid][0], t[valid][-1]
    n = int(np.floor((t1 - t0) * grid_hz)) + 1
    grid = t0 + np.arange(n) / grid_hz
    return UniformSeries(spline(grid), grid_hz, t0)


# ---------------------------------------------------------------------------
# Radix-2 FFT (in-repo) and Welch PSD
# ---------------------------------------------------------------------------


def _bitrev_indices(n: int) -> np.ndarray:
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    bits = int(np.log2(n))
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _fft_stages(a: np.ndarray) -> np.ndarray:
    """Iterative radix-2 butterflies on bit-reversed rows; a is (B, n) complex."""
    n = a.shape[-1]
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(-2j * np.pi * np.arange(half) / size)
        blocks = a.reshape(a.shape[0], n // size, size)
        even = blocks[:, :, :half].copy()
        odd = blocks[:, :, half:] * tw
        blocks[:, :, :half] = even + odd
        blocks[:, :, half:] = even - odd
        size *= 2
    return a


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Radix-2 Cooley-Tukey FFT over the last axis; length must be a power of two."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"fft_radix2 needs a power-of-two length, got {n}")
    a = np.ascontiguousarray(x.reshape(-1, n)[:, _bitrev_indices(n)], dtype=np.complex128)
    return _fft_stages(a).reshape(x.shape)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def welch_psd(
    x: UniformSeries,
    segment_len: int,
    segment_overlap: float,
    nfft: int | None = None,
) -> Spectrum:
    """Welch PSD: averaged Hann-tapered periodograms of overlapping segments.

    Each segment's mean is removed before tapering and reassigned to the
    zero-frequency bin, so a constant input registers as a pure DC line. For a
    unit-variance white input the integrated density is ~1. Segments are
    zero-padded to ``nfft`` (default: next power of two) for the in-repo
    radix-2 FFT.
    """
    n = len(x.values)
    if segment_len > n:
        raise ValueError(f"segment_len {segment_len} exceeds signal length {n}")
    if not (0.0 <= segment_overlap < 1.0):
        raise ValueError("segment_overlap must lie in [0, 1)")
    fs = x.rate_hz
    step = max(1, int(round(segment_len * (1.0 - segment_overlap))))
    nfft = _next_pow2(segment_len) if nfft is None else nfft
    if nfft < segment_len or (nfft & (nfft - 1)) != 0:
        raise ValueError("nfft must be a power of two >= segment_len")

    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    wnorm = fs * (w @ w)
    df = fs / nfft

    starts = np.arange(0, n - segment_len + 1, step)
    segs = np.stack([x.values[s : s + segment_len] for s in starts])
    means = segs.mean(axis=1)
    tapered = (segs - means[:, None]) * w
    if nfft > segment_len:
        tapered = np.pad(tapered, ((0, 0), (0, nfft - segment_len)))
    spec = fft_radix2(tapered)
    half = nfft // 2
    p = (spec[:, : half + 1].real ** 2 + spec[:, : half + 1].imag ** 2) / wnorm
    p[:, 1:half] *= 2.0
    p[:, 0] += means**2 / df
    power = p.mean(axis=0)
    freqs = np.arange(half + 1) * df
    return Spectrum(freqs, power)


def band_power(spectrum: Spectrum, lo_hz: float, hi_hz: float) -> float:
    """Trapezoidal integral of the PSD over bins with lo_hz <= f <= hi_hz."""
    sel = (spectrum.freqs_hz >= lo_hz) & (spectrum.freqs_hz <= hi_hz)
    if sel.sum() < 2:
        return 0.0
    return float(np.trapezoid(spectrum.power[sel], spectrum.freqs_hz[sel]))
