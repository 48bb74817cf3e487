"""Shared signal-processing primitives.

Filters and resamplers take a :class:`UniformSeries` (a uniformly sampled
float64 trace with an absolute start time); :func:`welch_psd` and
:func:`linear_fit` work along an array's last axis. ``GRID_HZ`` is the rate
of every windowed stream; ``ANTIALIAS_ORDER`` is the order of the low-pass
that :func:`resample_uniform` applies before it downsamples.

The Butterworth filters run each biquad in block state-space form: a GEMM per
block of ``_IIR_BLOCK`` samples and a 2-state carry between blocks. Each
design (coefficients, steady state, block matrices) is built once per process
for its ``(order, cutoff, rate, btype)``, the rate being the one the series
measures, and kept as read-only arrays in a cache of ``_DESIGN_CACHE_SIZE``.

Who owns which buffer in a zero-phase pass: the caller's samples (and the
line :func:`butterworth_lowpass` removes) are only read. :func:`_sosfiltfilt`
allocates two block buffers of the padded length; :func:`_run_cascade`
consumes the one it is given as input, writing each section's output into
the other and the carry's product into the input it has finished reading.
The result is the first ``len(x)`` samples of the buffer the last pass freed,
so a filter holds at most two padded buffers beside its input, and its
output keeps one alive. :func:`butterworth_lowpass` builds its line in the
buffer of :func:`linear_fit`'s abscissa and has :func:`_sosfiltfilt`
subtract it as it fills the first block buffer, so the residual takes no
buffer of its own. Each in-place step is the exact operation of the
expression it replaced, so every value keeps its bits.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

GRID_HZ = 2.0  # the corrected IBI series and every EDA stream are resampled to it
ANTIALIAS_ORDER = 4


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
class WindowingPlan:
    """Fixed-length sliding windows: 120 samples with 75% overlap -> step 30."""

    window_len_samples: int = 120
    overlap_fraction: float = 0.75
    step_samples: int = field(init=False)

    def __post_init__(self):
        if self.window_len_samples < 2:  # the HRV and EDA features need two samples
            raise ValueError("window_len_samples must be >= 2")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError("overlap_fraction must lie in [0, 1)")
        step = int(round(self.window_len_samples * (1.0 - self.overlap_fraction)))
        if step < 1:
            raise ValueError("window_len_samples x (1 - overlap_fraction) rounds to a step below one sample")
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

    lowpass = btype == "lowpass"
    sign = 1.0 if lowpass else -1.0  # b1's sign, and z = +1 (DC) or -1 (Nyquist) for the unit-gain rule
    k = np.arange(order)
    proto = np.exp(1j * np.pi * (2 * k + order + 1) / (2 * order))  # unit-circle LHP poles
    wc = 2.0 * rate_hz * np.tan(np.pi * cutoff_hz / rate_hz)  # pre-warped cutoff, rad/s
    big_k = 2.0 * rate_hz
    analog = wc * proto if lowpass else wc / proto
    num = wc if lowpass else big_k

    sections = []
    # pole k pairs with its conjugate, pole order-1-k; an odd order leaves the
    # real pole order//2 as the last section
    for i in range((order + 1) // 2):
        p = analog[i]
        zp = (big_k + p) / (big_k - p)
        g = num / (big_k - p)
        if 2 * i + 1 == order:
            sections.append([g.real, sign * g.real, 0.0, 1.0, -zp.real, 0.0])
        else:
            gain2 = (g * np.conj(g)).real
            sections.append([gain2, sign * 2.0 * gain2, gain2, 1.0, -2.0 * zp.real, (zp * np.conj(zp)).real])

    sos = np.array(sections, dtype=np.float64)
    # exact unit gain at the reference frequency: H(z) at z = sign
    ref = np.array([1.0, sign, 1.0])
    sos[:, :3] /= ((sos[:, :3] * ref).sum(axis=1) / (sos[:, 3:] * ref).sum(axis=1))[:, None]
    return sos


# Samples per block of the state-space IIR. GEMM work grows with it and the
# Python carry loop with n / block; 128 was the fastest of 64-512 on 2048 Hz ECG.
_IIR_BLOCK = 128

# Butterworth designs kept per process. One recording needs four (the ECG
# high-pass and low-pass, the EDA low-pass and the anti-alias low-pass), keyed
# by its measured rates, so eight hold two recordings whose rates differ.
_DESIGN_CACHE_SIZE = 8


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
    return toeplitz, rows[:n].T.copy(), powers[n].copy(), pow_b[n - 1 :: -1].copy()


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


class _IirDesign(NamedTuple):
    """A biquad cascade ready to run: its coefficients ``sos``, the state
    ``zi`` that makes a unit step transient-free, and each section's block
    matrices (:func:`_biquad_block_matrices`)."""

    sos: np.ndarray
    zi: np.ndarray
    sections: tuple


def _iir_design(sos: np.ndarray) -> _IirDesign:
    return _IirDesign(sos, _sos_steady_zi(sos), tuple(_biquad_block_matrices(row) for row in sos))


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _butter_design(order: int, cutoff_hz: float, rate_hz: float, btype: str) -> _IirDesign:
    """The Butterworth cascade of :func:`_butter_sos`, built once per process
    for each ``(order, cutoff_hz, rate_hz, btype)``. Every array is read-only,
    since every caller shares it."""
    design = _iir_design(_butter_sos(order, cutoff_hz, rate_hz, btype))
    for arr in (design.sos, design.zi, *(m for mats in design.sections for m in mats)):
        arr.flags.writeable = False
    return design


def _run_cascade(sections: tuple, blocks: np.ndarray, zi: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Run the biquads ``sections`` over ``blocks`` (n_blocks, ``_IIR_BLOCK``),
    the signal row by row, from per-section state ``zi``: per section, one GEMM
    for the zero-state response of every block, a 2-state carry from block to
    block, and one GEMM for the carry's effect.

    ``blocks`` is consumed and ``spare``, of its shape, is scratch: each
    section writes its output into the buffer it does not read, and the
    carry's product into the input it has finished reading. Returns the
    buffer that holds the output: ``blocks`` after an even number of
    sections, ``spare`` after an odd one."""
    for (toeplitz, carry_out, a_pow_l, drive), (s0, s1) in zip(sections, zi.tolist()):
        (m00, m01), (m10, m11) = a_pow_l.tolist()
        states = []  # the state entering each block, flat: s0, s1, s0, s1, ...
        push = states.append
        for d0, d1 in (blocks @ drive).tolist():
            push(s0)
            push(s1)
            s0, s1 = m00 * s0 + m01 * s1 + d0, m10 * s0 + m11 * s1 + d1
        np.matmul(blocks, toeplitz, out=spare)
        spare += np.matmul(np.array(states).reshape(-1, 2), carry_out, out=blocks)
        blocks, spare = spare, blocks
    return blocks


def _block_buffer(n: int) -> np.ndarray:
    """Zeroed (n_blocks, ``_IIR_BLOCK``) buffer for ``n`` samples."""
    return np.zeros((-(-n // _IIR_BLOCK), _IIR_BLOCK))


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Cascade of direct-form II transposed biquads from per-section state
    ``zi`` (the semantics of ``scipy.signal.sosfilt(sos, x, zi=zi)``), in
    block state-space form (:func:`_run_cascade`)."""
    n = x.shape[0]
    blocks = _block_buffer(n)
    blocks.reshape(-1)[:n] = x
    return _run_cascade(_iir_design(sos).sections, blocks, zi, np.empty_like(blocks)).reshape(-1)[:n]


def _sosfiltfilt(design: _IirDesign, x: np.ndarray, pad_samples: int = 0, line=None) -> np.ndarray:
    """Forward-backward IIR cascade (zero phase) of ``x``, less ``line`` when
    one is given, with odd-reflection padding and steady-state initial
    conditions: constants pass through exactly.

    Both passes run in two block buffers of the padded length ``m``; ``x``
    and ``line`` are only read. The padded signal is written straight into
    the first, the first pass's output, reversed, into the one it freed
    (whose tail past ``m`` is zeroed: the block GEMMs multiply it by zeros,
    and ``0 * garbage`` can be NaN or flip a -0.0), and the result, reversed
    again, into the first ``len(x)`` samples of the buffer the second pass
    freed. The result is that buffer's view, so one padded buffer outlives
    the call."""
    n = x.shape[0]
    padlen = min(n - 1, max(pad_samples, 24 * design.sos.shape[0], 32))
    m = n + 2 * padlen
    first = _block_buffer(m)
    spare = np.empty_like(first)
    ext = first.reshape(-1)
    mid = ext[padlen : padlen + n]
    if line is None:
        mid[...] = x
    else:
        np.subtract(x, line, out=mid)
    ext[:padlen] = 2.0 * mid[0] - mid[padlen:0:-1]
    ext[padlen + n : m] = 2.0 * mid[-1] - mid[-2 : -padlen - 2 : -1]
    y = _run_cascade(design.sections, first, design.zi * ext[0], spare)
    free = spare if y is first else first
    rev = free.reshape(-1)
    rev[:m] = y.reshape(-1)[m - 1 :: -1]
    rev[m:] = 0.0
    z = _run_cascade(design.sections, free, design.zi * rev[0], y)
    out = (y if z is free else free).reshape(-1)[:n]
    out[...] = z.reshape(-1)[padlen : padlen + n][::-1]
    return out


def butterworth_lowpass(x: UniformSeries, order: int, cutoff_hz: float) -> UniformSeries:
    """Zero-phase Butterworth low-pass; the forward-backward pass squares the
    single-pass magnitude response.

    The least-squares line is removed before filtering and restored after:
    with unit DC gain and zero phase the filter leaves affine content
    untouched, and this suppresses edge transients on drifting signals.
    """
    design = _butter_design(order, cutoff_hz, x.rate_hz, "lowpass")
    line, mean, slope = linear_fit(x.values)
    line *= slope  # line = mean + slope * t, in t's buffer
    line += mean
    pad = int(3.0 * x.rate_hz / cutoff_hz)
    y = _sosfiltfilt(design, x.values, pad_samples=pad, line=line)
    y += line
    return x.replace_values(y)


def butterworth_highpass(x: UniformSeries, order: int, cutoff_hz: float) -> UniformSeries:
    """Zero-phase Butterworth high-pass (internal helper for the cardiac band-pass)."""
    design = _butter_design(order, cutoff_hz, x.rate_hz, "highpass")
    pad = int(3.0 * x.rate_hz / cutoff_hz)
    return x.replace_values(_sosfiltfilt(design, x.values, pad_samples=pad))


def butterworth_bandpass(x: UniformSeries, order: int, low_hz: float, high_hz: float) -> UniformSeries:
    """Cascaded zero-phase high-pass + low-pass."""
    return butterworth_lowpass(butterworth_highpass(x, order, low_hz), order, high_hz)


# ---------------------------------------------------------------------------
# Detrend / resample / spline
# ---------------------------------------------------------------------------


def linear_fit(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares line through ``v`` along its last axis: the centred
    sample index ``t``, the mean and the slope per sample (0 for fewer than 2 samples).

    The sums are numpy reductions, not ``t @ r``: OpenBLAS splits a long
    ``ddot`` over its threads, which makes the bits depend on the thread count.
    """
    t = np.arange(v.shape[-1], dtype=np.float64)
    t -= t.mean()
    mean = v.mean(axis=-1, keepdims=True)
    centred = v - mean
    centred *= t  # t * (v - mean), in place
    moment = np.sum(centred, axis=-1)
    del centred  # before t * t, so one full-length temporary at a time
    slope = moment / (np.sum(t * t) or 1.0)  # one sample: t is 0, so is the slope
    return t, mean[..., 0], slope


def detrend_linear(x: UniformSeries) -> UniformSeries:
    """Subtract the least-squares line; result has zero mean and zero LS slope."""
    if len(x.values) < 2:
        raise ValueError("detrend_linear needs at least 2 samples")
    t, mean, slope = linear_fit(x.values)
    return x.replace_values(x.values - mean - slope * t)


def resample_uniform(x: UniformSeries, target_hz: float) -> UniformSeries:
    """Linear interpolation onto a uniform ``target_hz`` grid over the same span.

    Downsampling first applies a zero-phase ``ANTIALIAS_ORDER`` anti-alias
    low-pass at 0.45 * target_hz.
    """
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if len(x.values) == 0:
        raise ValueError("cannot resample an empty series")
    y = x
    if target_hz < x.rate_hz:
        y = butterworth_lowpass(x, ANTIALIAS_ORDER, 0.45 * target_hz)
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
        m_int = _thomas(h[1:-1], diag, rhs)
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


def _thomas(off, diag, rhs):
    """Solve the symmetric tridiagonal system with ``diag`` on the diagonal
    and ``off`` on both off-diagonals (Thomas algorithm)."""
    n = len(diag)
    b = diag.copy()
    d = rhs.copy()
    for i in range(1, n):
        w = off[i - 1] / b[i - 1]
        b[i] -= w * off[i - 1]
        d[i] -= w * d[i - 1]
    x = np.empty(n)
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - off[i] * x[i + 1]) / b[i]
    return x


def spline_fill(t, v, grid_hz: float) -> UniformSeries:
    """Natural cubic spline through the points ``(t, v)``, sampled on a
    uniform ``grid_hz`` grid that spans the knots, starting at ``t[0]``."""
    spline = NaturalCubicSpline(t, v)
    t0, t1 = spline.t[0], spline.t[-1]
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
    values: np.ndarray,
    rate_hz: float,
    segment_len: int,
    segment_overlap: float,
    nfft: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD along the last axis of ``values``, sampled at ``rate_hz``:
    averaged Hann-tapered periodograms of overlapping segments, returned as
    ``(freqs_hz, power)``, the one-sided densities in units²/Hz ``power``
    (..., F) over the frequencies ``freqs_hz`` (F,).

    Each segment's mean is removed before tapering and reassigned to the
    zero-frequency bin, so a constant input registers as a pure DC line. For a
    unit-variance white input the integrated density is ~1. Segments are
    zero-padded to ``nfft`` (default: next power of two) for the in-repo
    radix-2 FFT.
    """
    n = values.shape[-1]
    if segment_len > n:
        raise ValueError(f"segment_len {segment_len} exceeds signal length {n}")
    if not (0.0 <= segment_overlap < 1.0):
        raise ValueError("segment_overlap must lie in [0, 1)")
    step = max(1, int(round(segment_len * (1.0 - segment_overlap))))
    nfft = _next_pow2(segment_len) if nfft is None else nfft
    if nfft < segment_len or (nfft & (nfft - 1)) != 0:
        raise ValueError("nfft must be a power of two >= segment_len")

    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    wnorm = rate_hz * (w @ w)
    df = rate_hz / nfft

    segs = np.lib.stride_tricks.sliding_window_view(values, segment_len, axis=-1)[..., ::step, :]
    means = segs.mean(axis=-1)
    tapered = np.zeros(segs.shape[:-1] + (nfft,))
    tapered[..., :segment_len] = (segs - means[..., None]) * w
    spec = fft_radix2(tapered)
    half = nfft // 2
    p = (spec[..., : half + 1].real ** 2 + spec[..., : half + 1].imag ** 2) / wnorm
    p[..., 1:half] *= 2.0
    p[..., 0] += means**2 / df
    return np.arange(half + 1) * df, p.mean(axis=-2)


def band_power(freqs_hz: np.ndarray, power: np.ndarray, lo_hz: float, hi_hz: float) -> np.ndarray:
    """Trapezoidal integral of each PSD ``power`` (..., F) over the bins of
    ``freqs_hz`` (F,) with lo_hz <= f <= hi_hz."""
    sel = (freqs_hz >= lo_hz) & (freqs_hz <= hi_hz)
    if sel.sum() < 2:
        return np.zeros(power.shape[:-1])
    # a C-ordered copy: numpy sums a strided band of a matrix in another order than each row alone
    return np.trapezoid(np.ascontiguousarray(power[..., sel]), freqs_hz[sel], axis=-1)
