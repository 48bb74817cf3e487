"""Shared fixtures and independent reference implementations (oracles)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import sliding_window_view

import capstate
from capstate import cardiac, eda, pipeline
from capstate.cardiac import PeakList, _centered_running_max, _moving_window_integral, _pt_scan_loop, _squared_slope
from capstate.dsp import (
    GRID_HZ, UniformSeries, WindowingPlan, _block_buffer, _iir_design, _run_cascade, butterworth_bandpass, fft_radix2,
    resample_uniform,
)
from capstate.eda import CvxEdaParams, EdaDecomposition, _bspline3, _tonic_basis
from capstate.errors import NumericalError
from capstate.ingest import bateman_kernel
from capstate.evaluation.loso import FoldResult
from capstate.model import autograd as ag
from capstate.model.losses import PROB_FLOOR, _smoothed_targets
from capstate.model.network import build_graph, wrap_params
from capstate.pipeline import WindowedDataset

# A failing property prints the @reproduce_failure line that replays it, so a
# failure in a run that keeps no example database can be replayed from its log;
# every other setting stays as the loaded profile had it.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def butterworth_power_response(f_hz: float, cutoff_hz: float, order: int, rate_hz: float) -> float:
    """Squared magnitude of the bilinear-transform Butterworth low-pass at
    frequency f: |H|^2 = 1 / (1 + (w/wc)^(2 order)) with both frequencies
    pre-warped onto the analog axis."""
    w = 2.0 * rate_hz * np.tan(np.pi * f_hz / rate_hz)
    wc = 2.0 * rate_hz * np.tan(np.pi * cutoff_hz / rate_hz)
    return 1.0 / (1.0 + (w / wc) ** (2 * order))


def butter_sos_reference(order: int, cutoff_hz: float, rate_hz: float, btype: str) -> np.ndarray:
    """Butterworth second-order sections that find each pole's conjugate
    partner by search and test each section's gain per btype, one section at
    a time: the design that ``capstate.dsp._butter_sos`` (closed-form pole
    pairing, one unit-gain rule for all sections) reproduces bit for bit."""
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


def sosfilt_reference(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Cascade of direct-form II transposed biquads, one sample at a time
    from per-section state ``zi`` (``scipy.signal.sosfilt(sos, x, zi=zi)``)."""
    y = np.array(x, dtype=np.float64)
    for (b0, b1, b2, _, a1, a2), (w1, w2) in zip(sos.tolist(), zi.tolist()):
        for i in range(len(y)):
            xn = y[i]
            yn = b0 * xn + w1
            w1 = b1 * xn - a1 * yn + w2
            w2 = b2 * xn - a2 * yn
            y[i] = yn
    return y


def sosfilt_blocks(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Cascade of direct-form II transposed biquads from per-section state
    ``zi`` (the semantics of ``scipy.signal.sosfilt(sos, x, zi=zi)``), in
    the block state-space form of ``capstate.dsp._run_cascade``: the one-pass
    filter the zero-phase filter's kernel is checked through."""
    n = x.shape[0]
    blocks = _block_buffer(n)
    blocks.reshape(-1)[:n] = x
    return _run_cascade(_iir_design(sos).sections, blocks, zi, np.empty_like(blocks)).reshape(-1)[:n]


def lstm_reference(x, wx, wh, b, grad_hs):
    """Batch-major LSTM over (B, T, C): the forward caches (hs, i, f, g, o, c),
    each (B, T, H), and BPTT of ``grad_hs`` to (dx, dWx, dWh, db), one strided
    ``[:, step, :]`` slice per step, gates in the parameter order [i, f, g, o]
    and every gradient accumulated inside the time loop: the plain textbook
    recurrence, against which ``capstate.model.autograd.lstm`` (gates
    reordered, feature-major, gradients batched after the loop) agrees to
    rounding."""
    bsz, t, _ = x.shape
    hdim = wh.shape[0]
    hs, gi, gf, gg, go, cs = (np.zeros((bsz, t, hdim)) for _ in range(6))
    h = np.zeros((bsz, hdim))
    c = np.zeros((bsz, hdim))
    for step in range(t):
        z = x[:, step, :] @ wx + h @ wh + b
        i = 1.0 / (1.0 + np.exp(-z[:, :hdim]))
        f = 1.0 / (1.0 + np.exp(-z[:, hdim : 2 * hdim]))
        g = np.tanh(z[:, 2 * hdim : 3 * hdim])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * hdim :]))
        c = f * c + i * g
        h = o * np.tanh(c)
        gi[:, step, :] = i
        gf[:, step, :] = f
        gg[:, step, :] = g
        go[:, step, :] = o
        cs[:, step, :] = c
        hs[:, step, :] = h

    dx = np.zeros_like(x)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * hdim)
    dh_carry = np.zeros((bsz, hdim))
    dc_carry = np.zeros((bsz, hdim))
    dz = np.zeros((bsz, 4 * hdim))
    for step in range(t - 1, -1, -1):
        dh = grad_hs[:, step, :] + dh_carry
        i = gi[:, step, :]
        f = gf[:, step, :]
        g = gg[:, step, :]
        o = go[:, step, :]
        tc = np.tanh(cs[:, step, :])
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        c_prev = cs[:, step - 1, :] if step > 0 else np.zeros((bsz, hdim))
        dz[:, :hdim] = dc * g * i * (1.0 - i)
        dz[:, hdim : 2 * hdim] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * hdim : 3 * hdim] = dc * i * (1.0 - g * g)
        dz[:, 3 * hdim :] = dh * tc * o * (1.0 - o)
        dwx += x[:, step, :].T @ dz
        if step > 0:
            dwh += hs[:, step - 1, :].T @ dz
        db += dz.sum(axis=0)
        dx[:, step, :] = dz @ wx.T
        dh_carry = dz @ wh.T
        dc_carry = dc * f
    return (hs, gi, gf, gg, go, cs), (dx, dwx, dwh, db)


def conv1d_fwd_reference(x, w, b, dilation, stride):
    """The causal conv forward over a time-major (T, B, C_in) sequence as one
    ``np.matmul`` per tap: the output steps (T - 1) % stride, ..., T - 1 get
    x[t] @ w[0], then ``b``, then x[t - d k] @ w[k] for k = 1, 2, ... where
    t - d k >= 0, added in that order. With C_in = 1 every product is a
    single multiply, so ``autograd._conv1d_fwd`` must match it bit for bit."""
    t = x.shape[0]
    steps = np.arange((t - 1) % stride, t, stride)
    y = np.matmul(x[steps], w[0])
    y += b
    for k in range(1, w.shape[0]):
        src = steps - dilation * k
        m0 = int(np.searchsorted(src, 0))  # the first output step this tap reaches
        if m0 < len(steps):
            y[m0:] += np.matmul(x[src[m0:]], w[k])
    return y


def collect_activations(params, arch, batch) -> dict[str, np.ndarray]:
    """Inference-mode forward that exposes internal sequence activations as
    (B, T', C) arrays (used by the causality/receptive-field probes). Conv
    front-end and LSTM activations cover every step (T' = T); TCN block i's
    output ``{mod}.tcn{i}`` covers only the next block's grid, steps
    (T - 1) % d_{i+1}, ..., T - 1 in steps of d_{i+1}, and the last block's
    only step T - 1."""
    acts: dict = {}
    build_graph(wrap_params(params), arch, batch, collect=acts)
    return {k: v.data.swapaxes(0, 1) for k, v in acts.items()}


def focal_loss(p, y: int, gamma: float, epsilon: float) -> float:
    """Scalar focal loss for one probability pair:
    -sum_c q_c (1 - p_c)^gamma ln p_c with q the smoothed one-hot target;
    the oracle of ``capstate.model.losses.focal_loss_vector``."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_FLOOR, 1.0)
    q = _smoothed_targets(np.array([y]), epsilon)[0]
    return float(-(q * (1.0 - p) ** gamma * np.log(p)).sum())


def partial_eta_sq_from_f(f: float, df1: float, df2: float) -> float:
    """Partial eta squared from an F statistic and its degrees of freedom,
    against which RM-ANOVA's ``partial_eta_sq`` (from sums of squares) is
    checked."""
    return f * df1 / (f * df1 + df2)


def clip_low_reference(a, lo):
    """max(a, lo) as a select: ``a`` where a > lo, else ``lo``; so NaN gives
    ``lo`` and -0.0 gives +0.0 against lo = 0.0."""
    return np.where(a > lo, a, lo)


def tcn_reference(p, arch, mod, h, collect):
    """The TCN backbone at full length: every block's dilated causal convs over
    all T steps (``conv1d_causal(..., dilation=d)``), pooled by the last step.
    Same signature and parameters as ``capstate.model.network._tcn``, which
    runs each block only on the time grid the last step reads."""
    for i, d in enumerate(arch.tcn_dilations):
        u = ag.relu(ag.conv1d_causal(h, p[f"{mod}.tcn{i}.conv1.W"], p[f"{mod}.tcn{i}.conv1.b"], dilation=d))
        u = ag.conv1d_causal(u, p[f"{mod}.tcn{i}.conv2.W"], p[f"{mod}.tcn{i}.conv2.b"], dilation=d)
        if f"{mod}.tcn{i}.res.W" in p:
            res = ag.conv1d_causal(h, p[f"{mod}.tcn{i}.res.W"], p[f"{mod}.tcn{i}.res.b"])
        else:
            res = h
        h = ag.relu(ag.add(u, res))
        if collect is not None:
            collect[f"{mod}.tcn{i}"] = h
    return ag.last_step(h)


def _welch_reference(values, rate_hz, segment_len, segment_overlap, nfft):
    """Welch PSD of one trace, its segments stacked one at a time."""
    step = max(1, int(round(segment_len * (1.0 - segment_overlap))))
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    segs = np.stack([values[s : s + segment_len] for s in range(0, len(values) - segment_len + 1, step)])
    means = segs.mean(axis=1)
    spec = fft_radix2(np.pad((segs - means[:, None]) * w, ((0, 0), (0, nfft - segment_len))))
    half = nfft // 2
    p = (spec[:, : half + 1].real ** 2 + spec[:, : half + 1].imag ** 2) / (rate_hz * (w @ w))
    p[:, 1:half] *= 2.0
    p[:, 0] += means**2 / (rate_hz / nfft)
    return np.arange(half + 1) * rate_hz / nfft, p.mean(axis=0)


def _hrv_window_reference(x):
    """The 14 HRV features of one 2 Hz IBI window."""
    d = np.diff(x)
    hr = 60000.0 / x
    freqs, power = _welch_reference(x - x.mean(), GRID_HZ, min(cardiac.HRV_SEGMENT_LEN, len(x)), 0.5,
                                    cardiac.HRV_NFFT)

    def band(lo, hi):
        sel = (freqs >= lo) & (freqs <= hi)
        return float(np.trapezoid(power[sel], freqs[sel])) if sel.sum() >= 2 else 0.0

    lf, hf, total = band(*cardiac.LF_BAND), band(*cardiac.HF_BAND), band(*cardiac.TOTAL_BAND)
    sd1 = np.sqrt(np.mean(d * d) / 2.0)
    sd2 = np.std(x[1:] + x[:-1]) / np.sqrt(2.0)
    return np.array([
        x.mean(), x.std(), np.sqrt(np.mean(d * d)), 100.0 * np.mean(np.abs(d) > 50.0), x.std() / x.mean(),
        hr.mean(), hr.std(),
        lf, hf, lf / hf if hf > 1e-12 else 0.0, total,
        sd1, sd2, sd1 / sd2 if sd2 > 1e-12 else 0.0,
    ])


def _eda_window_reference(raw, tonic, phasic, start_s, peaks, amps):
    """The 12 EDA features of one 2 Hz window that starts at ``start_s``,
    given the peak times and amplitudes of the SCR events that belong to it."""
    peak_mean = 0.0
    if len(amps):
        idx = np.round((peaks - start_s) * GRID_HZ).astype(int)
        peak_mean = float(phasic[np.clip(idx, 0, len(phasic) - 1)].mean())
    t = np.arange(len(tonic), dtype=np.float64)
    t -= t.mean()
    slope = np.sum(t * (tonic - tonic.mean())) / np.sum(t * t)
    return np.array([
        raw.mean(), raw.std(), raw.min(), raw.max(),
        tonic.mean(), tonic.std(), slope * GRID_HZ, tonic.max() - tonic.min(),
        amps.mean() if len(amps) else 0.0, amps.std() if len(amps) else 0.0, len(amps), peak_mean,
    ], dtype=float)


def window_features_reference(rec, plan: WindowingPlan = WindowingPlan(),
                              cvx_params: eda.CvxEdaParams = eda.CvxEdaParams()):
    """``(f_hrv, f_eda)`` of ``rec``'s windows, one window at a time: the
    chain and cut of ``capstate.pipeline.window_recording``, then a loop over
    the rows that windows the SCR list by onset from the IBI window's start
    and runs one-trace feature bodies. ``window_recording`` computes the same
    features on the window matrices and must match this bit for bit."""
    ibi_2hz = cardiac.ibi_to_uniform(cardiac.build_ibi(cardiac.detect_r_peaks(rec.ecg)))
    eda_proc = eda.preprocess_eda(rec.eda)
    decomp = eda.cvxeda_decompose(eda_proc, cvx_params)
    onsets, peaks, amplitudes = eda.detect_scrs(decomp.phasic)
    start, end = max(ibi_2hz.start_s, eda_proc.start_s), min(ibi_2hz.end_s, eda_proc.end_s)
    streams = [pipeline._crop(s, start, end) for s in
               (ibi_2hz, eda_proc, resample_uniform(rec.eda, GRID_HZ), decomp.tonic, decomp.phasic)]
    n = min(len(s) for s in streams)
    first = plan.starts(n)
    ibi, _, raw, tonic, phasic = (sliding_window_view(s.values[:n], plan.window_len_samples)[first]
                                  for s in streams)
    ibi_starts, eda_starts = (s.start_s + first / GRID_HZ for s in (streams[0], streams[4]))
    duration_s = plan.window_len_samples / GRID_HZ
    f_hrv, f_eda = [], []
    for k in range(len(first)):
        in_window = (ibi_starts[k] <= onsets) & (onsets < ibi_starts[k] + duration_s)
        f_hrv.append(_hrv_window_reference(ibi[k]))
        f_eda.append(_eda_window_reference(raw[k], tonic[k], phasic[k], eda_starts[k], peaks[in_window],
                                           amplitudes[in_window]))
    return np.array(f_hrv), np.array(f_eda)


class ReducedProblemReference:
    """``capstate.eda._ReducedProblem`` as it was when each iteration ran two
    splits: the oracle of :func:`cvxeda_decompose_reference`."""

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


def cvxeda_decompose_reference(x: UniformSeries, params: CvxEdaParams = CvxEdaParams()) -> EdaDecomposition:
    """``capstate.eda.cvxeda_decompose`` as it was when each iteration ran
    ``smooth_grad(y)`` and ``objective(z)``, each with its own split (two
    forward operators, two tonic fits and one adjoint), and a last split
    for the result: the oracle of the loop that carries the residual.

    Raises :class:`NumericalError` with the final KKT residual when neither
    the relative-objective nor the KKT tolerance is met within ``max_iters``.
    """
    if len(x.values) < 30:
        raise ValueError("decomposition needs at least 30 samples")
    prob = ReducedProblemReference(np.asarray(x.values, dtype=np.float64), x.rate_hz, params)
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


def tonic_basis_by_column(n: int, rate_hz: float, knot_spacing_s: float) -> np.ndarray:
    """``capstate.eda._tonic_basis`` as it was when it evaluated the splines
    one column at a time: its byte oracle."""
    t = np.arange(n) / rate_hz
    n_knots = int(np.ceil(t[-1] / knot_spacing_s)) + 1
    centers = np.arange(-1, n_knots + 1) * knot_spacing_s
    return np.column_stack([_bspline3((t - c) / knot_spacing_s) for c in centers])


def thomas_reference(off, diag, rhs):
    """``capstate.dsp._thomas`` as it was when both sweeps indexed numpy
    arrays: its byte oracle."""
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


class ReducedProblemUnstacked:
    """``capstate.eda._ReducedProblem`` as it was when the loop kept each
    point and its residual in separate arrays: the oracle of
    :func:`cvxeda_decompose_unstacked`, on the column-by-column basis."""

    def __init__(self, x: np.ndarray, rate_hz: float, params: CvxEdaParams):
        self.x = x
        self.n = len(x)
        dt = 1.0 / rate_hz
        # the kernel spans 12 tau1, cut to the record: only the samples a convolution reads
        m = min(self.n, math.ceil(12.0 * params.tau1_s / dt))
        # scaled by dt once; the forward correlates with it reversed
        self.kernel = bateman_kernel(np.arange(m) * dt, params.tau0_s, params.tau1_s) * dt
        self._reversed = self.kernel[::-1].copy()
        self.alpha = params.alpha

        self.basis = tonic_basis_by_column(self.n, rate_hz, params.tonic_knot_spacing_s)
        d2 = np.diff(np.eye(self.basis.shape[1]), 2, axis=0)
        # pinv's rcond, not a normal-equations solve: at wide knot spacings
        # the splines are nearly collinear, and the normal matrix would
        # square their condition number
        pinv = np.linalg.pinv(np.vstack([self.basis, np.sqrt(2.0 * params.gamma_tonic) * d2]), rcond=1e-10)
        self.p1 = pinv[:, : self.n]  # maps (x - M r) to the optimal tonic coefficients

    def forward(self, r: np.ndarray) -> np.ndarray:
        """M r: the driver convolved with the kernel."""
        return np.correlate(r, self._reversed, "full")[: self.n]

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """M^T v."""
        m = len(self.kernel)
        return np.correlate(v, self.kernel, "full")[m - 1 : m - 1 + self.n]

    def split(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w = x - M r, what the tonic block fits for driver r, and the
        residual u = w - B z its optimal coefficients z leave. The normal
        equations give B^T u = 2 gamma D2^T D2 z, so w . u is
        ||u||^2 + 2 gamma ||D2 z||^2. Both are affine in r."""
        w = self.x - self.forward(r)
        return w, w - self.basis @ (self.p1 @ w)

    def objective(self, r: np.ndarray, w: np.ndarray, u: np.ndarray) -> float:
        """The objective at r, from r's split (w, u)."""
        return float(0.5 * w @ u + self.alpha * r.sum())

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """alpha - M^T u, the objective's gradient on r >= 0 at the driver
        whose residual is u: z is optimal for every r (the envelope
        theorem)."""
        g = self.adjoint(u)
        return np.subtract(self.alpha, g, out=g)

    def lipschitz(self) -> float:
        rng = np.random.default_rng(0)
        v = rng.normal(size=self.n)
        v /= np.linalg.norm(v)
        lam = 1.0
        for _ in range(30):
            w = self.adjoint(self.forward(v))
            lam = np.linalg.norm(w)
            if lam == 0.0:
                return 1.0
            v = w / lam
        return float(lam) * 1.05

    def kkt_residual(self, r: np.ndarray, u: np.ndarray) -> float:
        """The KKT residual at r, from r's residual u."""
        g = self.gradient(u)
        active = r > 1e-12
        res_active = np.abs(g[active]).max() if active.any() else 0.0
        res_bound = np.maximum(-g[~active], 0.0).max() if (~active).any() else 0.0
        return float(max(res_active, res_bound))


def cvxeda_decompose_unstacked(x: UniformSeries, params: CvxEdaParams = CvxEdaParams()) -> EdaDecomposition:
    """``capstate.eda.cvxeda_decompose`` as it was when the loop kept the
    iterate, the extrapolated point and their residuals in separate arrays
    and built each extrapolation from temporaries: the byte oracle of the
    loop on stacked ``[driver | residual]`` buffers.

    Raises :class:`NumericalError` with the final KKT residual when neither
    the relative-objective nor the KKT tolerance is met within ``max_iters``.
    """
    if len(x.values) < 30:
        raise ValueError("decomposition needs at least 30 samples")
    prob = ReducedProblemUnstacked(np.asarray(x.values, dtype=np.float64), x.rate_hz, params)
    step = 1.0 / prob.lipschitz()

    r = np.zeros(prob.n)
    w_r, u_r = prob.split(r)
    y, u_y = r, u_r  # the extrapolated point and its residual
    t_momentum = 1.0
    f_curr = prob.objective(r, w_r, u_r)
    trace = [f_curr]
    kkt = prob.kkt_residual(r, u_r)
    converged = kkt < params.tol_kkt
    iters = 0

    while not converged and iters < params.max_iters:
        iters += 1
        z = prob.gradient(u_y)
        z *= -step
        z += y
        np.maximum(z, 0.0, out=z)
        w_z, u_z = prob.split(z)
        f_z = prob.objective(z, w_z, u_z)
        if f_z <= f_curr:
            rel = (f_curr - f_z) / max(abs(f_curr), 1e-15)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            beta = (t_momentum - 1.0) / t_next
            y = z + beta * (z - r)
            u_y = u_z + beta * (u_z - u_r)
            r, w_r, u_r, t_momentum = z, w_z, u_z, t_next
            f_curr = f_z
            # the relative-change criterion only counts genuine descent steps
            if rel < params.tol_objective or iters % 25 == 0:
                kkt = prob.kkt_residual(r, u_r)
                converged = kkt < params.tol_kkt or rel < params.tol_objective
        else:
            # overshoot from momentum: restart so the next step is plain
            # proximal descent from the current iterate (guaranteed decrease)
            t_momentum = 1.0
            y, u_y = r, u_r
        trace.append(f_curr)

    if not converged:
        kkt = prob.kkt_residual(r, u_r)
        raise NumericalError(
            f"cvxeda_decompose: no convergence in {params.max_iters} iterations "
            f"(KKT residual {kkt:.3e})"
        )

    return EdaDecomposition(
        tonic=x.replace_values(w_r - u_r),
        phasic=x.replace_values(prob.x - w_r),
        driver=x.replace_values(r),
        residual=x.replace_values(u_r),
        objective_trace=np.asarray(trace),
        kkt_residual=kkt,
        iterations=iters,
    )


def criterion_5_traces() -> tuple[tuple[np.ndarray, int], np.ndarray]:
    """Acceptance criterion 5's two 2 Hz EDA traces: a single unit pulse on
    a flat tonic with light noise (240 samples) with its onset sample, and
    a 45-minute trace of 60 pulses on a slow sine (5400 samples)."""
    rng = np.random.default_rng(5)
    kernel = bateman_kernel(np.arange(0.0, 40.0, 0.5), 0.7, 2.0)
    kernel = kernel / kernel.max()
    n, onset_idx = 240, 60
    sig = np.full(n, 2.0)
    sig[onset_idx : onset_idx + len(kernel)] += kernel[: n - onset_idx]
    sig = sig + rng.normal(0, 0.005, n)
    n2 = 5400
    sig2 = 2.0 + 0.3 * np.sin(2 * np.pi * np.arange(n2) / n2)
    for onset in rng.uniform(0, 2600, 60):
        i0 = int(onset * 2)
        seg = min(len(kernel), n2 - i0)
        sig2[i0 : i0 + seg] += rng.uniform(0.2, 0.9) * kernel[:seg]
    return (sig, onset_idx), sig2 + rng.normal(0, 0.01, n2)


def digests_by_blas_threads(script: str) -> list[str]:
    """stdout of ``python -c script`` run once with ``OPENBLAS_NUM_THREADS=1``
    and once with ``=2`` (the script prints digests of what it computes)."""
    src = str(Path(capstate.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(proc.stdout.strip())
    return out


def sample_times(series) -> np.ndarray:
    """The time of each sample of a ``UniformSeries``."""
    return series.start_s + np.arange(len(series)) / series.rate_hz


def direct_periodogram(x: np.ndarray, fs: float, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-segment Hann periodogram by explicit DFT sums, mean removed and
    reassigned to the DC bin (same spectral conventions as welch_psd, but an
    independent O(n^2) computation path)."""
    n = len(x)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    m = x.mean()
    y = np.zeros(nfft)
    y[:n] = (x - m) * w
    half = nfft // 2
    freqs = np.arange(half + 1) * fs / nfft
    power = np.zeros(half + 1)
    t = np.arange(nfft)
    for k in range(half + 1):
        re = float(np.sum(y * np.cos(-2.0 * np.pi * k * t / nfft)))
        im = float(np.sum(y * np.sin(-2.0 * np.pi * k * t / nfft)))
        power[k] = (re * re + im * im) / (fs * (w @ w))
    power[1:half] *= 2.0
    power[0] += m * m / (fs / nfft)
    return freqs, power


def brute_hrv_time(x: np.ndarray) -> np.ndarray:
    """Literal-formula HRV time features, written independently of the
    vectorized implementation."""
    n = len(x)
    mean = sum(x) / n
    sdnn = (sum((v - mean) ** 2 for v in x) / n) ** 0.5
    diffs = [x[i + 1] - x[i] for i in range(n - 1)]
    rmssd = (sum(d * d for d in diffs) / len(diffs)) ** 0.5
    pnn50 = 100.0 * sum(1 for d in diffs if abs(d) > 50.0) / len(diffs)
    cv = sdnn / mean
    hr = [60000.0 / v for v in x]
    hr_mean = sum(hr) / n
    hr_sd = (sum((v - hr_mean) ** 2 for v in hr) / n) ** 0.5
    return np.array([mean, sdnn, rmssd, pnn50, cv, hr_mean, hr_sd])


def pt_scan_reference(cand_idx, cand_val, refr_samples, spki0, npki0):
    """The Pan-Tompkins threshold scan as first written, with a preallocated
    output, an 8-slot RR ring buffer summed by hand and numeric sentinels;
    ``capstate.cardiac._pt_scan_loop`` must accept the same candidates."""
    m = cand_idx.shape[0]
    accepted = np.empty(m, np.int64)
    n_acc = 0
    spki = spki0
    npki = npki0
    rr = np.zeros(8)
    n_rr = 0
    last_t = -1.0e18
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


def moving_window_integral_reference(x: np.ndarray, half_width: int) -> np.ndarray:
    """The centered moving average as first written: every sample gathers its
    cumulative sums through clipped index arrays;
    ``capstate.cardiac._moving_window_integral`` must match it bit for bit."""
    n = len(x)
    c = np.concatenate(([0.0], np.cumsum(x)))
    lo = np.clip(np.arange(n) - half_width, 0, n)
    hi = np.clip(np.arange(n) + half_width + 1, 0, n)
    return (c[hi] - c[lo]) / (hi - lo)


def centered_running_max_reference(x: np.ndarray, half_width: int) -> np.ndarray:
    """The doubling running max with a fresh array per doubling;
    ``capstate.cardiac._centered_running_max`` must match it bit for bit."""
    n, w = len(x), 2 * half_width + 1
    pad = np.full(half_width, -np.inf)
    m = np.concatenate([pad, x, pad])
    span = 1
    while 2 * span <= w:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[:n], m[w - span : w - span + n])


def detect_r_peaks_full_rate(ecg):
    """``capstate.cardiac.detect_r_peaks`` as it was when every stage ran at
    the ECG's own rate, with its rule for a beat at either end of the record
    (an end sample the MWI rises toward is a candidate; a refined maximum
    on the first or last sample is dropped): the oracle for the block-mean
    scan, which must give the same peak times on clean ECG and about the
    same F1 on noisy ECG."""
    rate = ecg.rate_hz
    if rate < 200.0:
        raise ValueError(f"ECG rate {rate} Hz is below the 200 Hz minimum")
    if ecg.duration_s < 10.0:
        raise ValueError("ECG shorter than 10 s")

    squared = _squared_slope(butterworth_bandpass(ecg, 2, 5.0, 15.0).values, rate)
    mwi = _moving_window_integral(squared, int(round(0.075 * rate)))
    del squared  # the running max's two buffers take its place

    widest = _centered_running_max(mwi, int(round(0.1 * rate)))
    peak = np.empty(len(mwi), dtype=bool)
    peak[1:-1] = (mwi[1:-1] > mwi[:-2]) & (mwi[1:-1] >= mwi[2:])
    peak[0], peak[-1] = mwi[0] > mwi[1], mwi[-1] > mwi[-2]
    cand_idx = np.nonzero(peak & (mwi == widest))[0]
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
    refined = refined[(refined > 0) & (refined < len(ecg.values) - 1)]

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


def linear_fit_reference(v: np.ndarray):
    """The least-squares line with a fresh array per operation;
    ``capstate.dsp.linear_fit`` must match it bit for bit."""
    t = np.arange(v.shape[-1], dtype=np.float64)
    t -= t.mean()
    mean = v.mean(axis=-1, keepdims=True)
    slope = np.sum(t * (v - mean), axis=-1) / (np.sum(t * t) or 1.0)
    return t, mean[..., 0], slope


def _run_cascade_reference(sections, blocks, zi):
    """The block IIR cascade with a fresh output buffer and a fresh carry
    product per section (the kernel of :func:`sosfiltfilt_reference`)."""
    out = np.empty_like(blocks)
    for (toeplitz, carry_out, a_pow_l, drive), (s0, s1) in zip(sections, zi.tolist()):
        (m00, m01), (m10, m11) = a_pow_l.tolist()
        states = []
        for d0, d1 in (blocks @ drive).tolist():
            states += [s0, s1]
            s0, s1 = m00 * s0 + m01 * s1 + d0, m10 * s0 + m11 * s1 + d1
        np.matmul(blocks, toeplitz, out=out)
        out += np.array(states).reshape(-1, 2) @ carry_out
        blocks, out = out, blocks
    return blocks


def sosfiltfilt_reference(design, x: np.ndarray, pad_samples: int = 0) -> np.ndarray:
    """The zero-phase IIR in three padded buffers, a fresh one per pass
    and a copy for the result; ``capstate.dsp._sosfiltfilt`` must match it
    bit for bit."""
    n = x.shape[0]
    padlen = min(n - 1, max(pad_samples, 24 * design.sos.shape[0], 32))
    m = n + 2 * padlen
    n_blocks = -(-m // design.sections[0][0].shape[0])
    forward = np.zeros((n_blocks, design.sections[0][0].shape[0]))
    ext = forward.reshape(-1)
    ext[:padlen] = 2.0 * x[0] - x[padlen:0:-1]
    ext[padlen : padlen + n] = x
    ext[padlen + n : m] = 2.0 * x[-1] - x[-2 : -padlen - 2 : -1]
    y = _run_cascade_reference(design.sections, forward, design.zi * ext[0]).reshape(-1)
    backward = np.zeros_like(forward)
    rev = backward.reshape(-1)
    rev[:m] = y[m - 1 :: -1]
    y = _run_cascade_reference(design.sections, backward, design.zi * rev[0]).reshape(-1)
    return y[m - 1 :: -1][padlen : padlen + n].copy()


def butterworth_lowpass_reference(values: np.ndarray, design, pad_samples: int) -> np.ndarray:
    """The zero-phase low-pass around its least-squares line, each step in
    a fresh array; ``capstate.dsp.butterworth_lowpass`` must match it bit for
    bit."""
    t, mean, slope = linear_fit_reference(values)
    line = mean + slope * t
    resid = sosfiltfilt_reference(design, values - line, pad_samples)
    return resid + line


def match_peaks_f1(detected: np.ndarray, truth: np.ndarray, tol_s: float = 0.02) -> float:
    """Greedy one-to-one matching within tol_s."""
    used = set()
    tp = 0
    for d in detected:
        j = int(np.argmin(np.abs(truth - d)))
        if abs(truth[j] - d) <= tol_s and j not in used:
            used.add(j)
            tp += 1
    if len(detected) == 0 or len(truth) == 0:
        return 0.0
    precision = tp / len(detected)
    recall = tp / len(truth)
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


# ---------------------------------------------------------------------------
# Fast feature-level dataset (no raw-signal preprocessing)
# ---------------------------------------------------------------------------


def make_feature_dataset(n_subjects=4, per_cond=12, seed=0, separation=1.2) -> WindowedDataset:
    """Directly constructed windowed dataset with a condition-graded shift in
    every channel; used to exercise training and LOSO without the signal chain."""
    rng = np.random.default_rng(seed)
    T = 120
    t = np.arange(T)
    parts = {k: [] for k in (
        "x_ibi", "x_eda", "f_hrv", "f_eda", "stress", "effort", "mask",
        "subject", "condition", "window_start_s")}
    for si in range(n_subjects):
        subj = f"s{si:02d}"
        base = rng.normal(0, 0.3)
        for ci, cond in enumerate(("c1", "c2", "c3")):
            g = ci / 2.0
            for w in range(per_cond):
                parts["x_ibi"].append(
                    base + g * separation + 0.3 * np.sin(2 * np.pi * t / 40 + rng.uniform(0, 6))
                    + rng.normal(0, 0.2, T))
                parts["x_eda"].append(
                    base + g * separation + 0.2 * np.cos(2 * np.pi * t / 60 + rng.uniform(0, 6))
                    + rng.normal(0, 0.2, T))
                parts["f_hrv"].append(rng.normal(0, 0.3, 14) + g * separation)
                parts["f_eda"].append(np.abs(rng.normal(0, 0.3, 12) + g * separation))
                parts["stress"].append(0 if cond == "c1" else 1)
                parts["effort"].append(0 if cond == "c1" else (1 if cond == "c3" else -1))
                parts["mask"].append(0 if cond == "c2" else 1)
                parts["subject"].append(subj)
                parts["condition"].append(cond)
                parts["window_start_s"].append(w * 15.0)
    return WindowedDataset(
        x_ibi=np.array(parts["x_ibi"]),
        x_eda=np.array(parts["x_eda"]),
        f_hrv=np.array(parts["f_hrv"]),
        f_eda=np.array(parts["f_eda"]),
        stress=np.array(parts["stress"]),
        effort=np.array(parts["effort"]),
        mask=np.array(parts["mask"]),
        subject=np.array(parts["subject"], dtype=object),
        condition=np.array(parts["condition"], dtype=object),
        window_start_s=np.array(parts["window_start_s"]),
    )


def make_fold(subject, centroids, conditions=("c1", "c2", "c3"), per_cond=4) -> FoldResult:
    """A fold result whose (U, O) output sits at ``centroids[condition]`` for
    every window of that condition, with the protocol's labels and mask."""
    cond = np.array([c for c in conditions for _ in range(per_cond)], dtype=object)
    u = np.array([centroids[c][0] for c in cond])
    o = np.array([centroids[c][1] for c in cond])
    stress = (cond != "c1").astype(int)
    effort = np.where(cond == "c2", -1, (cond == "c3").astype(int))
    mask = (cond != "c2").astype(int)
    return FoldResult(subject, cond, np.zeros(len(u)), u, o, stress, effort, mask)


TINY_ARCH = dict(
    conv_channels=4,
    lstm_hidden=4,
    feat_hidden=4,
    fusion_hidden=6,
    fusion_out=4,
    head_hidden=3,
    tcn_channels=4,
    tcn_dilations=(1, 2),
)
