"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to
see the lines for passing criteria too).
"""

import os
import time

import numpy as np
import pytest

from capstate.cardiac import detect_r_peaks, hrv_nonlinear_features, hrv_time_features
from capstate.dsp import UniformSeries, butterworth_lowpass, welch_psd
from capstate.eda import cvxeda_decompose
from capstate.evaluation import (
    cohens_d,
    one_sample_t,
    paired_t,
    partial_eta_sq_from_f,
    rm_anova_oneway,
    run_loso,
)
from capstate.evaluation.report import summary_table, trajectory_summaries
from capstate.ingest import SyntheticSpec, bateman_kernel, generate_synthetic_recording
from capstate.metrics import classification_metrics
from capstate.model import ArchConfig, Batch, TrainConfig, focal_loss, init_params
from capstate.model.losses import masked_multitask_loss
from capstate.model.network import build_graph, wrap_params
from capstate.model.train import loss_and_grads
from capstate.model import autograd as ag
from capstate.model.autograd import Tensor
from capstate.pipeline import (
    WindowedDataset,
    concat_datasets,
    fit_fold_transform,
    make_synthetic_recordings,
    window_recording,
)
from conftest import (
    butterworth_power_response,
    make_feature_dataset,
    match_peaks_f1,
)
from test_metrics_stats import brute_anova_f, brute_metrics, brute_t


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness(monkeypatch):
    t0 = time.perf_counter()
    tiny = dict(
        conv_channels=4, lstm_hidden=4, feat_hidden=4, fusion_hidden=6,
        fusion_out=4, head_hidden=3, tcn_channels=4, tcn_dilations=(1, 2),
    )
    rng = np.random.default_rng(0)
    n, t = 3, 16
    batch = Batch(
        x_ibi=rng.normal(size=(n, t)), x_eda=rng.normal(size=(n, t)),
        f_hrv=rng.normal(size=(n, 14)), f_eda=rng.normal(size=(n, 12)),
        stress=np.array([0, 1, 1]), effort=np.array([1, -1, 0]), mask=np.array([1, 0, 1]),
    )
    cfg = TrainConfig()

    def loss_only(params, arch):
        p_s, p_e = build_graph(wrap_params(params), arch, batch)
        total, _, _ = masked_multitask_loss(
            p_s, p_e, batch.stress, batch.effort, batch.mask,
            cfg.gamma, cfg.label_smoothing, cfg.lambda_effort,
        )
        return float(total.data)

    h = 1e-4
    worst = 0.0
    # smooth activations keep the central-difference measurement valid at the
    # pinned step size; the relu path is checked at h=1e-6 in test_model.py.
    # The network looks ag.relu up at call time, so tanh stands in for it here
    monkeypatch.setattr(ag, "relu", ag.tanh)
    for backbone in ("lstm", "tcn"):
        arch = ArchConfig(backbone=backbone, **tiny)
        params = init_params(arch, 7)
        _, _, _, grads = loss_and_grads(params, arch, cfg, batch)
        for key in params:
            p = params[key]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + h
                fp = loss_only(params, arch)
                p[ix] = orig - h
                fm = loss_only(params, arch)
                p[ix] = orig
                fd = (fp - fm) / (2 * h)
                ad = grads[key][ix]
                worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd), 1e-3))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-4 and elapsed < 60.0,
        f"max relative gradient error {worst:.2e} (<=1e-4), both backbones, {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 2. Loss semantics
# ---------------------------------------------------------------------------


def test_criterion_2_loss_semantics():
    ce = focal_loss([0.5, 0.5], 0, gamma=0.0, epsilon=0.0)
    ce_ok = abs(ce - np.log(2.0)) <= 1e-9

    rng = np.random.default_rng(1)
    p_s = Tensor(rng.dirichlet([2, 2], size=5))
    p_e = Tensor(rng.dirichlet([2, 2], size=5))
    stress_y = rng.integers(0, 2, 5)
    total0, stress0, effort0 = masked_multitask_loss(
        p_s, p_e, stress_y, np.full(5, -1), np.zeros(5, dtype=int), 1.5, 0.05, 1.0
    )
    mask_ok = effort0 == 0.0 and float(total0.data) == stress0

    effort_y = rng.integers(0, 2, 5)
    total_l0, stress_l0, _ = masked_multitask_loss(
        p_s, p_e, stress_y, effort_y, np.ones(5, dtype=int), 1.5, 0.05, 0.0
    )
    lambda_ok = float(total_l0.data) == stress_l0

    report(
        2,
        ce_ok and mask_ok and lambda_ok,
        f"gamma=0 focal==CE ({abs(ce - np.log(2)):.1e}); sum(m)=0 -> effort term 0 (exact); "
        "lambda=0 -> total==stress (exact)",
    )


# ---------------------------------------------------------------------------
# 3. Signal oracles
# ---------------------------------------------------------------------------


def test_criterion_3_signal_oracles():
    # R peaks at SNR 10 dB
    spec = SyntheticSpec(
        duration_s=120.0, heart_rate_profile=((0.0, 1000.0),), ibi_jitter_ms=30.0,
        seed=7, ecg_rate_hz=512.0,
    )
    rec, truth = generate_synthetic_recording(spec)
    rms = np.sqrt(np.mean(rec.ecg.values**2))
    noisy = rec.ecg.values + np.random.default_rng(8).normal(0, rms / 10 ** (10 / 20), len(rec.ecg))
    peaks = detect_r_peaks(UniformSeries(noisy, 512.0))
    f1 = match_peaks_f1(peaks.times_s, truth.r_peak_times_s, tol_s=0.02)

    # Butterworth forward-backward vs analytic |H|^2 at 10 frequencies
    rate, order, cutoff = 32.0, 4, 1.0
    max_dev = 0.0
    for f in (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0):
        tt = np.arange(0, 240.0, 1.0 / rate)
        y = butterworth_lowpass(UniformSeries(np.sin(2 * np.pi * f * tt), rate), order, cutoff)
        lo, hi = len(tt) // 4, 3 * len(tt) // 4
        z = np.exp(-2j * np.pi * f * tt[lo:hi])
        measured = 2.0 * abs(np.sum(y.values[lo:hi] * z)) / (hi - lo)
        expected = butterworth_power_response(f, cutoff, order, rate)
        max_dev = max(max_dev, abs(measured - expected) / max(expected, 1e-12))

    # Welch band localization for pure tones
    shares = []
    for f in (0.1, 0.3):
        tt = np.arange(0, 60.0, 0.5)
        freqs, power = welch_psd(np.sin(2 * np.pi * f * tt), 2.0, 64, 0.5, nfft=128)
        nondc = freqs > 0
        band = nondc & (np.abs(freqs - f) <= 0.05)
        shares.append(power[band].sum() / power[nondc].sum())

    ok = f1 >= 0.99 and max_dev <= 0.05 and min(shares) >= 0.9
    report(
        3,
        ok,
        f"R-peak F1 {f1:.4f} (>=0.99); Butterworth |H|^2 dev {max_dev:.3f} (<=0.05, 10 freqs); "
        f"Welch tone localization {min(shares):.3f} (>=0.9)",
    )


# ---------------------------------------------------------------------------
# 4. Feature identities
# ---------------------------------------------------------------------------


def test_criterion_4_feature_identities():
    rng = np.random.default_rng(4)
    worst_sd1 = 0.0
    cv_exact = True
    for _ in range(1000):
        w = rng.uniform(400.0, 1500.0, 120)
        t7 = hrv_time_features(w)
        n3 = hrv_nonlinear_features(w)
        rel = abs(n3[0] - t7[2] / np.sqrt(2.0)) / (t7[2] / np.sqrt(2.0))
        worst_sd1 = max(worst_sd1, rel)
        cv_exact = cv_exact and (t7[4] == t7[1] / t7[0])
    const7 = hrv_time_features(np.full(120, 800.0))
    const3 = hrv_nonlinear_features(np.full(120, 800.0))
    const_ok = np.array_equal(const7, [800.0, 0.0, 0.0, 0.0, 0.0, 75.0, 0.0]) and np.array_equal(
        const3, [0.0, 0.0, 0.0]
    )
    report(
        4,
        worst_sd1 <= 1e-9 and cv_exact and const_ok,
        f"SD1==RMSSD/sqrt(2) max rel dev {worst_sd1:.1e} over 1000 windows (<=1e-9); "
        "CV==SDNN/mean exact; constant-window zero pattern exact",
    )


# ---------------------------------------------------------------------------
# 5. cvxEDA solver
# ---------------------------------------------------------------------------


def test_criterion_5_cvxeda_solver():
    rng = np.random.default_rng(5)
    t_k = np.arange(0.0, 40.0, 0.5)
    kernel = bateman_kernel(t_k, 0.7, 2.0)
    kernel = kernel / kernel.max()

    # single pulse on flat tonic with light noise
    n = 240
    sig = np.full(n, 2.0)
    onset_idx = 60
    sig[onset_idx : onset_idx + len(kernel)] += kernel[: n - onset_idx]
    sig = sig + rng.normal(0, 0.005, n)
    dec = cvxeda_decompose(UniformSeries(sig, 2.0))
    monotone = bool(np.all(np.diff(dec.objective_trace) <= 1e-12))
    recon = np.abs(
        dec.tonic.values + dec.phasic.values + dec.residual.values - sig
    ).max()
    drv = dec.driver.values
    mass_near = drv[onset_idx - 1 : onset_idx + 2].sum() / drv.sum()
    amp_err = abs(dec.phasic.values.max() - 1.0)

    # 45-minute trace timing
    n2 = 5400
    sig2 = 2.0 + 0.3 * np.sin(2 * np.pi * np.arange(n2) / n2)
    for onset in rng.uniform(0, 2600, 60):
        i0 = int(onset * 2)
        seg = min(len(kernel), n2 - i0)
        sig2[i0 : i0 + seg] += rng.uniform(0.2, 0.9) * kernel[:seg]
    sig2 = sig2 + rng.normal(0, 0.01, n2)
    t0 = time.perf_counter()
    dec2 = cvxeda_decompose(UniformSeries(sig2, 2.0))
    elapsed = time.perf_counter() - t0
    monotone2 = bool(np.all(np.diff(dec2.objective_trace) <= 1e-12))

    ok = (
        monotone and monotone2 and recon <= 1e-6 and mass_near >= 0.8
        and abs(int(np.argmax(drv)) - onset_idx) <= 1 and amp_err <= 0.10 and elapsed < 30.0
    )
    report(
        5,
        ok,
        f"objective non-increasing; reconstruction {recon:.1e} (<=1e-6); driver mass near onset "
        f"{mass_near:.2f}, peak offset {abs(int(np.argmax(drv)) - onset_idx)} sample(s) (<=1), "
        f"amplitude error {amp_err:.3f} (<=0.10); 45-min trace {elapsed:.1f}s (<30s); "
        f"iterations {dec.iterations} and {dec2.iterations}, final KKT residuals "
        f"{dec.kkt_residual:.2e} and {dec2.kkt_residual:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Metrics and statistics vs brute force
# ---------------------------------------------------------------------------


def test_criterion_6_metrics_statistics():
    rng = np.random.default_rng(6)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(4, 30))
        true = rng.integers(0, 2, n)
        pred = rng.integers(0, 2, n)
        if len(set(true.tolist())) < 2:
            continue
        m = classification_metrics(pred, true)
        ref = brute_metrics(pred.tolist(), true.tolist())
        worst = max(worst, abs(m.ba - ref["ba"]), abs(m.macro_f1 - ref["macro_f1"]))
        checked += 1
    for _ in range(100):
        n = int(rng.integers(3, 25))
        vals = rng.normal(0.6, 0.2, n)
        t, _, _ = one_sample_t(vals, 0.5)
        worst = max(worst, abs(t - brute_t(vals.tolist(), 0.5)))
        a = rng.normal(0, 1, n)
        b = a + rng.normal(0.2, 0.3, n)
        t2, _, _ = paired_t(a, b)
        worst = max(worst, abs(t2 - brute_t((a - b).tolist(), 0.0)))
        x = rng.normal(size=(max(3, n // 3), 3)) + np.array([0.0, 0.4, 0.9])
        r = rm_anova_oneway(x)
        worst = max(worst, abs(r["F"] - brute_anova_f(x)) / max(abs(r["F"]), 1.0))

    d_vals = np.array([0.7 - 0.125 / np.sqrt(2), 0.7 + 0.125 / np.sqrt(2)])
    d = cohens_d(d_vals, 0.5)
    eta = partial_eta_sq_from_f(6.26, 2, 38)
    ok = worst <= 1e-9 and abs(d - 1.60) <= 0.01 and abs(eta - 0.248) <= 0.01
    report(
        6,
        ok,
        f"BA/F1/t/ANOVA vs brute force worst dev {worst:.1e} over 100 instances (<=1e-9); "
        f"d={d:.3f} (1.60 +/- 0.01); eta_p^2(F=6.26, 2/38)={eta:.3f} (0.248 +/- 0.01)",
    )


# ---------------------------------------------------------------------------
# 7. End-to-end synthetic LOSO
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_end_to_end_synthetic_loso():
    t0 = time.perf_counter()
    recs = make_synthetic_recordings(10, duration_s=420.0, seed=42)
    dataset = concat_datasets([window_recording(r) for r in recs])
    arch = ArchConfig(
        conv_channels=8, lstm_hidden=16, feat_hidden=16, fusion_hidden=32,
        fusion_out=16, head_hidden=8,
    )
    cfg = TrainConfig(
        max_epochs=60, lr=1e-3, batch_size=64, early_stop_warmup=20,
        early_stop_patience=12, val_subjects=3,
    )
    # folds are independent and their results do not depend on the process that runs them
    folds = run_loso(dataset, arch, cfg, parallel_folds=min(2, len(os.sched_getaffinity(0))), seed=42)
    elapsed = time.perf_counter() - t0
    summary = summary_table(folds)
    mean_stress = summary["stress"]["mean"]
    mean_effort = summary["effort"]["mean"]
    patterns = [s["pattern"] for s in trajectory_summaries(folds)]
    n_monotonic = sum(1 for p in patterns if p == "monotonic")
    ok = mean_stress >= 0.95 and mean_effort >= 0.95 and n_monotonic >= 8 and elapsed < 900.0
    report(
        7,
        ok,
        f"10-subject synthetic LOSO: mean stress BA {mean_stress:.3f}, mean effort BA "
        f"{mean_effort:.3f} (both >=0.95); monotonic trajectories {n_monotonic}/10 (>=8); "
        f"runtime {elapsed:.0f}s (<900s)",
    )


# ---------------------------------------------------------------------------
# 8. Protocol integrity
# ---------------------------------------------------------------------------


def test_criterion_8_protocol_integrity():
    ds = make_feature_dataset(n_subjects=4, per_cond=6, seed=2)
    target = ds.subjects()[1]
    arch = ArchConfig(
        conv_channels=4, lstm_hidden=4, feat_hidden=4, fusion_hidden=6,
        fusion_out=4, head_hidden=3,
    )
    cfg = TrainConfig(
        max_epochs=5, lr=2e-3, batch_size=32, early_stop_warmup=3,
        early_stop_patience=3, val_subjects=1,
    )

    def corrupt_if_target(held: WindowedDataset) -> WindowedDataset:
        if held.subject[0] != target:
            return held
        out = held.select(np.arange(len(held)))
        out.x_ibi = out.x_ibi + 3.0
        out.f_hrv = out.f_hrv * 1.7 + 0.5
        out.f_eda = np.abs(out.f_eda * 2.0 + 1.0)
        return out

    base = run_loso(ds, arch, cfg, seed=5)
    pert = run_loso(ds, arch, cfg, heldout_perturbation=corrupt_if_target, seed=5)
    leak_ok = True
    for b, p in zip(base, pert):
        if b.audit["params_digest"] != p.audit["params_digest"]:
            leak_ok = False
        if b.subject_id == target:
            if np.array_equal(b.u, p.u):
                leak_ok = False
        elif not (np.array_equal(b.u, p.u) and np.array_equal(b.o, p.o)):
            leak_ok = False

    # log flags and pooled normalization depend only on training subjects
    held = ds.subjects()[0]
    train = ds.for_subjects([s for s in ds.subjects() if s != held])
    corrupted = ds.select(np.arange(len(ds)))
    corrupted.f_eda = corrupted.f_eda.copy()
    corrupted.f_eda[corrupted.subject == held] *= 100.0
    train_c = corrupted.for_subjects([s for s in corrupted.subjects() if s != held])
    flags_ok = (
        fit_fold_transform(train).log_transform.flags.tolist()
        == fit_fold_transform(train_c).log_transform.flags.tolist()
    )
    pooled = fit_fold_transform(train, "train_fold_stats").pooled_stats["f_hrv"]
    pooled_c = fit_fold_transform(train_c, "train_fold_stats").pooled_stats["f_hrv"]
    stats_ok = np.allclose(pooled[0], pooled_c[0]) and np.allclose(pooled[1], pooled_c[1])

    report(
        8,
        leak_ok and flags_ok and stats_ok,
        "held-out perturbation changed exactly one fold's predictions with all trained "
        "parameters identical; log-transform flags and pooled normalization stats "
        "unchanged by held-out data",
    )


# ---------------------------------------------------------------------------
# 9. Optional real-dataset criterion
# ---------------------------------------------------------------------------


def test_criterion_9_real_dataset_optional():
    root = os.environ.get("CAPSTATE_SWELL_ROOT")
    if not root:
        print("ACCEPTANCE 9: SKIP - optional real-dataset criterion "
              "(set CAPSTATE_SWELL_ROOT to a converted SWELL-KW tree to enable)")
        pytest.skip("real dataset not available")
    from capstate.storage import read_windows_dir

    dataset = read_windows_dir(root)
    folds = run_loso(dataset, ArchConfig(), TrainConfig())
    summary = summary_table(folds)
    stress_ok = abs(summary["stress"]["mean"] - 0.700) <= 0.07
    effort_ok = abs(summary["effort"]["mean"] - 0.722) <= 0.07
    ablated = run_loso(
        dataset, ArchConfig(use_handcrafted_features=False), TrainConfig()
    )
    gap = summary_table(folds)["joint_average"]["mean"] - summary_table(ablated)["joint_average"]["mean"]
    joint = [f_full for f_full in folds]
    full_ba = [np.nanmean([f.ba("stress"), f.ba("effort")]) for f in joint]
    abl_ba = [np.nanmean([f.ba("stress"), f.ba("effort")]) for f in ablated]
    _, _, p = paired_t(full_ba, abl_ba)
    report(
        9,
        stress_ok and effort_ok and gap > 0 and p < 0.05,
        f"real-data LOSO: stress {summary['stress']['mean']:.3f} (0.700 +/- 0.07), effort "
        f"{summary['effort']['mean']:.3f} (0.722 +/- 0.07); feature-ablation gap {gap:+.3f} "
        f"(>0), p={p:.3g} (<0.05)",
    )
