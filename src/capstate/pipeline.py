"""Recording -> windowed samples, dataset container, and per-fold transforms.

A windowed sample is one 60 s (120-sample at 2 Hz) slice carrying the IBI and
EDA time series, the 14 + 12 handcrafted features, the condition labels and
the effort-validity mask. :class:`WindowedDataset` is the one table of such
rows: it is a model :class:`~capstate.model.network.Batch` plus subject,
condition and window start, so it goes straight into training and inference.
Features stored on disk and in the table are raw; the CV-gated log transform
and the per-subject z-scoring are applied per evaluation fold (they depend on
fold membership).
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cardiac, eda
from .dsp import UniformSeries, WindowingPlan
from .ingest import (
    Condition,
    RawRecording,
    SyntheticSpec,
    assign_labels,
    generate_synthetic_recording,
)
from .model.network import Batch

GRID_HZ = 2.0
NORMALIZATION_MODES = ("self_per_subject", "train_fold_stats")


@dataclass(kw_only=True)
class WindowedDataset(Batch):
    """Column-oriented window store for a set of subjects: the model batch
    columns (x_ibi, x_eda, f_hrv, f_eda, stress, effort, mask) plus these."""

    subject: np.ndarray  # (N,) str
    condition: np.ndarray  # (N,) str c1/c2/c3
    window_start_s: np.ndarray  # (N,)

    def subjects(self) -> list[str]:
        return sorted(set(self.subject.tolist()))

    def for_subjects(self, subjects) -> "WindowedDataset":
        wanted = set(subjects)
        rows = np.array([s in wanted for s in self.subject])
        return self.select(rows)


def concat_datasets(parts: list[WindowedDataset]) -> WindowedDataset:
    return WindowedDataset(
        **{f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(WindowedDataset)}
    )


# ---------------------------------------------------------------------------
# One recording -> windows
# ---------------------------------------------------------------------------


def window_recording(
    rec: RawRecording,
    plan: WindowingPlan = WindowingPlan(),
    cvx_params: eda.CvxEdaParams = eda.CvxEdaParams(),
) -> WindowedDataset:
    """Full per-recording chain: R peaks -> corrected IBI at 2 Hz; EDA
    conditioning -> cvxEDA split -> SCR events; aligned windowing; features."""
    labels = assign_labels(rec.condition)
    eda_raw = UniformSeries(rec.eda, rec.eda_rate_hz)
    peaks = cardiac.detect_r_peaks(UniformSeries(rec.ecg, rec.ecg_rate_hz))
    ibi_2hz = cardiac.ibi_to_uniform(cardiac.build_ibi(peaks), GRID_HZ)
    eda_proc = eda.preprocess_eda(eda_raw, GRID_HZ)
    decomp = eda.cvxeda_decompose(eda_proc, cvx_params)
    events = eda.detect_scrs(decomp.phasic)

    # crop every 2 Hz stream to the common span, then cut all of them at the same start indices
    start = max(ibi_2hz.start_s, eda_proc.start_s)
    end = min(ibi_2hz.end_s, eda_proc.end_s)
    streams = [_crop(s, start, end) for s in
               (ibi_2hz, eda_proc, eda.downsample_eda_raw(eda_raw, GRID_HZ), decomp.tonic, decomp.phasic)]
    n = min(len(s) for s in streams)
    first = plan.starts(n)
    if len(first) == 0:
        raise ValueError(f"the 2 Hz streams share {n} samples ({start:.1f}-{end:.1f} s), "
                         f"fewer than one {plan.window_len_samples}-sample window")
    cuts = [sliding_window_view(s.values[:n], plan.window_len_samples)[first] for s in streams]
    window_starts = [s.start_s + first / GRID_HZ for s in streams]
    window_dur = plan.window_len_samples / GRID_HZ
    rows = len(first)
    f_hrv, f_eda = [], []
    for k in range(rows):
        ibi_w, raw_w, tonic_w, phasic_w = (
            UniformSeries(cuts[j][k], GRID_HZ, window_starts[j][k]) for j in (0, 2, 3, 4)
        )
        evs = eda.events_in_window(events, ibi_w.start_s, window_dur)
        f_hrv.append(cardiac.hrv_features(ibi_w))
        f_eda.append(eda.eda_features(raw_w, tonic_w, phasic_w, evs))
    return WindowedDataset(
        x_ibi=cuts[0],
        x_eda=cuts[1],
        f_hrv=np.array(f_hrv),
        f_eda=np.array(f_eda),
        stress=np.full(rows, labels.stress.value, dtype=np.int64),
        effort=np.full(rows, labels.effort.value, dtype=np.int64),
        mask=np.full(rows, labels.mask, dtype=np.int64),
        subject=np.full(rows, rec.subject_id, dtype=object),
        condition=np.full(rows, rec.condition.value, dtype=object),
        window_start_s=window_starts[0],
    )


def _crop(x: UniformSeries, start_s: float, end_s: float) -> UniformSeries:
    i0 = int(np.ceil((start_s - x.start_s) * x.rate_hz - 1e-9))
    i1 = int(np.floor((end_s - x.start_s) * x.rate_hz + 1e-9)) + 1
    i0 = max(i0, 0)
    i1 = min(i1, len(x.values))
    return UniformSeries(x.values[i0:i1], x.rate_hz, x.start_s + i0 / x.rate_hz)


# ---------------------------------------------------------------------------
# Per-fold transform: CV-gated log on EDA features, then normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldTransform:
    """Fitted on the training fold only; applied identically to held-out data."""

    log_transform: eda.LogTransform
    normalization_mode: str  # "self_per_subject" or "train_fold_stats"
    pooled_stats: dict = field(default_factory=dict)

    def eda_log_flags(self) -> np.ndarray:
        return self.log_transform.flags.copy()


def _fold_blocks(ds: WindowedDataset, log_tr: eda.LogTransform) -> dict[str, np.ndarray]:
    """The four blocks a fold transform z-scores, each normalized over every
    axis but the last: features per column, and the time series, shaped
    (N, T, 1), as one scalar channel over all samples of all windows."""
    return {
        "f_hrv": ds.f_hrv,
        "f_eda": log_tr.apply(ds.f_eda),
        "x_ibi": ds.x_ibi[:, :, None],
        "x_eda": ds.x_eda[:, :, None],
    }


def fit_fold_transform(train: WindowedDataset, normalization_mode: str = "self_per_subject") -> FoldTransform:
    if normalization_mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {normalization_mode!r}")
    log_tr = eda.LogTransform.fit(train.f_eda)
    pooled = {}
    if normalization_mode == "train_fold_stats":
        for name, block in _fold_blocks(train, log_tr).items():
            axes = tuple(range(block.ndim - 1))
            pooled[name] = (block.mean(axis=axes), np.maximum(block.std(axis=axes), 1e-8))
    return FoldTransform(log_tr, normalization_mode, pooled)


def apply_fold_transform(ds: WindowedDataset, tr: FoldTransform) -> WindowedDataset:
    """Log-transform flagged EDA dims, then z-score features and time series.

    In self_per_subject mode every subject is normalized with its own
    label-free statistics; in train_fold_stats mode pooled training statistics
    are applied to everyone (held-out subjects included).
    """
    normalized = {}
    for name, block in _fold_blocks(ds, tr.log_transform).items():
        if tr.normalization_mode == "self_per_subject":
            z, _ = cardiac.normalize_per_subject(block, ds.subject)
        else:
            mu, sd = tr.pooled_stats[name]
            z = (block - mu) / sd
        normalized[name] = z.reshape(getattr(ds, name).shape)
    return replace(ds, **normalized)


# ---------------------------------------------------------------------------
# Synthetic multi-subject dataset with condition-graded autonomic shifts
# ---------------------------------------------------------------------------


def synthetic_condition_spec(
    subject_idx: int,
    condition: Condition,
    duration_s: float,
    seed: int,
    ecg_rate_hz: float = 512.0,
    eda_rate_hz: float = 32.0,
) -> SyntheticSpec:
    """Demand-graded generator settings: c1 -> c2 -> c3 shortens the IBI,
    damps respiratory HRV, and raises SCR rate and tonic level, with a
    deterministic per-subject baseline offset."""
    rng = np.random.default_rng(seed)
    base_ibi = 880.0 + 12.0 * (subject_idx % 7) + rng.uniform(-15.0, 15.0)
    grade = {"c1": 0.0, "c2": 0.4, "c3": 1.0}[condition.value]
    mean_ibi = base_ibi - 180.0 * grade
    hrv_amp = 55.0 - 35.0 * grade
    profile = []
    for t in np.arange(0.0, duration_s, 2.0):
        profile.append((float(t), float(mean_ibi + hrv_amp * np.sin(2 * np.pi * 0.1 * t))))
    scr_rate_per_min = 0.6 + 1.0 * grade + 2.4 * grade**2
    n_events = max(1, int(round(scr_rate_per_min * duration_s / 60.0)))
    onsets = np.sort(rng.uniform(5.0, duration_s - 20.0, n_events))
    amps = rng.uniform(0.15, 0.45, n_events) * (1.0 + 0.5 * grade + 0.7 * grade**2)
    return SyntheticSpec(
        duration_s=duration_s,
        heart_rate_profile=tuple(profile),
        ibi_jitter_ms=10.0 + 14.0 * grade,
        scr_events=tuple((float(o), float(a)) for o, a in zip(onsets, amps)),
        tonic_level_us=2.0 + 0.2 * (subject_idx % 5) + 1.4 * grade,
        tonic_drift_slope=2e-4 + 4e-4 * grade,
        noise_sd=0.01,
        ecg_noise_sd=0.02,
        seed=seed,
        ecg_rate_hz=ecg_rate_hz,
        eda_rate_hz=eda_rate_hz,
    )


def make_synthetic_recordings(
    n_subjects: int,
    duration_s: float = 360.0,
    seed: int = 42,
    ecg_rate_hz: float = 512.0,
) -> list[RawRecording]:
    """One recording per subject x condition, subjects named sim01..simNN."""
    from .model.network import substream_seed

    recordings = []
    for si in range(n_subjects):
        subject = f"sim{si + 1:02d}"
        for cond in Condition:
            spec = synthetic_condition_spec(
                si, cond, duration_s,
                seed=substream_seed(seed, "synth", subject, cond.value),
                ecg_rate_hz=ecg_rate_hz,
            )
            rec, _ = generate_synthetic_recording(spec)
            recordings.append(replace(rec, subject_id=subject, condition=cond))
    return recordings


def build_dataset(
    recordings: list[RawRecording],
    plan: WindowingPlan = WindowingPlan(),
    cvx_params: eda.CvxEdaParams = eda.CvxEdaParams(),
) -> WindowedDataset:
    return concat_datasets([window_recording(rec, plan, cvx_params) for rec in recordings])
