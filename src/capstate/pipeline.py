"""Recording -> windowed samples, dataset container, and per-fold transforms.

A windowed sample is one 60 s (120-sample at 2 Hz) slice carrying the IBI and
EDA time series, the 14 + 12 handcrafted features, the condition labels and
the effort-validity mask. :class:`WindowedDataset` is the one table of such
rows: it is a model :class:`~capstate.model.network.Batch` plus subject,
condition and window start, so it goes straight into training and inference.
Features stored on disk and in the table are raw; the CV-gated log transform
and the per-subject z-scoring are applied per evaluation fold (they depend on
fold membership). Synthetic recordings write EDA at ``SYNTH_EDA_HZ``.
"""

from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cardiac, eda
from .dsp import GRID_HZ, UniformSeries, WindowingPlan, resample_uniform
from .ingest import CONDITION_LABELS, Condition, RawRecording, SyntheticSpec, generate_synthetic_recording
from .model.network import Batch, substream_seed

SYNTH_EDA_HZ = 32.0
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
    conditioning -> cvxEDA split -> SCR events; aligned windowing; then the
    HRV and EDA features of all windows at once, from the window matrices.
    ``window_start_s`` is the IBI stream's; an SCR belongs to the EDA window
    that holds its onset."""
    stress, effort, mask = CONDITION_LABELS[rec.condition]
    peaks = cardiac.detect_r_peaks(rec.ecg)
    ibi_2hz = cardiac.ibi_to_uniform(cardiac.build_ibi(peaks))
    eda_proc = eda.preprocess_eda(rec.eda)
    decomp = eda.cvxeda_decompose(eda_proc, cvx_params)
    events = eda.detect_scrs(decomp.phasic)

    # crop every 2 Hz stream to the common span, then cut all of them at the same start indices;
    # the raw EDA is downsampled without detrending, so its statistics keep absolute uS levels
    start = max(ibi_2hz.start_s, eda_proc.start_s)
    end = min(ibi_2hz.end_s, eda_proc.end_s)
    streams = [_crop(s, start, end) for s in
               (ibi_2hz, eda_proc, resample_uniform(rec.eda, GRID_HZ), decomp.tonic, decomp.phasic)]
    n = min(len(s) for s in streams)
    first = plan.starts(n)
    if len(first) == 0:
        raise ValueError(f"the 2 Hz streams share {n} samples ({start:.1f}-{end:.1f} s), "
                         f"fewer than one {plan.window_len_samples}-sample window")
    x_ibi, x_eda, raw, tonic, phasic = (
        sliding_window_view(s.values[:n], plan.window_len_samples)[first] for s in streams)
    rows = len(first)
    return WindowedDataset(
        x_ibi=x_ibi,
        x_eda=x_eda,
        f_hrv=cardiac.hrv_features(x_ibi),
        f_eda=eda.eda_features(raw, tonic, phasic, events, streams[4].start_s + first / GRID_HZ),
        stress=np.full(rows, stress, dtype=np.int64),
        effort=np.full(rows, effort, dtype=np.int64),
        mask=np.full(rows, mask, dtype=np.int64),
        subject=np.full(rows, rec.subject_id, dtype=object),
        condition=np.full(rows, rec.condition.value, dtype=object),
        window_start_s=streams[0].start_s + first / GRID_HZ,
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
    """Fitted on the training fold only; applied identically to held-out data.
    ``pooled_stats`` maps each block to its training (mean, SD) under
    train_fold_stats, and is None under self_per_subject."""

    log_transform: eda.LogTransform
    pooled_stats: dict | None = None


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


def _zscore_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population SD over every axis but the last, the SD floored at
    1e-8 so a constant dimension maps to zero."""
    axes = tuple(range(block.ndim - 1))
    return block.mean(axis=axes), np.maximum(block.std(axis=axes), 1e-8)


def fit_fold_transform(train: WindowedDataset, normalization_mode: str = "self_per_subject") -> FoldTransform:
    if normalization_mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {normalization_mode!r}")
    log_tr = eda.LogTransform.fit(train.f_eda)
    pooled = None
    if normalization_mode == "train_fold_stats":
        pooled = {name: _zscore_stats(block) for name, block in _fold_blocks(train, log_tr).items()}
    return FoldTransform(log_tr, pooled)


def normalize_per_subject(features: np.ndarray, subjects) -> np.ndarray:
    """Z-score each feature dimension within each subject.

    ``features`` has one row per window and the feature dimension last; the
    statistics pool every other axis, so an (N, d) matrix gets per-column
    stats and an (N, T, 1) series one scalar per subject. Uses the subject's
    own label-free statistics (:func:`_zscore_stats`).
    """
    features = np.asarray(features, dtype=np.float64)
    subjects = np.asarray(subjects)
    out = np.empty_like(features)
    for subj in np.unique(subjects):
        rows = np.nonzero(subjects == subj)[0]
        if len(rows) < 2:
            raise ValueError(f"subject {subj!r} has fewer than 2 windows")
        block = features[rows]
        mu, sd = _zscore_stats(block)
        out[rows] = (block - mu) / sd
    return out


def apply_fold_transform(ds: WindowedDataset, tr: FoldTransform) -> WindowedDataset:
    """Log-transform flagged EDA dims, then z-score features and time series:
    with the pooled training statistics when the transform holds them
    (held-out subjects included), else each subject with its own."""
    normalized = {}
    for name, block in _fold_blocks(ds, tr.log_transform).items():
        if tr.pooled_stats is None:
            z = normalize_per_subject(block, ds.subject)
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
        eda_rate_hz=SYNTH_EDA_HZ,
    )


# Seconds of a synthetic recording that fall outside the common 2 Hz span:
# the first beat comes at 0.5 s and the IBI grid starts one beat later; the
# last beat can come one beat plus 0.1 s before the end; and the crop to a
# common grid can drop one more 2 Hz step. The slowest synthetic beat is
# about 1.05 s, so the worst case is 3.2 s. (Measured over 30 seeds x 10
# subjects x 3 conditions: 62.5 s gave one recording no window, 63 s none.)
SYNTH_EDGE_S = 3.5


def min_synthetic_duration_s(plan: WindowingPlan) -> float:
    """Shortest synthetic recording that holds one complete window under
    ``plan`` and is long enough for EDA conditioning, which measures a
    series as (n - 1) steps of the synthetic ``SYNTH_EDA_HZ`` EDA."""
    return max(eda.MIN_DURATION_S + 1.0 / SYNTH_EDA_HZ, plan.window_len_samples / GRID_HZ + SYNTH_EDGE_S)


def make_synthetic_recordings(
    n_subjects: int,
    duration_s: float = 360.0,
    seed: int = 42,
    ecg_rate_hz: float = 512.0,
) -> list[RawRecording]:
    """One recording per subject x condition, subjects named sim01..simNN."""
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
