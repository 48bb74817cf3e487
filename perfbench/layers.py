"""Which capstate functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Span names are ``<layer>.<function>``, where the layer is the capstate module
(``dsp``, ``model.autograd``, ...). Autograd ops get two spans: ``.fwd`` for
the call and ``.bwd`` for the backward closure of the Tensor it returns.

Every run, traced or not, wraps the few ``PROBED`` functions whose spans
give the per-recording times, the detected R peaks and the training volume
that the end-to-end metrics and output checks need (see ``recordings``).
"""

import os
import statistics
from pathlib import Path

import numpy as np

LAYERS = (
    "ingest",
    "dsp",
    "cardiac",
    "eda",
    "pipeline",
    "storage",
    "config",
    "model.train",
    "model.network",
    "model.autograd",
    "model.losses",
    "model.optim",
    "evaluation",
    "stage",
)


def layer_of(span_name: str) -> str:
    for layer in sorted(LAYERS, key=len, reverse=True):
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return "stage"


# ---------------------------------------------------------------------------
# Counters attached to spans
# ---------------------------------------------------------------------------


def _count_filter_samples(tr, idx, args, kwargs, out):
    tr.add("dsp.filter.samples", len(out.values))


def _count_ibi(tr, idx, args, kwargs, out):
    tr.add("cardiac.ibi.corrected", float((~out.valid).sum()))
    tr.add("cardiac.ibi.total", float(len(out.valid)))


def _count_cvxeda(tr, idx, args, kwargs, out):
    tr.add("eda.cvxeda.iters", float(out.iterations))


def _count_file_bytes(counter):
    def hook(tr, idx, args, kwargs, out):
        tr.add(counter, float(os.path.getsize(args[0])))

    return hook


def _count_windows_dir_bytes(tr, idx, args, kwargs, out):
    tr.add("storage.read_windows_dir.bytes",
           float(sum(p.stat().st_size for p in Path(args[0]).glob("windows_*.csv"))))


def _count_train_fold(tr, idx, args, kwargs, out):
    epochs = len(out[1].rows)
    tr.add("model.train.train_fold.epochs", float(epochs))
    tr.add("model.train.train_fold.windows", float(epochs * len(args[0])))


def _note_recording(rec):
    return {"key": (rec.subject_id, rec.condition.value), "duration_s": float(rec.duration_s)}


def _note_loaded(tr, idx, args, kwargs, out):
    tr.attrs[idx].update(_note_recording(out))


def _note_windowed(tr, idx, args, kwargs, out):
    tr.attrs[idx].update(_note_recording(args[0]))


def _note_peaks(tr, idx, args, kwargs, out):
    """Keep the R peak times on the enclosing window_recording span."""
    parent = tr.spans[idx][3]
    while parent >= 0 and tr.spans[parent][0] != "pipeline.window_recording":
        parent = tr.spans[parent][3]
    if parent >= 0:
        tr.attrs[parent]["peaks"] = np.asarray(out.times_s, dtype=float)


def _wrap_backward(bwd_name):
    def hook(tr, idx, args, kwargs, out):
        if out._backward_fn is not None:
            out._backward_fn = tr.span(bwd_name, out._backward_fn)

    return hook


def targets(csv_bytes: dict | None = None):
    """(module, attribute, span name, hook) for every wrapped function.

    ``csv_bytes`` maps (subject, condition) to the bytes of that recording's
    two CSV files, known to the benchmark from its own set-up.
    """

    def count_csv(tr, idx, args, kwargs, out):
        _note_loaded(tr, idx, args, kwargs, out)
        if csv_bytes:
            tr.add("ingest.csv.bytes", float(csv_bytes.get((out.subject_id, out.condition.value), 0)))

    return [
        ("capstate.ingest", "read_sessions", "ingest.read_sessions", None),
        ("capstate.ingest", "load_recording", "ingest.load_recording", count_csv),
        ("capstate.dsp", "butterworth_bandpass", "dsp.butterworth_bandpass", None),
        ("capstate.dsp", "butterworth_lowpass", "dsp.butterworth_lowpass", _count_filter_samples),
        ("capstate.dsp", "butterworth_highpass", "dsp.butterworth_highpass", _count_filter_samples),
        ("capstate.dsp", "resample_uniform", "dsp.resample_uniform", None),
        ("capstate.dsp", "welch_psd", "dsp.welch_psd", None),
        ("capstate.dsp", "fft_radix2", "dsp.fft_radix2", None),
        ("capstate.dsp", "spline_fill", "dsp.spline_fill", None),
        ("capstate.cardiac", "detect_r_peaks", "cardiac.detect_r_peaks", _note_peaks),
        ("capstate.cardiac", "build_ibi", "cardiac.build_ibi", _count_ibi),
        ("capstate.cardiac", "hrv_features", "cardiac.hrv_features", None),
        ("capstate.eda", "preprocess_eda", "eda.preprocess_eda", None),
        ("capstate.eda", "cvxeda_decompose", "eda.cvxeda_decompose", _count_cvxeda),
        ("capstate.eda", "detect_scrs", "eda.detect_scrs", None),
        ("capstate.eda", "eda_features", "eda.eda_features", None),
        ("capstate.pipeline", "window_recording", "pipeline.window_recording", _note_windowed),
        ("capstate.pipeline", "fit_fold_transform", "pipeline.fit_fold_transform", None),
        ("capstate.pipeline", "apply_fold_transform", "pipeline.apply_fold_transform", None),
        ("capstate.storage", "write_windows_csv", "storage.write_windows_csv",
         _count_file_bytes("storage.write_windows_csv.bytes")),
        ("capstate.storage", "read_windows_dir", "storage.read_windows_dir", _count_windows_dir_bytes),
        ("capstate.storage", "write_fold_csv", "storage.write_fold_csv", None),
        ("capstate.config", "sha256_file", "config.sha256_file", _count_file_bytes("config.sha256_file.bytes")),
        ("capstate.model.train", "train_fold", "model.train.train_fold", _count_train_fold),
        ("capstate.model.train", "loss_and_grads", "model.train.loss_and_grads", None),
        ("capstate.model.train", "evaluate_balanced_accuracy", "model.train.evaluate_balanced_accuracy", None),
        ("capstate.model.network", "build_graph", "model.network.build_graph", None),
        ("capstate.model.network", "forward", "model.network.forward", None),
        ("capstate.model.autograd", "Tensor.backward", "model.autograd.backward", None),
        ("capstate.model.autograd", "lstm", "model.autograd.lstm.fwd", _wrap_backward("model.autograd.lstm.bwd")),
        ("capstate.model.autograd", "conv1d_causal", "model.autograd.conv1d_causal.fwd",
         _wrap_backward("model.autograd.conv1d_causal.bwd")),
        ("capstate.model.autograd", "matmul", "model.autograd.matmul", None),
        ("capstate.model.losses", "masked_multitask_loss", "model.losses.masked_multitask_loss", None),
        ("capstate.model.optim", "AdamW.step", "model.optim.AdamW.step", None),
        ("capstate.model.optim", "clip_global_norm", "model.optim.clip_global_norm", None),
        ("capstate.evaluation.loso", "run_loso", "evaluation.run_loso", None),
        ("capstate.evaluation.report", "build_stats_report", "evaluation.report.build_stats_report", None),
        ("capstate.evaluation.report", "summary_table", "evaluation.report.summary_table", None),
    ]


PROBED = ("ingest.load_recording", "pipeline.window_recording", "cardiac.detect_r_peaks",
          "model.train.train_fold")


def install(tracer, patcher, csv_bytes=None, only=None):
    """Wrap every target, or those whose span name is in ``only``."""
    for module, attr, name, hook in targets(csv_bytes):
        if only is None or name in only:
            patcher.wrap(module, attr, lambda fn, name=name, hook=hook: tracer.span(name, fn, hook))


def recordings(tracer, run, seconds=None) -> dict:
    """(subject, condition) -> duration_s, load_s, window_s and detected R
    peaks of the recordings one run loaded or windowed (load_s is 0 for a
    recording that was not read from CSV). ``seconds(start, end)`` gives a
    span's time, by default ``end - start``."""
    seconds = seconds or (lambda start, end: end - start)
    out = {}
    for idx, (name, start, end, _, run_id) in enumerate(tracer.spans):
        if run_id != run or name not in ("ingest.load_recording", "pipeline.window_recording"):
            continue
        attrs = tracer.attrs[idx]
        rec = out.setdefault(attrs["key"], {"load_s": 0.0, "window_s": 0.0})
        rec["duration_s"] = attrs["duration_s"]
        rec["load_s" if name == "ingest.load_recording" else "window_s"] += seconds(start, end)
        if "peaks" in attrs:
            rec["peaks"] = attrs["peaks"]
    return out


def train_windows_per_s(tracer, runs) -> float:
    """Training windows (forward + backward) per second of train_fold."""
    windows = sum(tracer.counts[r]["model.train.train_fold.windows"] for r in runs)
    seconds = sum(end - start for name, start, end, _, r in tracer.spans
                  if name == "model.train.train_fold" and r in runs)
    return _ratio(windows, seconds)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, counts: dict) -> dict:
    """Metric name -> (value, unit) from a span summary (see
    ``tracer.summarize``) and counters averaged per stage run. A function
    that never ran reports 0."""

    def s(name):
        return summary.get(name, {}).get("s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0.0)

    def c(name):
        return counts.get(name, 0.0)

    fold_durations = summary.get("model.train.train_fold", {}).get("durations", [])
    iters = c("eda.cvxeda.iters")
    steps = calls("model.optim.AdamW.step")
    m = {
        "ingest.load_recording.s": (s("ingest.load_recording"), "s"),
        "ingest.load_recording.calls": (calls("ingest.load_recording"), "count"),
        "ingest.csv.bytes": (c("ingest.csv.bytes"), "bytes"),
        "ingest.read_sessions.calls": (calls("ingest.read_sessions"), "count"),
        "dsp.butterworth_bandpass.s": (s("dsp.butterworth_bandpass"), "s"),
        "dsp.butterworth_lowpass.s": (s("dsp.butterworth_lowpass"), "s"),
        "dsp.filter.samples": (c("dsp.filter.samples"), "count"),
        "dsp.resample_uniform.s": (s("dsp.resample_uniform"), "s"),
        "dsp.welch_psd.s": (s("dsp.welch_psd"), "s"),
        "dsp.welch_psd.calls": (calls("dsp.welch_psd"), "count"),
        "dsp.fft_radix2.s": (s("dsp.fft_radix2"), "s"),
        "dsp.spline_fill.s": (s("dsp.spline_fill"), "s"),
        "cardiac.detect_r_peaks.s": (s("cardiac.detect_r_peaks"), "s"),
        "cardiac.detect_r_peaks.self_s": (self_s("cardiac.detect_r_peaks"), "s"),
        "cardiac.build_ibi.s": (s("cardiac.build_ibi"), "s"),
        "cardiac.ibi.corrected_share": (_ratio(c("cardiac.ibi.corrected"), c("cardiac.ibi.total")), "1"),
        "cardiac.hrv_features.s": (s("cardiac.hrv_features"), "s"),
        "cardiac.hrv_features.calls": (calls("cardiac.hrv_features"), "count"),
        "eda.preprocess_eda.s": (s("eda.preprocess_eda"), "s"),
        "eda.cvxeda_decompose.s": (s("eda.cvxeda_decompose"), "s"),
        "eda.cvxeda.iters": (iters, "count"),
        "eda.cvxeda.s_per_iter": (_ratio(s("eda.cvxeda_decompose"), iters), "s"),
        "eda.detect_scrs.s": (s("eda.detect_scrs"), "s"),
        "eda.eda_features.s": (s("eda.eda_features"), "s"),
        "pipeline.window_recording.s": (s("pipeline.window_recording"), "s"),
        "pipeline.window_recording.self_s": (self_s("pipeline.window_recording"), "s"),
        "pipeline.fit_fold_transform.s": (s("pipeline.fit_fold_transform"), "s"),
        "pipeline.apply_fold_transform.s": (s("pipeline.apply_fold_transform"), "s"),
        "storage.write_windows_csv.s": (s("storage.write_windows_csv"), "s"),
        "storage.write_windows_csv.bytes": (c("storage.write_windows_csv.bytes"), "bytes"),
        "storage.read_windows_dir.s": (s("storage.read_windows_dir"), "s"),
        "storage.read_windows_dir.bytes": (c("storage.read_windows_dir.bytes"), "bytes"),
        "storage.write_fold_csv.s": (s("storage.write_fold_csv"), "s"),
        "config.sha256_file.s": (s("config.sha256_file"), "s"),
        "config.sha256_file.bytes": (c("config.sha256_file.bytes"), "bytes"),
        "model.train.train_fold.s.p50": (statistics.median(fold_durations) if fold_durations else 0.0, "s"),
        "model.train.train_fold.epochs": (c("model.train.train_fold.epochs"), "count"),
        "model.train.train_fold.steps": (steps, "count"),
        "model.train.train_fold.windows_per_s": (
            _ratio(c("model.train.train_fold.windows"), s("model.train.train_fold")), "1/s"),
        "model.train.loss_and_grads.s_per_step": (
            _ratio(s("model.train.loss_and_grads"), calls("model.train.loss_and_grads")), "s"),
        "model.train.evaluate_balanced_accuracy.s": (s("model.train.evaluate_balanced_accuracy"), "s"),
        "model.network.build_graph.s": (s("model.network.build_graph"), "s"),
        "model.network.forward.s": (s("model.network.forward"), "s"),
        "model.autograd.backward.s": (s("model.autograd.backward"), "s"),
        "model.autograd.lstm.fwd_s": (s("model.autograd.lstm.fwd"), "s"),
        "model.autograd.lstm.bwd_s": (s("model.autograd.lstm.bwd"), "s"),
        "model.autograd.conv1d_causal.fwd_s": (s("model.autograd.conv1d_causal.fwd"), "s"),
        "model.autograd.conv1d_causal.bwd_s": (s("model.autograd.conv1d_causal.bwd"), "s"),
        "model.autograd.conv1d_causal.calls": (calls("model.autograd.conv1d_causal.fwd"), "count"),
        "model.autograd.matmul.calls": (calls("model.autograd.matmul"), "count"),
        "model.losses.masked_multitask_loss.s": (s("model.losses.masked_multitask_loss"), "s"),
        "model.optim.AdamW.step.s_per_step": (_ratio(s("model.optim.AdamW.step"), steps), "s"),
        "model.optim.clip_global_norm.s": (s("model.optim.clip_global_norm"), "s"),
        "evaluation.run_loso.s": (s("evaluation.run_loso"), "s"),
        "evaluation.report.build_stats_report.s": (s("evaluation.report.build_stats_report"), "s"),
        "evaluation.report.summary_table.s": (s("evaluation.report.summary_table"), "s"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer_self[layer_of(name)] += entry["self_s"]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = (value, "s")
    return m
