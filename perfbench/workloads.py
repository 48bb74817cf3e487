"""The benchmark's workloads: inputs made from a seed, the timed CLI stages,
and the checks on what the stages wrote.

preprocess-2048
    ``capstate preprocess`` on a CSV tree at SWELL rates (ECG 2048 Hz, EDA
    32 Hz), four subjects x three conditions, recording lengths drawn from
    the seed. Exercises ingest, dsp, cardiac, eda, pipeline and storage
    (write).
loso-lstm, loso-tcn
    ``capstate evaluate`` + ``capstate report`` on a windows tree that set-up
    builds from the criterion-7 synthetic cohort (4 subjects x 3 conditions x
    300 s at 512 Hz) through ``pipeline.window_recording``. Exercises storage
    (read), fold transforms, the model and the statistics. The signal chain
    runs in set-up only, so these workloads take the ``preprocess.*`` and
    ``rpeak_f1`` metrics from set-up (with no CSV load; see
    ``preprocess_metrics``); a training change should not move them.
    The TCN workload runs the same windows and config with
    ``ablation.backbone="tcn"`` and 5 epochs instead of 10: it is conv-heavy
    with no recurrence, so an LSTM-only change should not move it.

The timed stages run in this process through ``capstate.cli.main``, one
caller, back to back (closed loop), with ``parallel_folds=1``. Set-up runs
in a child process, so that ``peak_rss_mb`` is the stages' own peak. Every
end-to-end time is in reference seconds (see ``speed``).
"""
import contextlib
import dataclasses
import functools
import io
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from capstate import cli, ingest, pipeline, storage
from capstate.dsp import WindowingPlan
from capstate.ingest import Condition
from capstate.model.network import substream_seed

import layers
import speed
from tracer import Patcher, Tracer, summarize

GRID_HZ = 2.0  # rate of every windowed stream
EDA_HZ = 32.0
PEAK_TOL_S = 0.025

# Criterion 7's architecture and training config, cut to 10 epochs at a 10x
# learning rate (5 epochs for the TCN, whose step costs ~4x the LSTM's) and
# one inner validation subject (the cohort has four), so a run fits the
# benchmark's time limit. warmup = max_epochs, so early stopping cannot end a
# fold early and the amount of work never depends on the BA.
LOSO_ARCH = dict(conv_channels=8, lstm_hidden=16, feat_hidden=16, fusion_hidden=32,
                 fusion_out=16, head_hidden=8)
LOSO_TRAIN = dict(max_epochs=10, lr=1e-2, batch_size=64, early_stop_warmup=10,
                  early_stop_patience=12, val_subjects=1)
TCN_TRAIN = dict(LOSO_TRAIN, max_epochs=5, early_stop_warmup=5)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def match_peaks(detected, truth, tol_s: float = PEAK_TOL_S) -> tuple[int, int, int]:
    """(true positives, detected, true) under one-to-one matching within
    ``tol_s``. Beats are >= 250 ms apart, so a two-pointer sweep over the
    sorted times finds the maximum matching."""
    d = np.sort(np.asarray(detected, dtype=float))
    t = np.sort(np.asarray(truth, dtype=float))
    i = j = tp = 0
    while i < len(d) and j < len(t):
        if abs(d[i] - t[j]) <= tol_s:
            tp += 1
            i += 1
            j += 1
        elif d[i] < t[j]:
            i += 1
        else:
            j += 1
    return tp, len(d), len(t)


def f1_score(tp: int, n_detected: int, n_true: int) -> float:
    return 2.0 * tp / (n_detected + n_true) if n_detected + n_true else 0.0


def window_count(n_samples: int, plan: WindowingPlan) -> int:
    if n_samples < plan.window_len_samples:
        return 0
    return (n_samples - plan.window_len_samples) // plan.step_samples + 1


def expected_window_counts(peaks_s, eda_samples: int, plan: WindowingPlan = WindowingPlan()) -> set:
    """Window counts the plan allows for a recording whose 2 Hz streams are
    cropped to their common span: the IBI grid runs from the second to the
    last R peak, the EDA grid from 0 to its last 2 Hz sample. Grid rounding
    can move the cropped length by one sample either way."""
    eda_end = np.floor((eda_samples - 1) / EDA_HZ * GRID_HZ) / GRID_HZ
    span = min(peaks_s[-1], eda_end) - peaks_s[1]
    n = int(np.floor(span * GRID_HZ)) + 1
    return {window_count(m, plan) for m in (n - 1, n, n + 1)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _cli(argv) -> int:
    """``capstate`` in this process. Its per-subject lines and report text are
    kept out of the benchmark's output, whose last line is the result."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # an undocumented failure: count it like a nonzero exit
        traceback.print_exc(file=sys.stderr)
        return 1


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def _synthetic(subject_idx, subject, cond, duration_s, seed, ecg_hz):
    """One recording of the criterion-7 generator plus its ground truth."""
    spec = pipeline.synthetic_condition_spec(
        subject_idx, cond, duration_s,
        seed=substream_seed(seed, "synth", subject, cond.value),
        ecg_rate_hz=ecg_hz,
    )
    rec, truth = ingest.generate_synthetic_recording(spec)
    return dataclasses.replace(rec, subject_id=subject, condition=cond), truth


def preprocess_metrics(runs, truth) -> dict:
    """The ``preprocess.*`` metrics and ``rpeak_f1`` from runs of the signal
    chain, each a ``layers.recordings`` dict in reference seconds. A
    recording costs its load plus window time (load is 0 when it was not
    read from CSV):
    signal_x is recording seconds over that cost, summed per run, median
    over runs; recording_s.p50 is the median cost over all recordings; and
    rpeak_f1 pools the detected R peaks of all recordings against the
    generator's ground truth."""
    recs = [item for recordings in runs for item in recordings.items()]
    tp = nd = nt = 0
    for key, rec in recs:
        a, b, c = match_peaks(rec.get("peaks", ()), truth[key])
        tp, nd, nt = tp + a, nd + b, nt + c
    signal_x = [sum(r["duration_s"] for r in recordings.values())
                / sum(r["load_s"] + r["window_s"] for r in recordings.values()) for recordings in runs]
    return {
        "preprocess.signal_x": (statistics.median(signal_x), "x"),
        "preprocess.recording_s.p50": (statistics.median(r["load_s"] + r["window_s"] for _, r in recs), "s"),
        "rpeak_f1": (f1_score(tp, nd, nt), "1"),
    }


@dataclass
class PreprocessWorkload:
    """``capstate preprocess`` on a CSV tree; recording lengths drawn from the seed."""

    name: str = "preprocess-2048"
    subjects: tuple = ("p01", "p02", "p03", "p04")
    conditions: tuple = tuple(Condition)
    duration_range_s: tuple = (69.0, 71.0)
    ecg_hz: float = 2048.0
    setups: int = 2
    min_runs: int = 2
    preprocess_in_setup = False  # the timed stage loads and windows the recordings

    def setup(self, root: Path, seed: int) -> dict:
        rng = np.random.default_rng(substream_seed(seed, "bench", self.name))
        data = root / "data"
        rows, truth, eda_samples, csv_bytes = [], {}, {}, {}
        for si, subject in enumerate(self.subjects):
            for cond in self.conditions:
                duration = round(float(rng.uniform(*self.duration_range_s)), 3)
                rec, gt = _synthetic(si, subject, cond, duration, seed, self.ecg_hz)
                row = ingest.write_recording_csvs(data, subject, cond, rec)
                rows.append(row)
                key = (subject, cond.value)
                truth[key] = gt.r_peak_times_s
                eda_samples[key] = len(rec.eda)
                csv_bytes[key] = sum((data / row[k]).stat().st_size for k in ("ecg_file", "eda_file"))
        ingest.write_sessions_csv(data, rows)
        cfg = _write_config(root / "config.json", {
            "data_root": str(data), "output_root": str(root / "out"), "seed": seed,
            "parallel_folds": 1, "ecg_nominal_hz": self.ecg_hz, "eda_nominal_hz": EDA_HZ,
        })
        return {"config": cfg, "out": root / "out", "truth": truth, "eda_samples": eda_samples,
                "csv_bytes": csv_bytes}

    def stage(self, inputs) -> int:
        return _cli(["preprocess", "--config", inputs["config"]])

    def check(self, inputs, rc: int, recordings: dict, phase, notes: dict) -> tuple[int, int]:
        """(attempted, failed) recordings for one stage run."""
        keys = sorted(inputs["truth"])
        if rc != 0:
            notes.setdefault("errors", []).append(f"run {phase}: exit code {rc}")
            return len(keys), len(keys)
        counts = _windows_per_recording(inputs["out"] / "windows")
        failed = 0
        for key in keys:
            peaks = recordings.get(key, {}).get("peaks")
            problems = []
            if peaks is None or len(peaks) < 3:
                problems.append("no R peaks captured")
            else:
                allowed = expected_window_counts(peaks, inputs["eda_samples"][key])
                if counts.get(key, 0) not in allowed:
                    problems.append(f"{counts.get(key, 0)} windows, plan allows {sorted(allowed)}")
            if problems:
                failed += 1
                notes.setdefault("errors", []).append(f"run {phase} {key}: {'; '.join(problems)}")
        return len(keys), failed

    def add_notes(self, tracer, runs, notes) -> None:
        pass


def _windows_per_recording(windows_dir: Path) -> dict:
    counts = defaultdict(int)
    for path in sorted(windows_dir.glob("windows_*.csv")):
        with open(path) as fh:
            next(fh, None)
            for line in fh:
                subject, condition, _ = line.split(",", 2)
                counts[(subject, condition)] += 1
    return dict(counts)


@dataclass
class LosoWorkload:
    """``capstate evaluate`` + ``report`` on windows that set-up builds from
    the criterion-7 cohort (``subjects`` x 3 conditions of ``duration_s``)."""

    name: str
    backbone: str
    ba_floor: float  # on the mean over folds of each fold's (stress BA + effort BA) / 2
    subjects: int = 4
    duration_s: float = 300.0
    ecg_hz: float = 512.0
    train: dict = field(default_factory=lambda: dict(LOSO_TRAIN))
    setups: int = 2
    min_runs: int = 2
    preprocess_in_setup = True  # set-up windows the recordings; the stage does not

    def setup(self, root: Path, seed: int) -> dict:
        out = root / "out"
        windows_dir = out / "windows"
        windows_dir.mkdir(parents=True)
        truth, subjects = {}, []
        for si in range(self.subjects):
            subject = f"sim{si + 1:02d}"
            subjects.append(subject)
            parts = []
            for cond in Condition:
                rec, gt = _synthetic(si, subject, cond, self.duration_s, seed, self.ecg_hz)
                truth[(subject, cond.value)] = gt.r_peak_times_s
                parts.append(pipeline.window_recording(rec))
            storage.write_windows_csv(windows_dir / f"windows_{subject}.csv", pipeline.concat_datasets(parts))
        cfg = _write_config(root / "config.json", {
            "data_root": str(root / "data"), "output_root": str(out), "seed": seed,
            "parallel_folds": 1, "arch": LOSO_ARCH, "train": self.train,
            "ablation": {"backbone": self.backbone},
        })
        return {"config": cfg, "out": out, "truth": truth, "subjects": subjects, "csv_bytes": {}}

    def stage(self, inputs) -> int:
        rc = _cli(["evaluate", "--config", inputs["config"]])
        return rc if rc != 0 else _cli(["report", "--config", inputs["config"]])

    def check(self, inputs, rc: int, recordings: dict, phase, notes: dict) -> tuple[int, int]:
        """(attempted, failed) folds for one stage run."""
        subjects = inputs["subjects"]
        n = len(subjects)
        errors = notes.setdefault("errors", [])
        if rc != 0:
            errors.append(f"run {phase}: exit code {rc}")
            return n, n
        results = inputs["out"] / "results"
        missing = [s for s in subjects if not (results / f"fold_{s}.csv").is_file()]
        failed = len(missing)
        if missing:
            errors.append(f"run {phase}: no fold file for {missing}")
        digests = json.loads((inputs["out"] / "manifest_evaluate.json").read_text())["outputs"]
        first = notes.setdefault("digests", digests)
        stats = json.loads((results / "stats.json").read_text())
        quality = {
            "stress_ba": stats["summary"]["stress"]["mean"],
            "effort_ba": stats["summary"]["effort"]["mean"],
            "joint_ba": stats["summary"]["joint_average"]["mean"],
            "monotonic_share": stats["trajectory_patterns"]["counts"].get("monotonic", 0) / n,
        }
        notes.setdefault("quality", []).append(quality)
        run_problems = []
        if digests != first:
            run_problems.append("output digests differ from the first run")
        if quality["joint_ba"] is None or quality["joint_ba"] < self.ba_floor:
            run_problems.append(f"mean joint BA {quality['joint_ba']} < {self.ba_floor}")
        if run_problems:
            errors.append(f"run {phase}: {'; '.join(run_problems)}")
            failed = n
        return n, failed

    def add_notes(self, tracer, runs, notes) -> None:
        """Training throughput and the median model quality over stage runs."""
        notes["train.windows_per_s"] = layers.train_windows_per_s(tracer, runs)
        for key in ("stress_ba", "effort_ba", "joint_ba", "monotonic_share"):
            values = [q[key] for q in notes.get("quality", []) if q[key] is not None]
            if values:
                notes[key] = statistics.median(values)


WORKLOADS = {
    w.name: w
    for w in (
        PreprocessWorkload(),
        # Criterion 7's 0.95 needs its full cohort and 60 epochs. At this size
        # the mean stress BA ranges 0.77-1.0 (LSTM) and 0.57-0.86 (TCN) over
        # seeds 1-10, so the floors only say that training learned the task;
        # chance is 0.5.
        LosoWorkload("loso-lstm", "lstm", ba_floor=0.8),
        LosoWorkload("loso-tcn", "tcn", ba_floor=0.65, train=dict(TCN_TRAIN)),
    )
}


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def _in_reference_s(sampler, t0: float, t1: float):
    """A ``seconds(start, end)`` for spans inside [t0, t1]: their time with
    the speed samples taken out, in reference seconds (see ``speed``)."""
    factor = sampler.factor(t0, t1)
    return lambda start, end: sampler.net(start, end) * factor


def _setups(wl, seed: int, workdir: Path):
    """Set up ``wl.setups`` times (each replacing the last). Runs in a child
    process, so that set-up memory stays out of the stage's peak RSS.
    Returns the set-up times in reference seconds, the last inputs, per
    set-up the ``layers.recordings`` of what it windowed, and the speed
    factors."""
    tracer, patcher = Tracer(), Patcher()
    layers.install(tracer, patcher, only=layers.PROBED)
    sampler = speed.Sampler()
    times, windowed, factors, prev = [], [], [], None
    for k in range(wl.setups):
        root = workdir / f"setup{k}"
        tracer.run_id = k
        with sampler:
            t0 = time.perf_counter()
            inputs = wl.setup(root, seed)
            t1 = time.perf_counter()
        seconds = _in_reference_s(sampler, t0, t1)
        times.append(seconds(t0, t1))
        factors.append(sampler.factor(t0, t1))
        windowed.append(layers.recordings(tracer, k, seconds))
        if prev is not None:
            shutil.rmtree(prev)
        prev = root
    patcher.undo()
    return times, inputs, windowed, factors


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up ``wl.setups`` times in a child process, then run the stage
    back to back until ``seconds`` have passed and at least ``wl.min_runs``
    runs are done.

    Every stage run wraps the ``layers.PROBED`` functions. Untraced, that is
    all; traced, runs alternate plain / traced (every target wrapped), so
    the tracing overhead is measured in the same process. Plain runs sample
    the machine's speed as they go (see ``speed``) and their times are in
    reference seconds; traced runs are not sampled and their times are
    seconds measured.
    """
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
        setup_times, inputs, setup_windowed, setup_factors = pool.submit(_setups, wl, seed, workdir).result()

    tracer = Tracer()
    sampler = speed.Sampler()
    notes: dict = {}
    attempted = failed = 0
    plain, traced, missing, preprocess_runs = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < wl.min_runs or time.perf_counter() - start < seconds:
        with_trace = trace and i % 2 == 1
        patcher = Patcher()
        layers.install(tracer, patcher, inputs["csv_bytes"], only=None if with_trace else layers.PROBED)
        missing = patcher.missing if with_trace else missing
        tracer.run_id = i
        stage = functools.partial(wl.stage, inputs)
        if with_trace:
            stage = tracer.span("stage", stage)
        with contextlib.nullcontext() if with_trace else sampler:
            t0 = time.perf_counter()
            try:
                rc = stage()
            finally:
                t1 = time.perf_counter()
                patcher.undo()
        if with_trace:
            traced.append((i, t1 - t0))
        else:
            in_ref_s = _in_reference_s(sampler, t0, t1)
            plain.append((i, in_ref_s(t0, t1), sampler.net(t0, t1), sampler.factor(t0, t1)))
            preprocess_runs.append(layers.recordings(tracer, i, in_ref_s))
        a, f = wl.check(inputs, rc, layers.recordings(tracer, i), i, notes)
        attempted, failed = attempted + a, failed + f
        i += 1

    plain_ids = [p[0] for p in plain]
    if wl.preprocess_in_setup:
        preprocess_runs = setup_windowed
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p[1] for p in plain), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        **preprocess_metrics(preprocess_runs, inputs["truth"]),
    }
    wl.add_notes(tracer, plain_ids, notes)
    notes["recording_samples"] = sum(len(recordings) for recordings in preprocess_runs)
    notes["measured.wall_s"] = statistics.median(p[2] for p in plain)
    notes["speed.factor"] = statistics.median(setup_factors + [p[3] for p in plain])
    result = {
        "workload": wl.name,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
        "setup_times": setup_times,
        "setup_factors": setup_factors,
        "plain_runs": [p[1] for p in plain],
        "plain_measured": [p[2] for p in plain],
        "factors": [p[3] for p in plain],
        "speed_samples": [b - a for a, b in sampler.samples],
        "notes": notes,
    }
    if trace:
        runs = [p for p, _ in traced]
        summary = summarize(tracer.spans, runs)
        counts = defaultdict(float)
        for run_id in runs:
            for name, value in tracer.counts.get(run_id, {}).items():
                counts[name] += value / len(runs)
        per_layer = layers.per_layer_metrics(summary, counts)
        traced_wall = statistics.median(w for _, w in traced)
        per_layer["trace.wall_s"] = (traced_wall, "s")
        per_layer["trace.overhead"] = (traced_wall / notes["measured.wall_s"], "x")
        per_layer["trace.spans"] = (sum(1 for span in tracer.spans if span[4] in runs) / len(runs), "count")
        result["per_layer"] = per_layer
        result["traced_runs"] = [w for _, w in traced]
        result["missing_targets"] = missing
        result["trace"] = tracer.to_json()
    return result
