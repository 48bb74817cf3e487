"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from capstate.ingest import Condition  # noqa: E402
from tracer import Patcher, Tracer, self_times, summarize  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap;
    # a has a child c [2, 3]; d [8, 12] sticks out of root and is clipped.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["d", 8.0, 12.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 1.0, 3.0, 4.0])


def test_summary_counts_busy_time_once_and_averages_over_runs():
    spans = [
        ["f", 0.0, 2.0, -1, 1],
        ["f", 1.0, 3.0, -1, 1],  # overlaps the first: busy 3 s, not 4 s
        ["f", 0.0, 1.0, -1, 2],
        ["f", 0.0, 5.0, -1, 9],  # a run not asked for
    ]
    s = summarize(spans, [1, 2])["f"]
    assert s["s"] == pytest.approx((3.0 + 1.0) / 2)
    assert s["calls"] == pytest.approx(1.5)
    assert s["durations"] == pytest.approx([2.0, 2.0, 1.0])


def test_layer_self_times_add_up_to_the_root_span():
    spans = [
        ["stage", 0.0, 10.0, -1, 0],
        ["pipeline.window_recording", 1.0, 9.0, 0, 0],
        ["cardiac.detect_r_peaks", 2.0, 6.0, 1, 0],
        ["dsp.butterworth_bandpass", 2.5, 5.0, 2, 0],
        ["dsp.butterworth_lowpass", 3.0, 4.0, 3, 0],
    ]
    m = layers.per_layer_metrics(summarize(spans, [0]), {})
    total = sum(m[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    assert total == pytest.approx(10.0)
    assert m["dsp.self_s"][0] == pytest.approx(2.5)
    assert m["cardiac.detect_r_peaks.self_s"][0] == pytest.approx(1.5)
    assert m["pipeline.window_recording.self_s"][0] == pytest.approx(4.0)


def test_probes_give_per_recording_times_and_peaks():
    rec = SimpleNamespace(subject_id="p01", condition=Condition.C1, duration_s=90.0)
    hooks = {name: hook for _, _, name, hook in layers.targets()}
    tracer = Tracer()
    tracer.run_id = 7

    def span(name, fn):
        return tracer.span(name, fn, hooks[name])

    detect = span("cardiac.detect_r_peaks", lambda ecg: SimpleNamespace(times_s=[0.5, 1.5]))
    load = span("ingest.load_recording", lambda: rec)
    window = span("pipeline.window_recording", lambda r: detect(None))
    window(load())
    assert [s[0] for s in tracer.spans] == [
        "ingest.load_recording", "pipeline.window_recording", "cardiac.detect_r_peaks"]
    for s, (start, end) in zip(tracer.spans, [(0.0, 1.0), (2.0, 6.0), (3.0, 5.0)]):
        s[1:3] = start, end
    got = layers.recordings(tracer, 7)
    assert list(got) == [("p01", "c1")]
    entry = got[("p01", "c1")]
    assert (entry["load_s"], entry["window_s"], entry["duration_s"]) == (1.0, 4.0, 90.0)
    assert list(entry["peaks"]) == [0.5, 1.5]
    assert layers.recordings(tracer, 8) == {}


def test_sampler_takes_its_own_time_out_and_scales_by_the_median_sample():
    sampler = speed.Sampler()
    sampler.samples = [(0.5, 0.6), (1.0, 1.2), (1.9, 2.1), (3.0, 3.1)]
    # [1.0, 2.0] holds all of the 0.2-s sample at 1.0 and half of the one at 1.9
    assert sampler.busy(1.0, 2.0) == pytest.approx(0.3)
    assert sampler.net(1.0, 2.0) == pytest.approx(0.7)
    assert sampler.factor(0.0, 2.0) == pytest.approx(speed.REFERENCE_S / 0.2)
    # no sample starts in [2.2, 2.5]: the next one, at 3.0, stands in
    assert sampler.factor(2.2, 2.5) == pytest.approx(speed.REFERENCE_S / 0.1)
    with pytest.raises(ValueError):
        sampler.factor(3.5, 4.0)


def test_sampler_samples_a_short_stretch_once_on_leaving():
    sampler = speed.Sampler(interval_s=10.0)
    with sampler:
        t0 = time.perf_counter()
        t1 = time.perf_counter()
    assert len(sampler.samples) == 1
    assert sampler.net(t0, t1) == pytest.approx(t1 - t0)
    assert sampler.factor(t0, t1) > 0


def test_patcher_wraps_every_reference_and_undoes():
    import capstate.cardiac as cardiac
    import capstate.dsp as dsp

    original = dsp.butterworth_bandpass
    assert cardiac.butterworth_bandpass is original  # imported by name
    tracer, patcher = Tracer(), Patcher()
    assert patcher.wrap("capstate.dsp", "butterworth_bandpass", lambda fn: tracer.span("x", fn))
    assert dsp.butterworth_bandpass is cardiac.butterworth_bandpass is not original
    assert not patcher.wrap("capstate.dsp", "no_such_function", lambda fn: fn)
    patcher.undo()
    assert dsp.butterworth_bandpass is cardiac.butterworth_bandpass is original


# ---------------------------------------------------------------------------
# Metric names and the output checks
# ---------------------------------------------------------------------------


def test_metric_names_follow_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    produced = set(layers.per_layer_metrics({}, {})) | {"trace.wall_s", "trace.overhead", "trace.spans"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_peak_matching_is_one_to_one_within_tolerance():
    truth = [1.0, 2.0, 3.0, 4.0]
    assert workloads.match_peaks([1.01, 1.02, 2.1, 3.0, 3.98], truth) == (3, 5, 4)
    assert workloads.f1_score(3, 5, 4) == pytest.approx(6 / 9)


def test_expected_window_counts_follow_the_plan():
    # 2 Hz streams over [0.9 s, 150 s]: 299 +- 1 samples -> windows of 120, step 30
    peaks = [0.5, 0.9, 75.0, 150.0]
    allowed = workloads.expected_window_counts(peaks, eda_samples=160 * 32)
    assert allowed == {6, 7}


# ---------------------------------------------------------------------------
# Smoke runs at tiny size
# ---------------------------------------------------------------------------

BUSY_LAYER = {
    "preprocess-2048": "cardiac.detect_r_peaks.s",
    "loso-lstm": "model.autograd.lstm.bwd_s",
    "loso-tcn": "model.autograd.conv1d_causal.bwd_s",
}
TINY = [
    workloads.PreprocessWorkload(subjects=("p01",), conditions=(Condition.C1,),
                                 duration_range_s=(70.0, 72.0), setups=2, min_runs=2),
    workloads.LosoWorkload("loso-lstm", "lstm", ba_floor=0.0, subjects=3, duration_s=90.0,
                           train=dict(workloads.LOSO_TRAIN, max_epochs=1, early_stop_warmup=1)),
    workloads.LosoWorkload("loso-tcn", "tcn", ba_floor=0.0, subjects=3, duration_s=90.0,
                           train=dict(workloads.LOSO_TRAIN, max_epochs=1, early_stop_warmup=1)),
]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("wl", TINY, ids=[w.name for w in TINY])
def test_tiny_run_reports_every_metric(wl, trace, tmp_path):
    result = workloads.run(wl, seed=3, seconds=0.0, trace=trace, workdir=tmp_path)
    line = run.result_line(result)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert line["attempted"] >= 1 and line["failed"] == 0 and line["correct"]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    json.dumps(line)
    run.report_lines(result)
    if trace:
        assert result["per_layer"][BUSY_LAYER[wl.name]][0] > 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loso-lstm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
