"""capstate benchmark: one workload, untraced or traced.

    python3 perfbench/run.py --workload preprocess-2048 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload loso-lstm --seed 1 --seconds 15 --trace 1

Workloads: preprocess-2048, loso-lstm, loso-tcn (see workloads.py). Run it
from the root of a capstate checkout; it imports the package from ``src/``.

Untraced (``--trace 0``), it prints the environment stamp, every end-to-end
metric by name and unit, and the output checks. End-to-end times are in
reference seconds: seconds measured, scaled by the machine's speed sampled
while they ran (see speed.py); the median stage time in seconds measured is
printed as ``measured.wall_s`` beside them. Traced (``--trace 1``), it
wraps the public functions of each capstate module and prints the per-layer
metrics, the self time of each layer and the tracing overhead (traced wall
time over plain wall time, both measured in the run). The last line of
standard output is the result as JSON: ``correct``, ``attempted``,
``failed`` (recordings or folds) and ``metrics``. The full result, with the
spans of a traced run, is written under ``perfbench/out/``. The exit code is
0 when the run completed, even if an output check failed (``correct`` says
so), and 2 when the benchmark itself cannot run.

BLAS runs single-threaded so that one process is the whole load.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare() -> None:
    """Pin BLAS threads (before numpy loads) and put ``src/`` on the path."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "capstate" / "__init__.py").is_file():
        raise FileNotFoundError(f"no capstate package under {src}")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    import capstate

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba_enabled": bool(getattr(capstate, "NUMBA_ENABLED", False)),
        "git_revision": _git_revision(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the root of a capstate checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = env
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, default=_jsonable) + "\n")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in report_lines(result):
        print(line)
    print(json.dumps(result_line(result)))
    return 0


def report_lines(result: dict) -> list[str]:
    """The human-readable part of the output: metrics by name and unit, the
    training figures of LOSO runs, the checks and, traced, the layers."""
    notes = result["notes"]
    traced = "per_layer" in result
    lines = [
        f"workload {result['workload']}: {len(result['plain_runs'])} plain stage runs"
        + (f", {len(result['traced_runs'])} traced" if traced else "")
        + f", {len(result['setup_times'])} set-ups, {notes['recording_samples']} recording samples"
    ]
    lines += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in result["end_to_end"].items()]
    lines += [f"info {key} {notes[key]:.6g}"
              for key in ("measured.wall_s", "speed.factor", "train.windows_per_s",
                          "stress_ba", "effort_ba", "joint_ba", "monotonic_share")
              if key in notes]
    lines.append(f"checks attempted={result['attempted']} failed={result['failed']} "
                 f"failed_share={result['failed'] / max(result['attempted'], 1):.4g}")
    lines += [f"check failed: {line}" for line in notes.get("errors", [])]
    if traced:
        lines += [f"layer {name} {value:.6g} {unit}" for name, (value, unit) in result["per_layer"].items()]
        if result["missing_targets"]:
            lines.append("not traced (absent): " + ", ".join(result["missing_targets"]))
    return lines


def result_line(result: dict) -> dict:
    """The last output line: end-to-end metrics untraced, per-layer traced."""
    metrics = result.get("per_layer", result["end_to_end"])
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _jsonable(obj):
    return obj.tolist() if hasattr(obj, "tolist") else str(obj)


if __name__ == "__main__":
    sys.exit(main())
