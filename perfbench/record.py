"""Run every workload for seeds 1-10 and record medians and spreads.

    python3 perfbench/record.py

Each run is ``run.py --trace 0`` in a child process, one at a time, with the
``run_seconds`` of BENCHMARK.json. The record, perfbench/baseline.json,
keeps per workload and end-to-end metric every value, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median that the metric's bound is checked against; and the
environment stamp of the first run.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = range(1, 11)


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record.setdefault("env", next((ln[4:] for ln in lines if ln.startswith("env ")), ""))
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            print(name, seed, f"{elapsed:.1f}s", result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"], "values": values, **spread(values)}
            print(f"  {m['name']:28s} median {metrics[m['name']]['median']:.5g} "
                  f"spread {metrics[m['name']]['spread']:.4f} (bound {m['bound']})")
        record["workloads"][name] = {"runs": runs, "metrics": metrics}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
