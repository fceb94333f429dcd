"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root):

    python3 bench/record.py --runs 10 [--write]

For each workload in BENCHMARK.json it runs bench/run.py for its
run_seconds with seeds 1..runs and --trace 0, then once with --trace 1
at the default seed, and prints, per end-to-end
metric, the median, the quartiles and the spread (interquartile range
over the median).  With --write it stores the summary, machine info, the
line count of src/congprimes/*.py and the parallel efficiency of
scan-small-2w in bench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, plus its wall time as "run_wall_s"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["run_wall_s"] = time.monotonic() - t0
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        ok = all(r["correct"] and r["failed"] == 0 for r in runs)
        metrics = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        traced = run_once(workload, 1, seconds, 1)
        summary[workload] = {
            "all_correct_no_failures": ok,
            "run_wall_s_max": max(r["run_wall_s"] for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: correct={ok}, slowest run {summary[workload]['run_wall_s_max']:.1f} s")
        for name, s in metrics.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"  {name}: median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[name]}){flag}")
    rate = {w: summary[w]["end_to_end"]["primes_per_s"]["median"]
            for w in ("scan-small", "scan-small-2w")}
    summary["scan_small_2w_parallel_efficiency"] = rate["scan-small-2w"] / (2 * rate["scan-small"])
    print(f"scan-small-2w parallel efficiency: {summary['scan_small_2w_parallel_efficiency']:.3f}")
    if args.write:
        src = sorted((ROOT / "src" / "congprimes").glob("*.py"))
        summary["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                              "platform": platform.platform()}
        summary["src_congprimes_py_lines"] = sum(len(p.read_text().splitlines()) for p in src)
        summary["settings"] = {"runs": args.runs, "seeds": f"1..{args.runs}",
                               "seconds": seconds}
        (HERE / "BASELINE.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
