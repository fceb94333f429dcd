"""congprimes benchmark: one workload, one seed, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload scan-small --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed with sympy, times fresh
interpreters importing congprimes (setup_s), runs the workload in one
load process (bench/load.py), checks every output without calling the
solver (bench/checks.py), and prints one line per metric followed by a
final JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 the load process records spans and the metrics are per layer.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("scan-small", "scan-small-2w", "classify-200d", "window-200d")
DEFAULT_SEED = 1
# sha256 of the CSV each scan workload writes at DEFAULT_SEED.
PINNED_CSV_SHA256 = {
    "scan-small": "682ffc174bd9d37f7286878a920228f0837737b0261ecc4d10da32df9b32a7d0",
    "scan-small-2w": "682ffc174bd9d37f7286878a920228f0837737b0261ecc4d10da32df9b32a7d0",
    "window-200d": "a7523735ded5a467e76edf4c6ce01c06da521779d316407e0bd191a61055b2e8",
}
IMPORT_SPAWNS = 15


def load_timeout_s(seconds: float) -> float:
    """The load process measures for about 1.25 x seconds; the rest covers
    the passes it runs whatever the budget (two scans, or one classify
    list, plus a serial reference scan)."""
    return 3 * seconds + 90


IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.monotonic(); m0 = len(sys.modules)\n"
    "import congprimes\n"
    "t1 = time.monotonic()\n"
    "print(t1, (t1 - t0) * 1e3, len(sys.modules) - m0)\n"
)


def import_times(spawns: int) -> dict:
    """Medians over fresh interpreters: the time from spawn to the end of
    `import congprimes` as measured (setup_raw_s) and at nominal speed
    (setup_s), the import's own time at nominal speed, and the number of
    modules the import loads."""
    from speed import NOMINAL_MS, probe

    nominal_ms = NOMINAL_MS["interp"]  # start-up and import are interpreter work
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    ref = probe("interp")
    for i in range(spawns + 1):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        after = probe("interp")
        if i:  # the first spawn may compile bytecode
            done, import_ms, modules = out.split()
            setup, scale = float(done) - start, nominal_ms / ((ref + after) / 2)
            samples.append((setup, setup * scale, float(import_ms) * scale, int(modules)))
        ref = after
    return {key: statistics.median(s[k] for s in samples)
            for k, key in enumerate(("setup_raw_s", "setup_s", "import_ms", "import_modules"))}


def build(workload: str, seed: int) -> tuple[dict, list[int]]:
    """The load spec for (workload, seed) and the primes its main output
    must cover, in order."""
    from checks import is_split
    from inputs import classify_primes, scan_range, window
    from speed import reference_for
    from sympy import primerange

    if workload == "classify-200d":
        primes = classify_primes(seed)
        spec = {"kind": "classify"}
    elif workload == "window-200d":
        lo, hi, primes = window(seed)
        spec = {"kind": "scan", "lo": lo, "hi": hi, "workers": 1}
    else:
        lo, hi = scan_range(seed)
        primes = list(primerange(lo, hi + 1))
        spec = {"kind": "scan", "lo": lo, "hi": hi,
                "workers": 2 if workload == "scan-small-2w" else 1,
                "serial_reference": workload == "scan-small-2w"}
    spec["items"] = [[p, is_split(p)] for p in primes]
    spec["reference"] = reference_for(primes)
    return spec, primes


def check(workload: str, seed: int, spec: dict, expected: list[int],
          result: dict, out_dir: Path) -> list[str]:
    from checks import check_rows, parse_csv
    from inputs import ANCHORS

    passes = result["passes"]
    errors = []
    if len({d["sha256"] for d in passes}) != 1:
        errors.append("passes produced different outputs")
    if spec["kind"] == "scan":
        data = (out_dir / "out.csv").read_bytes()
        rows = parse_csv(data.decode())
        pin = PINNED_CSV_SHA256[workload]
        if seed == DEFAULT_SEED and passes[-1]["sha256"] != pin:
            errors.append(f"CSV sha256 {passes[-1]['sha256']} differs from the pinned {pin}")
        if spec.get("serial_reference") and (out_dir / "serial.csv").read_bytes() != data:
            errors.append("--workers 2 output differs from --workers 1 output")
    else:
        rows = json.loads((out_dir / "rows.json").read_text())
    errors += check_rows(rows, expected, passes[-1]["failed"], ANCHORS)
    return errors


def timed_metrics(result: dict, imports: dict, at_nominal: bool = True) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, with timings at nominal machine speed (see
    bench/speed.py) or, with at_nominal=False, as measured."""
    k = 1 if at_nominal else 0
    lat = result["latency_ms"]
    wall = "norm_wall_s" if at_nominal else "wall_s"
    rates = [d["classified"] / d[wall] for d in result["passes"]]
    return {
        "primes_per_s": (statistics.median(rates), "1/s"),
        "classify_split_ms_p50": (statistics.median(x[k] for x in lat["split"]), "ms"),
        "classify_nonsplit_ms_p50": (statistics.median(x[k] for x in lat["nonsplit"]), "ms"),
        "peak_rss_mb": (sum(result["rss_kb"]) / 1024, "MB"),
        "setup_s": (imports["setup_s" if at_nominal else "setup_raw_s"], "s"),
    }


def traced_metrics(trace_file: Path, imports: dict) -> dict[str, tuple[float, str]]:
    from tracing import per_layer

    trace = json.loads(trace_file.read_text())
    return per_layer(trace["passes"], trace["untraced_norm_wall_ns"], imports)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "congprimes" / "__init__.py").is_file():
        print(f"error: no congprimes sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    spec, expected = build(args.workload, args.seed)
    imports = import_times(IMPORT_SPAWNS)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    out_dir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir()
    trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    spec.update(workload=args.workload, seconds=args.seconds, trace=bool(args.trace),
                src=str(SRC), out_dir=str(out_dir), trace_out=str(trace_file))
    try:
        if args.trace:
            trace_file.parent.mkdir(exist_ok=True)
        (out_dir / "spec.json").write_text(json.dumps(spec))
        timeout = load_timeout_s(args.seconds)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "load.py"), str(out_dir / "spec.json")],
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: load process did not end within {timeout:g} s", file=sys.stderr)
            return 1
        if proc.returncode:
            print(f"error: load process exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((out_dir / "result.json").read_text())
        errors = check(args.workload, args.seed, spec, expected, result, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = traced_metrics(trace_file, imports) if args.trace else timed_metrics(result, imports)
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} primes attempted, "
          f"{result['failed']} failed (failed_frac {result['failed'] / result['attempted']:.6f})")
    if not args.trace:
        from stats import describe
        for kind in ("split", "nonsplit"):
            print(describe(f"classify_{kind}_ms", [x[1] for x in result["latency_ms"][kind]], "ms"))
        measured = timed_metrics(result, imports, at_nominal=False)
        print("as measured, before scaling to nominal speed: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in measured.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
