"""Mutation checks: each mutation below is applied to a fresh temporary copy
of the repository, and the tests listed with it run there under a timeout.
A mutation is killed when a test fails, survived when they all pass, and
timed out when they run past the timeout (its whole process group is then
stopped).  Standard library only, and not part of tier-1: the full list
runs several full test suites.

    python3 tools/mutants.py                          # every mutation
    python3 tools/mutants.py flag-index-off-by-one    # only those named

It exits 1 unless every mutation it ran was killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODMATH = "src/congprimes/modmath.py"
WALK = "src/congprimes/walk.py"
ELS = "src/congprimes/els.py"
ORACLES = "src/congprimes/oracles.py"
TIMEOUT = 300  # seconds per mutation; the whole suite takes about 55 on 2 CPUs

# (name, file, old text, new text, tests): old must occur exactly once in file
MUTANTS = [
    # the prime-flag table below 1001^2: each must fail the whole suite, not stall it
    ("flag-index-off-by-one", MODMATH, "[n >> 1]", "[(n >> 1) + 1]", ("tests",)),
    ("flags-one-odd-short", MODMATH, "_odd_sieve(3, 1_001_999,", "_odd_sieve(3, 1_001_997,", ("tests",)),
    ("marking-from-q2-plus-2q", MODMATH, "max(q, (odd", "max(q + 2, (odd", ("tests",)),
    ("one-left-flagged", MODMATH, 'b"\\0" + _odd_sieve', 'b"\\1" + _odd_sieve', ("tests",)),
    # the bounds that turn a non-prime's endless root search into ComputeFailed
    ("two-sylow-unbounded", MODMATH, "if g * (g - 1) >= p:", "if False:", ("tests/test_modmath.py",)),
    ("tonelli-shanks-unbounded", MODMATH, "            if i == m:  # t^(2^m)",
     "            if False:  # t^(2^m)", ("tests/test_modmath.py",)),
    # the strong Lucas ladder on V alone
    ("lucas-no-2v-test", MODMATH, "if V == 0 or (2 * W - V) % n == 0:", "if V == 0:",
     ("tests/test_modmath.py",)),
    ("lucas-ladder-from-k-0", MODMATH, "V, W, qk = 1, (1 - 2 * Q) % n, Q % n", "V, W, qk = 2, 1, 1",
     ("tests/test_modmath.py",)),
    ("lucas-bit-branches-swapped", MODMATH, 'if bit == "1":', 'if bit == "0":',
     ("tests/test_modmath.py",)),
    # solve_delta, the one place that checks a split prime's roots
    ("solve-delta-no-roots-check", "src/congprimes/quartic.py",
     "    elif roots is not None and roots.p != pv:\n"
     '        raise PreconditionViolation(f"roots of {roots.p} given for {p}")\n', "",
     ("tests/test_quartic.py",)),
    # the reference routes: the cover root test mod (q, p), the Gaussian square root, a_n
    ("cover-reduction-sign-flipped", ELS, "e[d - 4 + k] -= c * q[k]",
     "e[d - 4 + k] += c * q[k]", ("tests/test_els.py",)),
    ("cover-times-x-dropped", ELS, "_reduce([0] + xp, q, p)", "_reduce(xp, q, p)",
     ("tests/test_els.py",)),
    ("gaussian-sqrt-y-sign-flipped", ORACLES, "(y if wi >= 0 else -y)", "(-y if wi >= 0 else y)",
     ("tests/test_oracles.py",)),
    ("tunnell-x-weight-one", ORACLES, "(2 if x else 1) * 2", "(1 if x else 1) * 2",
     ("tests/test_oracles.py",)),
    # a multi-worker walk's CPUs: each shard on its own, and this process's set back after
    ("shard-not-pinned", WALK, "    _pin([cpu])\n", "", ("tests/test_cli.py",)),
    ("parent-cpu-set-not-restored", WALK, "        if cpus is not None:\n            _pin(cpus)\n",
     "", ("tests/test_cli.py",)),
]


def run(mutant: tuple) -> tuple[str, float, str]:
    """(status, seconds, pytest's summary line) of one mutation."""
    _, rel, old, new, tests = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_tmp", ".bench_out"))
        path = copy / rel
        text = path.read_text()
        if text.count(old) != 1:
            return "stale", 0.0, f"the old text occurs {text.count(old)} times in {rel}"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *tests]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", time.perf_counter() - start, f"still running after {TIMEOUT} s"
        seconds = time.perf_counter() - start
        lines = out.strip().splitlines()
        summary = lines[-1] if lines else ""
        status = {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")
        return status, seconds, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("names", nargs="*", help="the mutations to run (default: all)")
    args = parser.parse_args()
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown {', '.join(sorted(unknown))}; known: {', '.join(m[0] for m in MUTANTS)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    statuses = []
    for mutant in chosen:
        status, seconds, summary = run(mutant)
        statuses.append(status)
        print(f"{status:<9} {seconds:7.1f} s  {mutant[0]}: {summary}", flush=True)
    print(", ".join(f"{statuses.count(s)} {s}" for s in sorted(set(statuses))))
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
