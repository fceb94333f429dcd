"""The load process: runs one workload against congprimes and nothing
else, so its timings and peak RSS belong to the program, not to the
benchmark's checks.

Usage: python3 bench/load.py SPEC.json  (SPEC is written by run.py)

It writes result.json, the last pass's output (out.csv for a scan,
rows.json for classify), and, with tracing on, the recorded spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import NOMINAL_MS, one_cpu, probe, sampling, taken_between

FAILED_LINE = re.compile(r"compute failed at p=(\d+)")
GROUP_MS = 250  # classify calls are scaled in groups of at least this much work


def run_passes(one_pass, budget_s: float, min_passes: int = 1) -> list[dict]:
    """Closed loop: start another pass while it is expected to end within
    the budget, and always run at least min_passes."""
    done: list[dict] = []
    t0 = time.perf_counter()
    while len(done) < min_passes or (
            time.perf_counter() - t0 + statistics.mean(d["wall_s"] for d in done) <= budget_s):
        done.append(one_pass())
    return done


class Load:
    def __init__(self, spec: dict):
        sys.path.insert(0, spec["src"])
        import congprimes
        import congprimes.cli
        from congprimes.errors import ComputeFailed

        self.pkg, self.cli, self.ComputeFailed = congprimes, congprimes.cli, ComputeFailed
        self.spec = spec
        self.out_dir = Path(spec["out_dir"])
        self.reference = spec["reference"]
        self.nominal_ms = NOMINAL_MS[self.reference]

    def probe(self, all_cpus: bool = False) -> float:
        return probe(self.reference, all_cpus)

    def scan_pass(self, workers: int, out: Path) -> dict:
        """One scan.  With one worker the process is pinned to one CPU and
        samples the reference on it during the scan; a pool's CPUs are
        all busy, so it is probed on every CPU before and after."""
        s = self.spec
        argv = ["scan", "--from", str(s["lo"]), "--to", str(s["hi"]),
                "--workers", str(workers), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if workers == 1:
                with one_cpu():
                    with sampling(self.reference) as samples:
                        t0 = time.perf_counter()
                        rc = self.cli.main(argv)
                        t1 = time.perf_counter()
                    inside = taken_between(samples, t0, t1)
                    wall = t1 - t0 - sum(inside) / 1e3
                    ref = statistics.median(inside) if inside else self.probe()
            else:
                ref = self.probe(all_cpus=True)
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                wall = time.perf_counter() - t0
                ref = (ref + self.probe(all_cpus=True)) / 2
        if rc not in (0, 2):
            raise RuntimeError(f"scan exited {rc}: {err.getvalue().strip()}")
        data = out.read_bytes()
        failed = [int(m) for m in FAILED_LINE.findall(err.getvalue())]
        rows = data.count(b"\n") - 1
        return {"wall_s": wall, "norm_wall_s": wall * self.nominal_ms / ref,
                "classified": rows, "attempted": rows + len(failed), "failed": failed,
                "sha256": hashlib.sha256(data).hexdigest()}

    def classify_pass(self, items: list[list], rows_out: Path | None = None) -> dict:
        with one_cpu():
            return self._classify_pass(items, rows_out)

    def _classify_pass(self, items: list[list], rows_out: Path | None) -> dict:
        failed, results, calls = [], [], []
        with sampling(self.reference) as samples:
            for p, split in items:
                t0 = time.perf_counter()
                try:
                    results.append(self.pkg.classify(p))
                    kind = "split" if split else "nonsplit"
                except self.ComputeFailed:
                    failed.append(p)
                    kind = "failed"
                calls.append((kind, t0, time.perf_counter()))
        # latency[kind] holds [measured ms, ms at nominal speed] per call;
        # calls that raised ComputeFailed count in the wall time as "failed".
        # A call's time leaves out the samples taken inside it.  Calls are
        # scaled in groups of at least GROUP_MS by the median sample taken
        # during the group (a short last group takes the previous scale).
        latency: dict[str, list[list[float]]] = {"split": [], "nonsplit": [], "failed": []}
        group, group_ms, ref = [], 0.0, None
        for i, (kind, t0, t1) in enumerate(calls):
            ms = (t1 - t0) * 1e3 - sum(taken_between(samples, t0, t1))
            group.append((kind, ms))
            group_ms += ms
            if group_ms >= GROUP_MS or i == len(calls) - 1:
                during = taken_between(samples, calls[i + 1 - len(group)][1], t1)
                ref = statistics.median(during) if during else ref or self.probe()
                scale = self.nominal_ms / ref
                for k, t in group:
                    latency[k].append([t, t * scale])
                group, group_ms = [], 0.0
        rows = [{"p": c.p, "p_mod_16": c.p_mod_16, "chi_1pi": c.symbols.chi_1pi,
                 "chi_alpha_delta": c.symbols.chi_alpha_delta,
                 "chi_zeta_alpha_delta": c.symbols.chi_zeta_alpha_delta,
                 "v_level": c.v_level, "w_level": c.w_level,
                 "congruent_status": c.congruent_status.value,
                 "sha_report": c.sha_report.value} for c in results]
        text = json.dumps(rows)
        if rows_out:
            rows_out.write_text(text)
        calls = [x for v in latency.values() for x in v]
        return {"wall_s": sum(x[0] for x in calls) / 1e3,
                "norm_wall_s": sum(x[1] for x in calls) / 1e3,
                "classified": len(results), "attempted": len(items), "failed": failed,
                "latency_ms": latency,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def main_pass(self) -> dict:
        """One pass of the workload's own work."""
        if self.spec["kind"] == "scan":
            return self.scan_pass(self.spec["workers"], self.out_dir / "out.csv")
        return self.classify_pass(self.spec["items"], self.out_dir / "rows.json")

    def timed(self) -> dict:
        spec, seconds = self.spec, self.spec["seconds"]
        t0 = time.perf_counter()
        if spec["kind"] == "classify":
            passes = run_passes(self.main_pass, seconds)
            rss_kb = _peak_rss_kb()
            attempts = latency = passes
        else:
            passes = run_passes(self.main_pass, 0.7 * seconds, 2)
            # before the latency passes, which hold every Classification
            rss_kb = _peak_rss_kb()
            latency = run_passes(lambda: self.classify_pass(spec["items"]),
                                 seconds - (time.perf_counter() - t0))
            attempts = passes + latency
        result = _summary(passes, attempts)
        result["latency_ms"] = {k: [x for d in latency for x in d["latency_ms"][k]]
                                for k in ("split", "nonsplit")}
        result["rss_kb"] = rss_kb
        self.serial_reference()
        return result

    def serial_reference(self):
        """For a pooled scan, the same scan with one worker, to compare bytes."""
        if self.spec.get("serial_reference"):
            self.scan_pass(1, self.out_dir / "serial.csv")

    def traced(self) -> dict:
        """Untraced and traced passes in turn, starting and ending with an
        untraced one, so that each traced pass can be set against the mean
        of its two neighbours and the machine's drift cancels."""
        import tracing

        self.serial_reference()
        tracer = tracing.Tracer()
        untraced, traced, spans = [], [], []

        def pair():
            untraced.append(self.main_pass())
            uninstall = tracing.install(tracer, self.pkg)
            try:
                tracer.reset()
                d = self.main_pass()
            finally:
                uninstall()
            traced.append(d)
            spans.append({"norm_wall_ns": d["norm_wall_s"] * 1e9,
                          "scale": d["norm_wall_s"] / d["wall_s"], "spans": tracer.reset()})
            return {"wall_s": untraced[-1]["wall_s"] + d["wall_s"]}

        run_passes(pair, self.spec["seconds"])
        untraced.append(self.main_pass())
        Path(self.spec["trace_out"]).write_text(json.dumps({
            "workload": self.spec["workload"],
            "untraced_norm_wall_ns": [d["norm_wall_s"] * 1e9 for d in untraced],
            "passes": spans,
        }))
        return _summary(untraced + traced, untraced + traced)


def _peak_rss_kb() -> list[int]:
    """Peak RSS so far of this process and of its largest reaped child."""
    return [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]


def _summary(passes: list[dict], attempts: list[dict]) -> dict:
    """The main passes' outputs, and attempt totals over every pass."""
    return {
        "passes": [{k: d[k] for k in ("wall_s", "norm_wall_s", "classified", "attempted",
                                      "failed", "sha256")}
                   for d in passes],
        "attempted": sum(d["attempted"] for d in attempts),
        "failed": sum(len(d["failed"]) for d in attempts),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    load = Load(spec)
    result = load.traced() if spec["trace"] else load.timed()
    (load.out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
