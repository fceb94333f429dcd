"""Command-line interface.

Subcommands: classify one prime, scan a range to CSV/JSONL with shard
processes, run a verification suite, print a level-density table, or rerun
the headline 200-digit reference computations.  A scan renders each row's
tail, all of it but p, once per (p mod 16, symbols) class of a window.

Exit codes: 0 success, 1 usage error, 2 compute failure, 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from collections import Counter
from contextlib import closing, contextmanager, suppress
from math import isqrt, log
from multiprocessing.connection import wait
from multiprocessing.pool import ExceptionWithTraceback
from typing import Iterable, Iterator, NamedTuple

from .criteria import Classification, classify
from .errors import BoundExceeded, ComputeFailed, PreconditionViolation
from .modmath import MAX_WINDOW, primes_in_range
from .verify import (
    DEFAULT_LIMITS,
    SUITES,
    ChunkResult,
    SuiteResult,
    classify_chunk,
    density_lines,
    run_reference_scan,
    run_suite,
)

V_CEILING = 4
W_CEILING = 3

# primes expected per scan window, the unit a shard sieves, classifies and renders
SCAN_CHUNK = 1024
# least scan window width over primes_in_range's base bound min(sqrt(hi), 10^5),
# to amortize its loop over the base primes, run once per window (10 ms at 10^10)
BASE_SPAN = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class ScanRow(NamedTuple):
    """One classified prime, in output-column order."""

    p: int
    p_mod_16: int
    chi_1pi: int
    chi_alpha_delta: int
    chi_zeta_alpha_delta: int
    v_level: int
    w_level: int | None
    congruent_status: str

    @classmethod
    def from_classification(cls, c: Classification) -> "ScanRow":
        p, m16, v, w, (chi_1pi, chi_ad, chi_zad), status, _ = c  # faster than *c.symbols
        return cls(p, m16, chi_1pi, chi_ad, chi_zad, v, w, status.value)

    def csv_line(self) -> str:
        w = "NA" if self.w_level is None else str(self.w_level)
        return (f"{self.p},{self.p_mod_16},{self.chi_1pi},"
                f"{self.chi_alpha_delta},{self.chi_zeta_alpha_delta},"
                f"{self.v_level},{w},{self.congruent_status}")


CSV_HEADER = ",".join(ScanRow._fields)


def _level_text(level: int | None, ceiling: int) -> str:
    return "NA" if level is None else f"≥ {level}" if level == ceiling else str(level)


def _chi_text(value: int) -> str:
    return {1: "+1", -1: "-1", 0: "0 (not applicable)"}[value]


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    c = classify(args.p)
    if args.format == "json":
        row = ScanRow.from_classification(c)._asdict()
        print(json.dumps(row | {"sha_report": c.sha_report.value}))
        return 0
    print(f"p: {c.p}")
    print(f"p mod 16: {c.p_mod_16}")
    print(f"v_level: {_level_text(c.v_level, V_CEILING)}")
    print(f"w_level: {_level_text(c.w_level, W_CEILING)}")
    print(f"chi_1pi: {_chi_text(c.symbols.chi_1pi)}")
    print(f"chi_alpha_delta: {_chi_text(c.symbols.chi_alpha_delta)}")
    print(f"chi_zeta_alpha_delta: {_chi_text(c.symbols.chi_zeta_alpha_delta)}")
    print(f"congruent_status: {c.congruent_status.value}")
    print(f"sha_report: {c.sha_report.value}")
    return 0


# -------------------------------------------------------------------- scan

def _pool_size(workers: int) -> int:
    """Processes to start for a requested worker count: at most one per CPU."""
    return min(workers, os.cpu_count() or 1)


# the row renderers of a scan; module-level, so that they pickle where fork is missing
def _csv_line(c: Classification) -> str:
    return ScanRow.from_classification(c).csv_line()


def _json_line(c: Classification) -> str:
    return json.dumps(ScanRow.from_classification(c)._asdict())


# (head, line) for verify.classify_chunk: head % p is the start of line(c)
_RENDERERS = {"csv": ("%d,", _csv_line), "jsonl": ('{"p": %d, ', _json_line)}


def _windows(lo: int, hi: int, processes: int = 1) -> list[tuple[int, int]]:
    """[lo, hi] cut into windows expected to hold SCAN_CHUNK primes (one number in
    ln hi is prime), at most MAX_WINDOW wide, and at least BASE_SPAN base bounds
    wide unless that would leave fewer than 4 windows per process."""
    top = max(hi, 2)
    least = min(BASE_SPAN * min(isqrt(top), 100_000), (hi - lo) // (4 * processes) + 1)
    width = min(max(1 + int(SCAN_CHUNK * log(top)), least), MAX_WINDOW)
    return [(a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]


def _shard(render: tuple | None, windows: list[tuple[int, int]], writer) -> None:
    """A shard process: send its windows' ChunkResults, or what stopped it, down its pipe."""
    try:
        for lo, hi in windows:
            writer.send(classify_chunk(render, primes_in_range(lo, hi)))
    except Exception as exc:  # raised in the parent, with this traceback as its cause
        writer.send(ExceptionWithTraceback(exc, exc.__traceback__))


@contextmanager
def _shards(render: tuple | None, windows: list[tuple[int, int]], workers: int):
    """Start shard w of `workers` on windows w, w + workers, ...; end them on exit."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    shards = []
    try:
        for w in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_shard, args=(render, windows[w::workers], writer),
                               name=f"worker {w + 1}", daemon=True)
            proc.start()
            writer.close()  # the shard's is then the only write end
            shards.append((proc, reader))
        yield shards
    finally:
        for proc, reader in shards:
            proc.terminate()
            proc.join()
            reader.close()


def _scan_results(lo: int, hi: int, workers: int, render: tuple | None) -> Iterator[ChunkResult]:
    """verify.classify_chunk over each window of [lo, hi], in order.  Given
    W > 1 workers, CPUs and windows, window i is sieved and classified by
    shard i mod W in its own process; else this process runs them all."""
    windows = _windows(lo, hi, _pool_size(workers))
    workers = min(_pool_size(workers), len(windows))
    if workers <= 1:
        yield from (classify_chunk(render, primes_in_range(a, b)) for a, b in windows)
        return
    with _shards(render, windows, workers) as shards:
        for i in range(len(windows)):
            proc, reader = shards[i % workers]
            wait([reader, proc.sentinel])  # no EOF if another process holds a write end
            result = None
            with suppress(EOFError, OSError):  # EOF: the shard died, maybe mid-message
                result = reader.recv() if reader.poll() else None
            if result is None:
                proc.join()
                raise ComputeFailed(f"{proc.name} exited with code {proc.exitcode}")
            if isinstance(result, Exception):
                raise result  # as window i would raise in this process
            yield result


def _report(results: Iterable[ChunkResult], write=None, out: str | None = None) -> int:
    """Pass each chunk's text to write and its failures to stderr as the
    chunks come, then print the rows written to out, if given, and the
    level histogram; 2 if a prime failed to classify, else 0."""
    counts, failed = Counter(), 0
    for text, chunk_counts, failures in results:
        if write is not None:
            write(text)
        counts.update(chunk_counts)
        for p, message in failures:
            print(f"compute failed at p={p}: {message}", file=sys.stderr)
        failed += len(failures)
    if out is not None:
        print(f"wrote {sum(counts.values())} rows to {out}")
    for line in density_lines(counts):
        print(line)
    if failed:
        print(f"{failed} primes failed to classify", file=sys.stderr)
        return 2
    return 0


def _span(args) -> tuple[int, int]:
    """The first and last number of --from..--to to sieve for odd primes."""
    if args.lo > args.hi:
        raise PreconditionViolation("--from must not exceed --to")
    lo = max(args.lo, 3)
    if args.hi - lo >= MAX_WINDOW:
        raise PreconditionViolation("window wider than 10^7 is not supported")
    return lo, args.hi


def cmd_scan(args) -> int:
    if args.workers < 1:
        raise PreconditionViolation("--workers must be at least 1")
    lo, hi = _span(args)
    try:
        fh = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise PreconditionViolation(f"cannot write {args.out}: {exc.strerror}") from None
    results = _scan_results(lo, hi, args.workers, _RENDERERS[args.format])
    with fh, closing(results):
        if args.format == "csv":
            fh.write(CSV_HEADER + "\n")
        return _report(results, fh.write, args.out)


# ------------------------------------------------------------------ verify

def _verdict(result: SuiteResult, name: str, checked: str) -> int:
    """Print a suite's lines and verdict; 3 on a counterexample."""
    for line in result.lines:
        print(line)
    if result.passed:
        print(f"{name}: PASS ({result.checked} {checked})")
        return 0
    print(f"counterexample: {result.counterexample}")
    print(f"{name}: FAIL")
    return 3


def cmd_verify(args) -> int:
    return _verdict(run_suite(args.suite, args.limit, args.seed), args.suite, "checks")


# ----------------------------------------------------------------- density

def cmd_density(args) -> int:
    return _report(_scan_results(*_span(args), 1, None))


# ------------------------------------------------------------- paper-check

def cmd_paper_check(args) -> int:
    return _verdict(run_reference_scan(), "reference computations", "primes examined")


# ------------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="congprimes",
                     description="Classify primes by class-group and "
                                 "descent 2-divisibility levels.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_cls = sub.add_parser("classify", help="classify a single odd prime")
    p_cls.add_argument("p", type=int)
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.add_argument("--json", dest="format", action="store_const",
                       const="json", help="shorthand for --format json")
    p_cls.set_defaults(func=cmd_classify)

    span = argparse.ArgumentParser(add_help=False)  # the range of scan and density
    span.add_argument("--from", dest="lo", type=int, required=True)
    span.add_argument("--to", dest="hi", type=int, required=True)
    p_scan = sub.add_parser("scan", parents=[span], help="classify every prime in a range")
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_scan.add_argument("--workers", type=int, default=1,
                        help="worker processes (at most one per CPU is started)")
    p_scan.set_defaults(func=cmd_scan)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--limit", type=int, default=None,
                       help="range bound or instance count "
                            f"(defaults: {DEFAULT_LIMITS})")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_den = sub.add_parser("density", parents=[span], help="level histogram for a range")
    p_den.set_defaults(func=cmd_density)

    p_chk = sub.add_parser("paper-check",
                           help="rerun the 200-digit reference computations")
    p_chk.set_defaults(func=cmd_paper_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (PreconditionViolation, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputeFailed as exc:
        print(f"compute failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
