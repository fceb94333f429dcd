"""Command-line interface.

Subcommands: classify one prime, scan a range to CSV/JSONL, run a
verification suite, print a level-density table, or rerun the headline
200-digit reference computations.  scan and density run
walk.classify_chunk on each window of their range through walk.walk,
which renders each row's tail, all of it but p, once per (p mod 16,
symbols) class of a window; this module parses, renders and reports.
Only verify and paper-check import verify, with its oracles.

Exit codes: 0 success, 1 usage error, 2 compute failure, 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import closing, contextmanager, suppress
from functools import partial
from typing import Iterable, NamedTuple

from .criteria import V_CEILING, W_CEILING, Classification, classify
from .errors import BoundExceeded, ComputeFailed, PreconditionViolation
from .walk import DEFAULT_LIMITS, ChunkResult, classify_chunk, density_lines, walk


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


def _print(*lines: str) -> None:
    """Print and flush each line.  An OSError is PreconditionViolation "cannot
    write standard output: reason", and stdout's descriptor then becomes
    os.devnull, so that the interpreter's flush at exit cannot fail again."""
    try:
        for line in lines:
            print(line, flush=True)
    except OSError as exc:
        with suppress(OSError, ValueError):  # a stream without a descriptor
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise PreconditionViolation(f"cannot write standard output: {exc.strerror}") from None


def _level_text(level: int | None, ceiling: int) -> str:
    return "NA" if level is None else f"≥ {level}" if level == ceiling else str(level)


def _chi_text(value: int) -> str:
    return {1: "+1", -1: "-1", 0: "0 (not applicable)"}[value]


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    c = classify(args.p)
    if args.format == "json":
        row = ScanRow.from_classification(c)._asdict()
        _print(json.dumps(row | {"sha_report": c.sha_report.value}))
        return 0
    _print(f"p: {c.p}", f"p mod 16: {c.p_mod_16}",
           f"v_level: {_level_text(c.v_level, V_CEILING)}",
           f"w_level: {_level_text(c.w_level, W_CEILING)}",
           *(f"{name}: {_chi_text(value)}" for name, value in c.symbols._asdict().items()),
           f"congruent_status: {c.congruent_status.value}", f"sha_report: {c.sha_report.value}")
    return 0


# -------------------------------------------------------------------- scan

# the row renderers of a scan; module-level, so that they pickle where fork is missing
def _csv_line(c: Classification) -> str:
    return ScanRow.from_classification(c).csv_line()


def _json_line(c: Classification) -> str:
    return json.dumps(ScanRow.from_classification(c)._asdict())


# (head, line) for walk.classify_chunk: head % p is the start of line(c)
_RENDERERS = {"csv": ("%d,", _csv_line), "jsonl": ('{"p": %d, ', _json_line)}


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
        _print(f"wrote {sum(counts.values())} rows to {out}")
    _print(*density_lines(counts))
    if failed:
        print(f"{failed} primes failed to classify", file=sys.stderr)
        return 2
    return 0


def _span(args) -> tuple[int, int]:
    """--from and --to, after checking them and --workers, which scan and
    density share."""
    if args.workers < 1:
        raise PreconditionViolation("--workers must be at least 1")
    if args.lo > args.hi:
        raise PreconditionViolation("--from must not exceed --to")
    return args.lo, args.hi


@contextmanager
def _out_file(path: str):
    """A write function for path that flushes each write, so that the rows a
    scan reports are written.  An OSError from opening, writing or closing
    path, not from stdout, is PreconditionViolation "cannot write path: reason"."""
    def attempt(step):
        try:
            return step()
        except OSError as exc:
            raise PreconditionViolation(f"cannot write {path}: {exc.strerror}") from None

    fh = attempt(lambda: open(path, "w", encoding="utf-8", newline=""))
    try:
        yield lambda text: attempt(lambda: (fh.write(text), fh.flush()))
    except BaseException:
        with suppress(OSError):  # a buffer that failed to flush fails again
            fh.close()
        raise
    attempt(fh.close)


def cmd_scan(args) -> int:
    lo, hi = _span(args)
    results = walk(partial(classify_chunk, _RENDERERS[args.format]), lo, hi, args.workers)
    with _out_file(args.out) as write, closing(results):
        if args.format == "csv":
            write(CSV_HEADER + "\n")
        return _report(results, write, args.out)


# ------------------------------------------------------------------ verify

def _verdict(result, name: str, checked: str) -> int:
    """Print the lines and verdict of result, a verify.SuiteResult; 3 on a counterexample."""
    _print(*result.lines)
    if result.passed:
        _print(f"{name}: PASS ({result.checked} {checked})")
        return 0
    _print(f"counterexample: {result.counterexample}", f"{name}: FAIL")
    return 3


def cmd_verify(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise PreconditionViolation("--limit must be at least 1")
    from .verify import run_suite
    return _verdict(run_suite(args.suite, args.limit, args.seed), args.suite, "checks")


# ----------------------------------------------------------------- density

def cmd_density(args) -> int:
    results = walk(partial(classify_chunk, None), *_span(args), args.workers)
    with closing(results):
        return _report(results)


# ------------------------------------------------------------- paper-check

def cmd_paper_check(args) -> int:
    from .verify import run_reference_scan
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

    span = argparse.ArgumentParser(add_help=False)  # the range walk of scan and density
    span.add_argument("--from", dest="lo", type=int, required=True)
    span.add_argument("--to", dest="hi", type=int, required=True)
    span.add_argument("--workers", type=int, default=1,
                      help="worker processes (at most one per CPU is started)")
    p_scan = sub.add_parser("scan", parents=[span], help="classify every prime in a range")
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_scan.set_defaults(func=cmd_scan)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(DEFAULT_LIMITS))
    p_ver.add_argument("--limit", type=int, default=None,
                       help="range bound or instance count "
                            f"(defaults: {DEFAULT_LIMITS})")
    p_ver.add_argument("--seed", type=int, default=1,
                       help="random seed of the lemmas suite; the other suites ignore it")
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
