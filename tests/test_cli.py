"""End-to-end tests for the command-line interface.

Everything drives ``main(argv)`` in-process so exit codes and output can
be asserted without spawning a shell.
"""

import functools
import hashlib
import json
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import congprimes
from congprimes import cli, criteria, verify
from congprimes.cli import CSV_HEADER, _pool_size, main
from congprimes.criteria import SymbolSet, classify
from congprimes.errors import ComputeFailed, PreconditionViolation
from congprimes.modmath import _certified, primes_in_range
from congprimes.verify import SuiteResult, density_lines, level_counts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- classify

def test_classify_text_plain_levels(capsys):
    code, out, _ = run(capsys, "classify", "17")
    assert code == 0
    lines = out.splitlines()
    assert "p: 17" in lines
    assert "v_level: 2" in lines
    assert "w_level: 1" in lines
    assert "chi_1pi: -1" in lines
    assert "congruent_status: NOT_CONGRUENT" in lines


def test_classify_text_ceiling_levels(capsys):
    # 257 sits at both ceilings, so the text must say "at least"
    code, out, _ = run(capsys, "classify", "257")
    assert code == 0
    assert "v_level: ≥ 4" in out
    assert "w_level: ≥ 3" in out


def test_classify_text_off_stratum(capsys):
    code, out, _ = run(capsys, "classify", "7")
    assert code == 0
    assert "w_level: NA" in out
    assert "chi_1pi: 0 (not applicable)" in out


def test_classify_json_fields(capsys):
    code, out, _ = run(capsys, "classify", "41", "--json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"p", "p_mod_16", "chi_1pi", "chi_alpha_delta",
                        "chi_zeta_alpha_delta", "v_level", "w_level",
                        "congruent_status", "sha_report"}
    c = classify(41)
    assert obj["p"] == 41
    assert obj["v_level"] == c.v_level == 3
    assert obj["w_level"] == c.w_level == 3
    assert obj["congruent_status"] == c.congruent_status.value
    assert obj["sha_report"] == c.sha_report.value


def test_classify_json_null_w_level(capsys):
    code, out, _ = run(capsys, "classify", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["w_level"] is None


@pytest.mark.parametrize("arg", ["4", "2", "9", "-7"])
def test_classify_rejects_non_odd_primes(capsys, arg):
    code, _, err = run(capsys, "classify", arg)
    assert code == 1
    assert "error:" in err


def test_classify_p2_gets_dedicated_message(capsys):
    code, _, err = run(capsys, "classify", "2")
    assert code == 1
    assert "p = 2 is excluded" in err


# -------------------------------------------------------------------- scan

def test_scan_csv_contract(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, err = run(capsys, "scan", "--from", "3", "--to", "100",
                         "--out", str(out_path))
    assert code == 0
    assert err == ""
    assert f"wrote 24 rows to {out_path}" in out
    data = out_path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 25  # header + 24 primes in [3, 100]

    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        c = classify(int(fields[0]))
        want_w = "NA" if c.w_level is None else str(c.w_level)
        assert fields[1] == str(c.p_mod_16)
        assert fields[2] == str(c.symbols.chi_1pi)
        assert fields[3] == str(c.symbols.chi_alpha_delta)
        assert fields[4] == str(c.symbols.chi_zeta_alpha_delta)
        assert fields[5] == str(c.v_level)
        assert fields[6] == want_w
        assert fields[7] == c.congruent_status.value


def test_scan_jsonl_matches_classify(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run(capsys, "scan", "--from", "3", "--to", "100",
                     "--out", str(out_path), "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) == 24
    assert [r["p"] for r in rows] == sorted(r["p"] for r in rows)
    for r in rows:
        c = classify(r["p"])
        assert r["v_level"] == c.v_level
        assert r["w_level"] == c.w_level
        assert r["chi_zeta_alpha_delta"] == c.symbols.chi_zeta_alpha_delta


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_scan_worker_count_does_not_change_output(capsys, tmp_path, fmt):
    serial = tmp_path / f"serial.{fmt}"
    parallel = tmp_path / f"parallel.{fmt}"
    assert run(capsys, "scan", "--from", "3", "--to", "400", "--out",
               str(serial), "--format", fmt)[0] == 0
    assert run(capsys, "scan", "--from", "3", "--to", "400", "--out",
               str(parallel), "--format", fmt, "--workers", "3")[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


# sha256 of the CSV of scan --from 3 --to 200000
SCAN_200000_CSV_SHA256 = "a694c507d0acf752574b07f24abd7bb70bab4ae149d246f9874568b31904fcc5"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_bytes_are_pinned(capsys, tmp_path, monkeypatch, pools, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out_path = tmp_path / "scan.csv"
    assert run(capsys, "scan", "--from", "3", "--to", "200000", "--out", str(out_path),
               "--workers", workers)[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_200000_CSV_SHA256
    assert pools == ([] if workers == "1" else [2])


# a window past 10^200 with 5 primes, 10^200+16737 (split, v = 3, w = 2) among them
WINDOW = (10**200 + 16000, 10**200 + 17000)
WINDOW_SHA256 = {"csv": "04e3c75fbd9789bc3aeb2a98c75d8686d4250d9ac105ec55699d6f36bdf823b0",
                 "jsonl": "248a780f1e4f3b13196717a88ce968962bd04033a7e88e89e65543cb8c4eba79"}


@functools.cache
def _primes(lo, hi):
    return primes_in_range(lo, hi)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_window_scan_bytes_are_pinned(capsys, tmp_path, fmt):
    out_path = tmp_path / f"window.{fmt}"
    assert run(capsys, "scan", "--from", str(WINDOW[0]), "--to", str(WINDOW[1]),
               "--out", str(out_path), "--format", fmt)[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == WINDOW_SHA256[fmt]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("lo, hi", [(3, 30000), WINDOW])
def test_classify_chunk_matches_the_per_prime_loop(monkeypatch, fmt, lo, hi):
    """Rows rendered once per (p mod 16, symbols) class are the rows of
    rendering every prime, and the counts and failures are the same."""
    ns = _primes(lo, hi)
    bad = ns[0]
    assert len({n % 16 for n in ns[1:]}) < len(ns) - 1  # some class holds two rows

    def failing(p, real=verify.classify):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(verify, "classify", failing)
    head, line = cli._RENDERERS[fmt]
    lines, counts, failures = [], Counter(), []
    for n in ns:
        try:
            c = failing(_certified(n))
        except ComputeFailed as exc:
            failures.append((n, str(exc)))
            continue
        assert line(c).startswith(head % n)
        lines.append(line(c) + "\n")
        counts[c.v_level, c.w_level] += 1
    want = ("".join(lines), counts, failures)
    assert verify.classify_chunk((head, line), ns) == want
    assert verify.classify_chunk(None, ns) == ("",) + want[1:]


def test_rules_are_settled_once_per_class(capsys, tmp_path, monkeypatch):
    settled = []

    def rule(*key, real=criteria._rule):
        settled.append(key)
        return real(*key)

    monkeypatch.setattr(criteria, "_RULES", {})
    monkeypatch.setattr(criteria, "_rule", rule)
    assert run(capsys, "scan", "--from", "3", "--to", "200000",
               "--out", str(tmp_path / "scan.csv"))[0] == 0
    split = {SymbolSet(1, a, b) for a in (1, -1) for b in (1, -1)} | {SymbolSet(-1)}
    classes = {(m8, SymbolSet()) for m8 in (3, 5, 7)} | {(1, s) for s in split}
    assert len(settled) == len(set(settled)) == len(criteria._RULES) <= 24
    assert set(settled) == set(criteria._RULES) == classes


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_scan_reports_a_failed_prime_from_every_worker_count(capsys, tmp_path, monkeypatch, fmt):
    bad = 113

    def failing(p, real=verify.classify):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(verify, "classify", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # one chunk: no pool either way
    outputs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.{fmt}"
        code, out, err = run(capsys, "scan", "--from", "3", "--to", "200", "--out",
                             str(out_path), "--format", fmt, "--workers", workers)
        assert code == 2
        assert f"compute failed at p={bad}: could not certify delta" in err
        assert "1 primes failed to classify" in err
        assert f"wrote 44 rows to {out_path}" in out  # 45 odd primes up to 200
        outputs.append(out_path.read_bytes())
    lines = outputs[0].decode().splitlines()
    ps = [json.loads(line)["p"] for line in lines] if fmt == "jsonl" else [
        int(line.split(",")[0]) for line in lines[1:]]
    assert len(ps) == 44 and bad not in ps and {109, 127} <= set(ps)
    assert outputs[0] == outputs[1]


@pytest.fixture
def pools(monkeypatch):
    """The process count of every set of scan shards started."""
    started = []

    def shards(render, windows, workers, real=cli._shards):
        started.append(workers)
        return real(render, windows, workers)

    monkeypatch.setattr(cli, "_shards", shards)
    return started


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_chunked_scan_matches_across_worker_counts(capsys, tmp_path, monkeypatch, pools, fmt):
    ns = primes_in_range(3, 30000)
    chunks = -(-len(ns) // cli.SCAN_CHUNK)
    bad = ns[len(ns) // 2]
    assert len(ns) == 3244 and chunks >= 3
    assert 0 < ns.index(bad) // cli.SCAN_CHUNK < chunks - 1  # a middle chunk

    def failing(p, real=verify.classify):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(verify, "classify", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.{fmt}"
        code, out, err = run(capsys, "scan", "--from", "3", "--to", "30000", "--out",
                             str(out_path), "--format", fmt, "--workers", workers)
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("compute failed")] == [
            f"compute failed at p={bad}: could not certify delta for p = {bad}"]
        assert out.splitlines()[0] == f"wrote 3243 rows to {out_path}"
        results.append((out_path.read_bytes(), out.splitlines()[1:]))
    assert pools == [2]  # the one-worker run started none
    assert results[0] == results[1]
    assert str(bad).encode() not in results[0][0]


def test_scan_starts_at_most_one_process_per_worker_cpu_and_chunk(capsys, tmp_path,
                                                                  monkeypatch, pools):
    def scan(hi):
        return run(capsys, "scan", "--from", "3", "--to", str(hi), "--out",
                   str(tmp_path / "scan.csv"), "--workers", "8")[0]

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert len(primes_in_range(3, 5000)) <= cli.SCAN_CHUNK
    assert scan(5000) == 0 and pools == []  # one chunk runs in this process
    assert -(-len(primes_in_range(3, 10000)) // cli.SCAN_CHUNK) == 2
    assert scan(10000) == 0 and pools == [2]  # two chunks: two processes, not eight
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert scan(10000) == 0 and pools == [2]  # one CPU: no pool


def test_windows_cover_the_range_and_are_capped(monkeypatch):
    assert cli._windows(3, 2) == []
    for lo, hi in [(3, 5000), (3, 200000), (10**12, 10**12 + 10**7 - 1), WINDOW]:
        windows = cli._windows(lo, hi)
        assert windows[0][0] == lo and windows[-1][1] == hi
        assert all(b + 1 == c for (_, b), (c, _) in zip(windows, windows[1:]))
    per_window = len(primes_in_range(3, 200000)) / len(cli._windows(3, 200000))
    assert cli.SCAN_CHUNK <= per_window <= 1.2 * cli.SCAN_CHUNK
    # past about 2 * 10^7 the sieve's base loop sets the width: 4 * 10^5 at 10^10
    assert [b - a + 1 for a, b in cli._windows(10**10 - 10**7 + 1, 10**10)] == [4 * 10**5] * 25
    assert len(cli._windows(10**10 - 10**6 + 1, 10**10, 2)) == 8  # unless < 4 per process
    monkeypatch.setattr(cli, "SCAN_CHUNK", 10**6)  # never wider than MAX_WINDOW
    assert cli._windows(3, 3 * 10**7) == [(3, 10**7 + 2), (10**7 + 3, 2 * 10**7 + 2),
                                          (2 * 10**7 + 3, 3 * 10**7)]


@pytest.mark.parametrize("chunk, span", [(16, 0), (100, 0), (1, 4)])
def test_scan_bytes_do_not_depend_on_the_window_size(capsys, tmp_path, monkeypatch, pools,
                                                     chunk, span):
    monkeypatch.setattr(cli, "SCAN_CHUNK", chunk)
    monkeypatch.setattr(cli, "BASE_SPAN", span)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(cli._windows(3, 200000)) > 100
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.csv"
        assert run(capsys, "scan", "--from", "3", "--to", "200000", "--out", str(out_path),
                   "--workers", workers)[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_200000_CSV_SHA256
    assert pools == [2]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_window_scan_bytes_are_pinned_when_both_shards_certify(capsys, tmp_path, monkeypatch,
                                                               pools, fmt):
    monkeypatch.setattr(cli, "SCAN_CHUNK", 1)  # windows of about 460 numbers
    monkeypatch.setattr(cli, "BASE_SPAN", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(cli._windows(*WINDOW)) == 3
    out_path = tmp_path / f"window.{fmt}"
    assert run(capsys, "scan", "--from", str(WINDOW[0]), "--to", str(WINDOW[1]),
               "--out", str(out_path), "--format", fmt, "--workers", "2")[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == WINDOW_SHA256[fmt]
    assert pools == [2]


class Overran(Exception):
    """Raised by deadline.  Not an OSError, as TimeoutError is: a scan takes an
    OSError from a worker's pipe for the worker's death."""


@contextmanager
def deadline(seconds):
    """Raise Overran in this process if the block runs longer."""
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


DEAD_WORKER_PRIME = 15013  # in window 1 of 3..30000, so worker 2's


def _dying_chunk(render, ns):
    """verify.classify_chunk, but a worker process handed DEAD_WORKER_PRIME
    exits with code 9; module-level, so a pool could pickle it too."""
    if multiprocessing.parent_process() is not None and DEAD_WORKER_PRIME in ns:
        os._exit(9)
    return verify.classify_chunk(render, ns)


def _dying_in_send(render, ns):
    """verify.classify_chunk, but the worker handed DEAD_WORKER_PRIME exits
    with code 9 half a second later, while it is blocked sending that window:
    the worker handed 3 holds the parent back for a second before it."""
    if multiprocessing.parent_process() is not None:
        if DEAD_WORKER_PRIME in ns:
            threading.Timer(0.5, os._exit, (9,)).start()
        elif 3 in ns:
            time.sleep(1)
    return verify.classify_chunk(render, ns)


@pytest.mark.parametrize("fmt, how", [
    ("csv", "exit"), ("jsonl", "exit"),
    ("csv", "write end held"), ("jsonl", "write end held"),
    ("jsonl", "exit mid-send"),  # its window's JSONL outgrows a pipe's buffer
])
def test_a_dead_worker_is_reported_not_waited_on(capsys, tmp_path, monkeypatch, fmt, how):
    """A worker process that dies mid-scan makes scan exit 2 with one line
    naming it, after the rows of the windows before its own: when it dies
    between windows, in the middle of sending one, or while some other
    process (one forked by another thread, say) holds its pipe's write end."""
    bad, held = DEAD_WORKER_PRIME, []

    def pipe(duplex=True, real=multiprocessing.connection.Pipe):
        reader, writer = real(duplex)
        held.append(os.dup(writer.fileno()))
        return reader, writer

    if how == "write end held":
        monkeypatch.setattr(multiprocessing.connection, "Pipe", pipe)
    monkeypatch.setattr(cli, "classify_chunk",
                        _dying_in_send if how == "exit mid-send" else _dying_chunk)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out_path = tmp_path / f"scan.{fmt}"
    try:
        with deadline(20):
            code, out, err = run(capsys, "scan", "--from", "3", "--to", "30000", "--out",
                                 str(out_path), "--format", fmt, "--workers", "2")
    finally:
        for fd in held:
            os.close(fd)
    windows = cli._windows(3, 30000)
    assert len(windows) == 3 and windows[1][0] <= bad <= windows[1][1]
    assert code == 2
    assert out == ""
    assert err == "compute failed: worker 2 exited with code 9\n"
    assert multiprocessing.active_children() == []
    rows = out_path.read_text().splitlines()[fmt == "csv":]
    assert len(rows) == len(primes_in_range(*windows[0]))
    if how == "exit mid-send":
        text = verify.classify_chunk(cli._RENDERERS[fmt], primes_in_range(*windows[1]))[0]
        assert len(text) > 2 * 65536  # twice a Linux pipe's default buffer


def test_an_exception_in_a_worker_is_raised_as_in_one_process(capsys, tmp_path, monkeypatch,
                                                              pools):
    """A worker that raises, a precondition check or a bug, makes scan end
    as one process does: the same exit code, stderr and rows at 1 and 2
    workers, and no traceback from the worker."""
    bad = DEAD_WORKER_PRIME  # in window 1, so worker 2's
    error = PreconditionViolation

    def raising(p, real=verify.classify):
        if int(p) == bad:
            raise error(f"{bad} breaks a precondition")
        return real(p)

    monkeypatch.setattr(verify, "classify", raising)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.csv"
        assert run(capsys, "scan", "--from", "3", "--to", "30000", "--out", str(out_path),
                   "--workers", workers) == (1, "", f"error: {bad} breaks a precondition\n")
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + len(primes_in_range(*cli._windows(3, 30000)[0]))
    error = KeyError
    for workers in ("1", "2"):
        with pytest.raises(KeyError, match=f"{bad} breaks a precondition") as raised:
            main(["scan", "--from", "3", "--to", "30000", "--out", str(tmp_path / "bug.csv"),
                  "--workers", workers])
        assert capsys.readouterr().err == ""
    assert "in raising" in str(raised.value.__cause__)  # the worker's traceback
    assert pools == [2, 2]
    assert multiprocessing.active_children() == []


def test_density_walks_its_windows_in_this_process(capsys, pools):
    assert len(cli._windows(3, 30000)) == 3
    code, out, _ = run(capsys, "density", "--from", "3", "--to", "30000")
    assert code == 0
    assert out.splitlines() == density_lines(level_counts(3, 30000))
    assert pools == []


def test_scan_prints_density_summary(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    _, out, _ = run(capsys, "scan", "--from", "3", "--to", "600",
                    "--out", str(out_path))
    assert "V(4)/V(3) fraction:" in out
    assert "v_level 0" in out


def test_scan_to_100000_fraction_in_frozen_band(capsys, tmp_path):
    # the observed value is 605/1188 = 0.5093; the band is deliberately loose
    out_path = tmp_path / "full.csv"
    code, out, _ = run(capsys, "scan", "--from", "3", "--to", "100000",
                       "--out", str(out_path), "--workers", "2")
    assert code == 0
    assert "wrote 9591 rows" in out
    fraction_lines = [l for l in out.splitlines() if l.startswith("V(4)/V(3)")]
    assert len(fraction_lines) == 1
    value = float(fraction_lines[0].rsplit("=", 1)[1])
    assert 0.4 <= value <= 0.6


def test_scan_rejects_inverted_range(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--from", "100", "--to", "3",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "must not exceed" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_scan_rejects_fewer_than_one_worker(capsys, tmp_path, workers):
    out_path = tmp_path / "x.csv"
    code, _, err = run(capsys, "scan", "--from", "3", "--to", "100",
                       "--out", str(out_path), "--workers", workers)
    assert code == 1
    assert "--workers must be at least 1" in err
    assert not out_path.exists()


def test_scan_rejects_too_wide_a_window_before_writing(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, _, err = run(capsys, "scan", "--from", str(10**12), "--to", str(10**12 + 10**7),
                       "--out", str(out_path))
    assert code == 1
    assert "window wider than 10^7" in err
    assert not out_path.exists()


@pytest.mark.parametrize("target", ["missing/scan.csv", "."])
def test_scan_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, target):
    out_path = tmp_path / target  # a missing directory, or a directory
    code, out, err = run(capsys, "scan", "--from", "3", "--to", "100", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [_pool_size(n) for n in (1, 3, 4, 5, 10**6)] == [1, 3, 4, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    assert _pool_size(8) == 1


def test_scan_requires_out(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--from", "3", "--to", "100")
    assert code == 1
    assert "required" in err


# ------------------------------------------------------------------ verify

def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "tunnell", "--limit", "300")
    assert code == 0
    assert "tunnell: PASS" in out


def test_verify_failure_exit_three(capsys, monkeypatch):
    fake = SuiteResult("els", False, 9, counterexample="p=99991: mismatch")
    monkeypatch.setattr("congprimes.cli.run_suite", lambda *a: fake)
    code, out, _ = run(capsys, "verify", "els")
    assert code == 3
    assert "counterexample: p=99991: mismatch" in out
    assert "els: FAIL" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1
    assert "invalid choice" in err


# ----------------------------------------------------------------- density

def test_density_matches_library(capsys):
    code, out, _ = run(capsys, "density", "--from", "3", "--to", "100")
    assert code == 0
    assert out.splitlines() == density_lines(level_counts(3, 100))


def test_density_reports_a_failed_prime_like_scan(capsys, tmp_path, monkeypatch):
    bad = 113

    def failing(p, real=verify.classify):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(verify, "classify", failing)
    code, out, err = run(capsys, "density", "--from", "3", "--to", "200")
    assert code == 2
    assert err.splitlines() == [f"compute failed at p={bad}: could not certify delta for p = {bad}",
                                "1 primes failed to classify"]
    assert out.splitlines()[0] == "primes classified: 44"  # 45 odd primes up to 200
    _, scan_out, scan_err = run(capsys, "scan", "--from", "3", "--to", "200",
                                "--out", str(tmp_path / "scan.csv"))
    assert scan_err == err
    assert scan_out.splitlines()[1:] == out.splitlines()


def test_density_rejects_inverted_range(capsys):
    code, _, err = run(capsys, "density", "--from", "9", "--to", "5")
    assert code == 1
    assert "must not exceed" in err


# ------------------------------------------------------------- paper-check

def test_paper_check_pass_path(capsys, monkeypatch):
    fake = SuiteResult("paper-check", True, 57, lines=["p=41: ok"])
    monkeypatch.setattr("congprimes.cli.run_reference_scan", lambda: fake)
    code, out, _ = run(capsys, "paper-check")
    assert code == 0
    assert "reference computations: PASS (57 primes examined)" in out


def test_paper_check_fail_path(capsys, monkeypatch):
    fake = SuiteResult("paper-check", False, 3, counterexample="bad")
    monkeypatch.setattr("congprimes.cli.run_reference_scan", lambda: fake)
    code, out, _ = run(capsys, "paper-check")
    assert code == 3
    assert "reference computations: FAIL" in out


# ------------------------------------------------------------------- wiring

def test_no_arguments_shows_help(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage:" in err


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


# ---------------------------------------------------------------- library

def test_import_does_not_load_the_cli():
    code = ("import sys, congprimes; "
            "print(sorted(m for m in ('argparse', 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(congprimes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"
