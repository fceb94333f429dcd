"""End-to-end tests for the command-line interface.

Everything drives ``main(argv)`` in-process so exit codes and output can
be asserted without spawning a shell.
"""

import errno
import functools
import hashlib
import io
import json
import multiprocessing.connection
import multiprocessing.process
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import congprimes.walk
from congprimes import cli, criteria, modmath, verify
from congprimes.cli import CSV_HEADER, main
from congprimes.criteria import SymbolSet, classify
from congprimes.errors import ComputeFailed, PreconditionViolation
from congprimes.modmath import _certified, primes_in_range, windows
from congprimes.verify import SuiteResult, level_counts
from congprimes.walk import _pool_size, classify_chunk, density_lines, walk


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cpus(monkeypatch, n):
    """Let this process run on n CPUs of a machine with n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


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
    cpus(monkeypatch, 2)
    out_path = tmp_path / "scan.csv"
    assert run(capsys, "scan", "--from", "3", "--to", "200000", "--out", str(out_path),
               "--workers", workers)[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_200000_CSV_SHA256
    assert pools == ([0] if workers == "1" else [1])


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


@pytest.mark.parametrize("lo, hi", [(3, 200000), WINDOW])
def test_scan_and_verify_walks_sieve_the_same_windows(capsys, tmp_path, monkeypatch, lo, hi):
    sieved = []

    def spy(a, b):
        sieved.append((a, b))
        return _primes(a, b)

    for module in (verify, congprimes.walk):  # _certified_primes' sieve, then classify_chunk's
        monkeypatch.setattr(module, "primes_in_range", spy)
    want = list(windows(lo, hi))
    assert len(want) == (16 if lo == 3 else 1)  # the window past 10^200 is not cut
    assert [P.value for P in verify._certified_primes(lo, hi)] == [
        p for w in want for p in _primes(*w)]
    assert sieved == want
    sieved.clear()
    assert run(capsys, "scan", "--from", str(lo), "--to", str(hi),
               "--out", str(tmp_path / "scan.csv"))[0] == 0
    assert sieved == want


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("lo, hi", [(3, 30000), WINDOW])
def test_classify_chunk_matches_the_per_prime_loop(monkeypatch, fmt, lo, hi):
    """Rows rendered once per (p mod 16, symbols) class are the rows of
    classifying and rendering every prime, and the counts and failures are
    the same."""
    ns = _primes(lo, hi)
    # the first prime of its residue-forced class, and a split one
    bad = {ns[0], next(n for n in ns if n % 8 == 1)}
    assert len({n % 16 for n in ns[1:]}) < len(ns) - 1  # some class holds two rows

    def failing(p, real=congprimes.walk._symbols):
        if int(p) in bad:
            raise ComputeFailed(f"could not certify delta for p = {p}")
        return real(p)

    monkeypatch.setattr(congprimes.walk, "_symbols", failing)
    head, line = cli._RENDERERS[fmt]
    lines, counts, failures = [], Counter(), []
    for n in ns:
        if n in bad:
            failures.append((n, f"could not certify delta for p = {n}"))
            continue
        c = classify(_certified(n))
        assert line(c).startswith(head % n)
        lines.append(line(c) + "\n")
        counts[c.v_level, c.w_level] += 1
    want = ("".join(lines), counts, failures)
    assert classify_chunk((head, line), lo, hi) == want
    assert classify_chunk(None, lo, hi) == ("",) + want[1:]


def test_classify_runs_once_per_forced_class_and_per_split_prime(monkeypatch):
    """A chunk takes the symbols of the first prime of each residue-forced
    (p mod 16) class and of every prime ≡ 1 (mod 8), in order, and builds
    one Classification per (p mod 16, symbols) class, from its first prime."""
    seen, built = [], []

    def spy(p, real=congprimes.walk._symbols):
        seen.append(int(p))
        return real(p)

    def build(n, syms, real=congprimes.walk._classification):
        built.append(n)
        return real(n, syms)

    monkeypatch.setattr(congprimes.walk, "_symbols", spy)
    monkeypatch.setattr(congprimes.walk, "_classification", build)
    for lo, hi in windows(3, 30000):
        ns, classes, want, first = primes_in_range(lo, hi), set(), [], []
        for n in ns:
            key = n % 16 if n % 8 != 1 else (n % 16, classify(n).symbols)
            if n % 8 == 1 or key not in classes:
                want.append(n)
            if key not in classes:
                first.append(n)
                classes.add(key)
        seen.clear()
        built.clear()
        classify_chunk(cli._RENDERERS["csv"], lo, hi)
        assert seen == want
        assert built == first
        assert len(want) == 6 + sum(n % 8 == 1 for n in ns)
        assert 6 < len(first) <= 6 + 2 * 5  # p ≡ 1, 9 (mod 16): _INERT or (1, ±1, ±1)


def test_the_rule_table_holds_exactly_the_classes_a_scan_meets(capsys, tmp_path, monkeypatch):
    met = set()

    def classification(pv, syms, real=congprimes.walk._classification):
        met.add((pv % 8, syms))
        return real(pv, syms)

    monkeypatch.setattr(congprimes.walk, "_classification", classification)
    assert run(capsys, "scan", "--from", "3", "--to", "200000",
               "--out", str(tmp_path / "scan.csv"))[0] == 0
    split = {SymbolSet(1, a, b) for a in (1, -1) for b in (1, -1)} | {SymbolSet(-1)}
    classes = {(m8, SymbolSet()) for m8 in (3, 5, 7)} | {(1, s) for s in split}
    assert len(criteria._RULES) == 8
    assert met == set(criteria._RULES) == classes


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_scan_reports_a_failed_prime_from_every_worker_count(capsys, tmp_path, monkeypatch, fmt):
    bad = 113

    def failing(p, real=congprimes.walk._symbols):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(congprimes.walk, "_symbols", failing)
    cpus(monkeypatch, 2)  # one chunk: no pool either way
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
    """The number of shard processes each scan started besides this one."""
    started = []

    def walk(*args, real=cli.walk):
        started.append(0)
        return real(*args)

    def start(self, real=multiprocessing.process.BaseProcess.start):
        started[-1] += 1
        real(self)

    monkeypatch.setattr(cli, "walk", walk)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_chunked_scan_matches_across_worker_counts(capsys, tmp_path, monkeypatch, pools, fmt):
    ns = primes_in_range(3, 30000)
    chunks = -(-len(ns) // modmath.SCAN_CHUNK)
    bad = next(n for n in ns[len(ns) // 2:] if n % 8 == 1)
    assert len(ns) == 3244 and chunks >= 3
    assert 0 < ns.index(bad) // modmath.SCAN_CHUNK < chunks - 1  # a middle chunk

    def failing(p, real=congprimes.walk._symbols):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(congprimes.walk, "_symbols", failing)
    cpus(monkeypatch, 2)
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
    assert pools == [0, 1]  # the one-worker run started none
    assert results[0] == results[1]
    assert str(bad).encode() not in results[0][0]


def test_scan_starts_at_most_one_process_per_worker_cpu_and_chunk(capsys, tmp_path,
                                                                  monkeypatch, pools):
    def scan(hi):
        return run(capsys, "scan", "--from", "3", "--to", str(hi), "--out",
                   str(tmp_path / "scan.csv"), "--workers", "8")[0]

    cpus(monkeypatch, 8)
    assert len(primes_in_range(3, 5000)) <= modmath.SCAN_CHUNK
    assert scan(5000) == 0 and pools == [0]  # one chunk runs in this process
    assert -(-len(primes_in_range(3, 10000)) // modmath.SCAN_CHUNK) == 2
    assert scan(10000) == 0 and pools == [0, 1]  # two chunks: two processes, not eight
    cpus(monkeypatch, 1)
    assert scan(10000) == 0 and pools == [0, 1, 0]  # one CPU: one process


def test_windows_cover_the_range_and_are_capped(monkeypatch):
    assert list(windows(3, 2)) == []
    for lo, hi in [(3, 5000), (3, 200000), (10**12, 10**12 + 10**7 - 1), WINDOW]:
        cut = windows(lo, hi)
        assert cut[0][0] == lo and cut[-1][1] == hi
        assert all(b + 1 == c for (_, b), (c, _) in zip(cut, cut[1:]))
    per_window = len(primes_in_range(3, 200000)) / len(windows(3, 200000))
    assert modmath.SCAN_CHUNK <= per_window <= 1.2 * modmath.SCAN_CHUNK
    # past about 2 * 10^7 the sieve's base loop sets the width: 4 * 10^5 at 10^10
    assert [b - a + 1 for a, b in windows(10**10 - 10**7 + 1, 10**10)] == [4 * 10**5] * 25
    assert len(windows(10**10 - 10**6 + 1, 10**10, 2)) == 8  # unless < 4 per process
    monkeypatch.setattr(modmath, "SCAN_CHUNK", 10**6)  # never wider than MAX_WINDOW
    assert list(windows(3, 3 * 10**7)) == [(3, 10**7 + 2), (10**7 + 3, 2 * 10**7 + 2),
                                           (2 * 10**7 + 3, 3 * 10**7)]


def test_a_walk_to_10_12_starts_without_listing_its_windows():
    """windows holds no list of its 2.5 million windows, nor of the
    2.5 * 10^24 to 10^30, past the sys.maxsize that len() allows, so it and
    the first window of a walk cost neither time nor memory that grows with
    the range."""
    for hi in (10**12, 10**30):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cut = windows(3, hi)
            first = walk(lambda a, b: (a, b), 3, hi)
            assert next(first) == cut[0] == (3, 400002)
            first.close()
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cut.starts == range(3, hi + 1, 400_000) and cut[-1] == (hi - 399_997, hi)
        assert seconds < 1 and peak < 2**20, hi


def _nothing(lo, hi):
    """A job whose result is None in every window."""
    return None


def test_a_none_result_is_yielded_at_every_worker_count(monkeypatch):
    """A shard that sends None is alive: walk tells a dead shard by the
    state of its pipe, not by the value received."""
    cpus(monkeypatch, 2)
    with deadline(20):
        for workers in (1, 2):
            assert list(walk(_nothing, 3, 10**6, workers)) == [None] * len(
                windows(3, 10**6, workers))
    assert multiprocessing.active_children() == []


def test_a_walk_without_fork_spawns_shards_that_print_what_one_worker_does(capsys, tmp_path,
                                                                          monkeypatch, pools):
    """Where "fork" is missing, walk takes the default context, here "spawn":
    its shard imports _shard, classify_chunk and the renderers by reference
    from their modules, and scan and density print what one worker does."""
    contexts = []

    def get_context(method=None, real=multiprocessing.get_context):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        contexts.append(real("spawn"))
        return contexts[-1]

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(congprimes.walk, "_pool_size", lambda workers: min(workers, 2))
    assert len(windows(3, 30000, 2)) == 3
    out_path = tmp_path / "scan.out"
    with deadline(60):
        for fmt in ("csv", "jsonl"):
            scans = [(run(capsys, "scan", "--from", "3", "--to", "30000", "--out", str(out_path),
                          "--format", fmt, "--workers", workers), out_path.read_bytes())
                     for workers in ("1", "2")]
            assert scans[0] == scans[1] and scans[0][0][0] == 0
        one, two = (run(capsys, "density", "--from", "3", "--to", "30000", "--workers", workers)
                    for workers in ("1", "2"))
    assert one == two and one[0] == 0
    assert pools == [0, 1] * 3
    assert [ctx.get_start_method() for ctx in contexts] == ["spawn"] * 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -1])
def test_a_worker_count_below_one_is_refused(workers):
    with pytest.raises(PreconditionViolation, match="at least 1"):
        windows(3, 10**6, workers)
    with pytest.raises(PreconditionViolation, match="at least 1"):
        list(walk(_nothing, 3, 10**6, workers))


@pytest.mark.parametrize("chunk, span", [(16, 0), (100, 0), (1, 4)])
def test_scan_bytes_do_not_depend_on_the_window_size(capsys, tmp_path, monkeypatch, pools,
                                                     chunk, span):
    monkeypatch.setattr(modmath, "SCAN_CHUNK", chunk)
    monkeypatch.setattr(modmath, "BASE_SPAN", span)
    cpus(monkeypatch, 2)
    assert len(windows(3, 200000)) > 100
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.csv"
        assert run(capsys, "scan", "--from", "3", "--to", "200000", "--out", str(out_path),
                   "--workers", workers)[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_200000_CSV_SHA256
    assert pools == [0, 1]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_window_scan_bytes_are_pinned_when_both_shards_certify(capsys, tmp_path, monkeypatch,
                                                               pools, fmt):
    monkeypatch.setattr(modmath, "SCAN_CHUNK", 1)  # windows of about 460 numbers
    monkeypatch.setattr(modmath, "BASE_SPAN", 0)
    cpus(monkeypatch, 2)
    assert len(windows(*WINDOW)) == 3
    out_path = tmp_path / f"window.{fmt}"
    assert run(capsys, "scan", "--from", str(WINDOW[0]), "--to", str(WINDOW[1]),
               "--out", str(out_path), "--format", fmt, "--workers", "2")[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == WINDOW_SHA256[fmt]
    assert pools == [1]  # this process and one shard


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


DEAD_WORKER_PRIME = 15017  # ≡ 1 (mod 8), in window 1 of 3..30000, so worker 2's


def _dying_chunk(render, lo, hi):
    """walk.classify_chunk, but a worker process handed DEAD_WORKER_PRIME's
    window exits with code 9; module-level, so a pool could pickle it too."""
    if multiprocessing.parent_process() is not None and lo <= DEAD_WORKER_PRIME <= hi:
        os._exit(9)
    return classify_chunk(render, lo, hi)


def _dying_in_send(render, lo, hi):
    """walk.classify_chunk, but the worker process handed DEAD_WORKER_PRIME
    exits with code 9 half a second later, while it is blocked sending that
    window: the window holding 3 holds the scan back for a second before it,
    in whichever process runs it."""
    if lo <= 3 <= hi:
        time.sleep(1)
    elif multiprocessing.parent_process() is not None and lo <= DEAD_WORKER_PRIME <= hi:
        threading.Timer(0.5, os._exit, (9,)).start()
    return classify_chunk(render, lo, hi)


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
    cpus(monkeypatch, 2)
    out_path = tmp_path / f"scan.{fmt}"
    try:
        with deadline(20):
            code, out, err = run(capsys, "scan", "--from", "3", "--to", "30000", "--out",
                                 str(out_path), "--format", fmt, "--workers", "2")
    finally:
        for fd in held:
            os.close(fd)
    cut = windows(3, 30000)
    assert len(cut) == 3 and cut[1][0] <= bad <= cut[1][1]
    assert code == 2
    assert out == ""
    assert err == "compute failed: worker 2 exited with code 9\n"
    assert multiprocessing.active_children() == []
    rows = out_path.read_text().splitlines()[fmt == "csv":]
    assert len(rows) == len(primes_in_range(*cut[0]))
    if how == "exit mid-send":
        text = classify_chunk(cli._RENDERERS[fmt], *cut[1])[0]
        assert len(text) > 2 * 65536  # twice a Linux pipe's default buffer


def _raising_scans(capsys, tmp_path, monkeypatch, bad):
    """Scan 3..30000 at 1 and 2 workers with _symbols raising at bad, first
    a PreconditionViolation, then a KeyError (a bug); check that each ends
    the same way at both worker counts, and return the rows written before
    it and the KeyError raised at 2 workers."""
    error = PreconditionViolation

    def raising(p, real=congprimes.walk._symbols):
        if int(p) == bad:
            raise error(f"{bad} breaks a precondition")
        return real(p)

    monkeypatch.setattr(congprimes.walk, "_symbols", raising)
    cpus(monkeypatch, 2)
    outputs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.csv"
        assert run(capsys, "scan", "--from", "3", "--to", "30000", "--out", str(out_path),
                   "--workers", workers) == (1, "", f"error: {bad} breaks a precondition\n")
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    error = KeyError
    for workers in ("1", "2"):
        with pytest.raises(KeyError, match=f"{bad} breaks a precondition") as raised:
            main(["scan", "--from", "3", "--to", "30000", "--out", str(tmp_path / "bug.csv"),
                  "--workers", workers])
        assert capsys.readouterr().err == ""
    assert multiprocessing.active_children() == []
    return outputs[0].count(b"\n") - 1, raised.value


def test_an_exception_in_a_worker_is_raised_as_in_one_process(capsys, tmp_path, monkeypatch,
                                                              pools):
    """A worker that raises, a precondition check or a bug, makes scan end
    as one process does: the same exit code, stderr and rows at 1 and 2
    workers, and no traceback from the worker."""
    bad = DEAD_WORKER_PRIME  # in window 1, so worker 2's
    rows, raised = _raising_scans(capsys, tmp_path, monkeypatch, bad)
    assert rows == len(primes_in_range(*windows(3, 30000)[0]))
    assert "in raising" in str(raised.__cause__)  # the worker's traceback
    assert pools == [0, 1, 0, 1]


def test_an_exception_in_this_process_ends_the_scan_as_at_one_worker(capsys, tmp_path,
                                                                      monkeypatch, pools):
    """At 2 workers this process runs window 2 of 3..30000 itself; what it
    raises there ends the scan as at one worker, and stops the shard."""
    cut = windows(3, 30000)
    bad = next(n for n in primes_in_range(*cut[2]) if n % 8 == 1)
    rows, raised = _raising_scans(capsys, tmp_path, monkeypatch, bad)
    assert rows == sum(len(primes_in_range(*w)) for w in cut[:2])
    assert raised.__cause__ is None  # raised here, not sent by a worker
    assert pools == [0, 1, 0, 1]


def test_this_process_runs_every_other_window_at_two_workers(capsys, tmp_path, monkeypatch,
                                                             pools):
    log = tmp_path / "pids"

    def logged(render, lo, hi, real=cli.classify_chunk):
        with open(log, "a") as fh:  # appends of a short line do not interleave
            fh.write(f"{lo} {os.getpid()}\n")
        return real(render, lo, hi)

    monkeypatch.setattr(cli, "classify_chunk", logged)
    cpus(monkeypatch, 2)
    cut = windows(3, 30000)
    assert len(cut) == 3
    assert run(capsys, "scan", "--from", "3", "--to", "30000", "--out",
               str(tmp_path / "scan.csv"), "--workers", "2")[0] == 0
    pid = dict(map(int, line.split()) for line in log.read_text().splitlines())
    first, second, third = (pid.pop(lo) for lo, _ in cut)
    assert first == third == os.getpid() != second and pid == {}
    assert pools == [1]


def test_density_walks_its_windows_in_this_process(capsys, pools):
    assert len(windows(3, 30000)) == 3
    code, out, _ = run(capsys, "density", "--from", "3", "--to", "30000")
    assert code == 0
    assert out.splitlines() == density_lines(level_counts(3, 30000))
    assert pools == [0]


def test_density_with_two_workers_prints_what_one_does(capsys, monkeypatch, pools):
    bad = DEAD_WORKER_PRIME  # in window 1, so worker 2's

    def failing(p, real=congprimes.walk._symbols):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(congprimes.walk, "_symbols", failing)
    cpus(monkeypatch, 2)
    one, two = (run(capsys, "density", "--from", "3", "--to", "30000", "--workers", workers)
                for workers in ("1", "2"))
    assert one == two
    code, _, err = one
    assert code == 2
    assert err.splitlines() == [
        f"compute failed at p={bad}: could not certify delta for p = {bad}",
        "1 primes failed to classify"]
    assert pools == [0, 1]


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


def test_scan_walks_a_range_wider_than_max_window(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(modmath, "MAX_WINDOW", 5 * 10**4)
    cpus(monkeypatch, 2)
    for workers in ("1", "2"):
        out_path = tmp_path / f"scan{workers}.csv"
        assert run(capsys, "scan", "--from", "3", "--to", "200000", "--out", str(out_path),
                   "--workers", workers)[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_200000_CSV_SHA256


@pytest.mark.parametrize("target", ["missing/scan.csv", "."])
def test_scan_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, target):
    out_path = tmp_path / target  # a missing directory, or a directory
    code, out, err = run(capsys, "scan", "--from", "3", "--to", "100", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_to_a_full_device_is_a_usage_error(capsys, monkeypatch, workers):
    # /dev/full opens, but every write to it fails with ENOSPC
    cpus(monkeypatch, 2)
    with deadline(20):
        code, _, err = run(capsys, "scan", "--from", "3", "--to", "100000",
                           "--out", "/dev/full", "--workers", workers)
    assert code == 1
    assert err.startswith("error: cannot write /dev/full: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []


# a fresh interpreter on the n CPUs of the cpus helper, running main(argv)
_MAIN_ON_CPUS = """import os, sys
os.sched_getaffinity = lambda pid: set(range({n}))
os.cpu_count = lambda: {n}
from congprimes.cli import main
sys.exit(main(sys.argv[1:]))
"""


STDOUT_COMMANDS = {
    "classify": ["classify", "41"],
    "classify-json": ["classify", "113", "--json"],
    "verify": ["verify", "invariants", "--limit", "1000"],
    **{f"scan-{w}w": ["scan", "--from", "3", "--to", "100000", "--out", "{out}", "--workers", w]
       for w in "12"},
    **{f"density-{w}w": ["density", "--from", "3", "--to", "100000", "--workers", w] for w in "12"},
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", STDOUT_COMMANDS.values(), ids=STDOUT_COMMANDS)
def test_a_full_standard_output_is_a_usage_error(tmp_path, argv, buffered):
    # every write to /dev/full fails with ENOSPC: buffered, at main's flush
    # or at the interpreter's exit; unbuffered, at the first print
    env = dict(os.environ, PYTHONPATH=str(Path(congprimes.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [a.format(out=tmp_path / "rows.csv") for a in argv]
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-c", _MAIN_ON_CPUS.format(n=2), *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 1
    # this one line only: no traceback, and no "Exception ignored" from the exit's flush
    assert done.stderr == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


def test_an_os_error_elsewhere_is_not_a_standard_output_error(capsys, monkeypatch):
    def fails(p):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "classify", fails)
    with pytest.raises(OSError) as info:
        main(["classify", "41"])
    assert info.value.errno == errno.EIO
    assert capsys.readouterr() == ("", "")


def test_scan_reports_a_failed_close_of_out(capsys, monkeypatch):
    class ClosesBadly(io.StringIO):
        def close(self):
            super().close()
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: ClosesBadly(), raising=False)
    code, _, err = run(capsys, "scan", "--from", "3", "--to", "100", "--out", "rows.csv")
    assert code == 1
    assert err == f"error: cannot write rows.csv: {os.strerror(errno.EIO)}\n"


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    cpus(monkeypatch, 4)
    assert [_pool_size(n) for n in (1, 3, 4, 5, 10**6)] == [1, 3, 4, 4, 4]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no CPU set: the machine's
    assert _pool_size(8) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    assert _pool_size(8) == 1


def test_pool_size_counts_only_the_cpus_this_process_may_run_on(monkeypatch):
    # as under `taskset -c 0` on a machine with two CPUs
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _pool_size(2) == 1


def _cpu_set(lo, hi):
    """A job whose result is the set of CPUs the process running it may use."""
    return os.sched_getaffinity(0)


def _cpu_set_or_raise(lo, hi):
    """_cpu_set, but a shard raises."""
    if multiprocessing.parent_process() is not None:
        raise ValueError(f"in a shard at {lo}")
    return _cpu_set(lo, hi)


def _cpu_set_or_die(lo, hi):
    """_cpu_set, but a shard exits with code 9."""
    if multiprocessing.parent_process() is not None:
        os._exit(9)
    return _cpu_set(lo, hi)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs this process may run on")
def test_a_two_worker_walk_runs_each_process_on_its_own_cpu():
    """The shard runs on the second of this process's CPUs and this process,
    while it walks, on the first; after the walk this process has its CPU
    set back, whether the walk ended, was closed, or raised for a shard."""
    before = os.sched_getaffinity(0)
    first, second = sorted(before)[:2]
    with deadline(20):
        sets = list(walk(_cpu_set, 3, 10**6, 2))
        assert len(sets) == len(windows(3, 10**6, 2)) >= 4
        assert sets[::2] == [{first}] * len(sets[::2])
        assert sets[1::2] == [{second}] * len(sets[1::2])
        assert os.sched_getaffinity(0) == before
        walking = walk(_cpu_set, 3, 10**6, 2)
        assert next(walking) == {first} == os.sched_getaffinity(0)
        walking.close()
        assert os.sched_getaffinity(0) == before
        with pytest.raises(ValueError, match="in a shard"):
            list(walk(_cpu_set_or_raise, 3, 10**6, 2))
        assert os.sched_getaffinity(0) == before
        with pytest.raises(ComputeFailed, match="worker 2 exited with code 9"):
            list(walk(_cpu_set_or_die, 3, 10**6, 2))
        assert os.sched_getaffinity(0) == before
    assert multiprocessing.active_children() == []


def test_only_a_walk_that_starts_shards_pins_this_process(monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args), raising=False)
    cpus(monkeypatch, 2)
    assert list(walk(_nothing, 3, 10**6, 1)) == [None] * len(windows(3, 10**6, 1))
    cpus(monkeypatch, 1)  # two workers asked for, one CPU: no shard
    assert list(walk(_nothing, 3, 10**6, 2)) == [None] * len(windows(3, 10**6, 1))
    assert calls == []
    cpus(monkeypatch, 2)  # the shard pins itself in its own process, unseen here
    assert list(walk(_nothing, 3, 10**6, 2)) == [None] * len(windows(3, 10**6, 2))
    assert calls == [(0, [0]), (0, [0, 1])]  # this process on CPU 0, then its set back


# sha256 of the CSV of scan --from 3 --to 100000
SCAN_100000_CSV_SHA256 = "fe25c3cfc632ee33c17f0ebce1a92b54bb3c6fb948af6c541b779516f1ee143d"


@pytest.mark.parametrize("how, workers", [("raises", 2), ("missing", 2), ("no such CPUs", 2),
                                          ("four CPUs", 4)])
def test_a_walk_that_cannot_pin_runs_unpinned(capsys, tmp_path, monkeypatch, pools, how,
                                              workers):
    """Where os.sched_setaffinity refuses, is missing, or is given CPUs this
    machine lacks, each process runs where the OS puts it, and the scan
    prints what a pinned one does, with no word about it."""
    def refuse(pid, mask):
        raise OSError(errno.EPERM, os.strerror(errno.EPERM))

    cpus(monkeypatch, workers)  # four: CPUs 2 and 3 are missing on a two-CPU machine
    if how == "raises":
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    elif how == "missing":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    elif how == "no such CPUs":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4096, 4097}, raising=False)
    out_path = tmp_path / "scan.csv"
    with deadline(20):
        code, out, err = run(capsys, "scan", "--from", "3", "--to", "100000", "--out",
                             str(out_path), "--workers", str(workers))
    assert (code, err) == (0, "") and out.startswith(f"wrote 9591 rows to {out_path}\n")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_100000_CSV_SHA256
    assert pools == [len(windows(3, 100000, workers)[:workers]) - 1] and pools[0] >= 1
    assert multiprocessing.active_children() == []


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
    fake = SuiteResult(9, counterexample="p=99991: mismatch")
    monkeypatch.setattr("congprimes.verify.run_suite", lambda *a: fake)
    code, out, _ = run(capsys, "verify", "els")
    assert code == 3
    assert "counterexample: p=99991: mismatch" in out
    assert "els: FAIL" in out


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_verify_rejects_a_limit_below_one(capsys, limit):
    assert run(capsys, "verify", "delta", "--limit", limit) == (
        1, "", "error: --limit must be at least 1\n")


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

    def failing(p, real=congprimes.walk._symbols):
        if int(p) == bad:
            raise ComputeFailed(f"could not certify delta for p = {bad}")
        return real(p)

    monkeypatch.setattr(congprimes.walk, "_symbols", failing)
    code, out, err = run(capsys, "density", "--from", "3", "--to", "200")
    assert code == 2
    assert err.splitlines() == [f"compute failed at p={bad}: could not certify delta for p = {bad}",
                                "1 primes failed to classify"]
    assert out.splitlines()[0] == "primes classified: 44"  # 45 odd primes up to 200
    _, scan_out, scan_err = run(capsys, "scan", "--from", "3", "--to", "200",
                                "--out", str(tmp_path / "scan.csv"))
    assert scan_err == err
    assert scan_out.splitlines()[1:] == out.splitlines()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_density_rejects_fewer_than_one_worker(capsys, workers):
    assert run(capsys, "density", "--from", "3", "--to", "100", "--workers", workers) == (
        1, "", "error: --workers must be at least 1\n")


def test_density_rejects_inverted_range(capsys):
    code, _, err = run(capsys, "density", "--from", "9", "--to", "5")
    assert code == 1
    assert "must not exceed" in err


# ------------------------------------------------------------- paper-check

def test_paper_check_pass_path(capsys, monkeypatch):
    fake = SuiteResult(57, lines=["p=41: ok"])
    monkeypatch.setattr("congprimes.verify.run_reference_scan", lambda: fake)
    code, out, _ = run(capsys, "paper-check")
    assert code == 0
    assert "reference computations: PASS (57 primes examined)" in out


def test_paper_check_fail_path(capsys, monkeypatch):
    fake = SuiteResult(3, counterexample="bad")
    monkeypatch.setattr("congprimes.verify.run_reference_scan", lambda: fake)
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
    """Nor do one-worker library walks start a process or import multiprocessing."""
    code = ("import sys, congprimes; print(sorted(m for m in ('argparse', 'multiprocessing') "
            "if m in sys.modules)); from congprimes.verify import level_counts, run_suite; "
            "level_counts(3, 10**5); assert run_suite('invariants', 10**4).passed; "
            "print(sorted(m for m in ('argparse', 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(congprimes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]


def _loaded_by(*argv):
    """The congprimes, dataclasses and inspect modules that `python -m congprimes
    argv` imports, as -X importtime logs them; a run that imports verify is
    stopped there, so paper-check does not run its 200-digit scan."""
    env = dict(os.environ, PYTHONPATH=str(Path(congprimes.__file__).parents[1]))
    loaded = set()
    with subprocess.Popen([sys.executable, "-X", "importtime", "-m", "congprimes", *argv],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        for line in proc.stderr:
            name = line.rpartition("|")[2].strip()
            if name.partition(".")[0] in ("congprimes", "dataclasses", "inspect"):
                loaded.add(name)
            if name == "congprimes.verify":
                proc.kill()
                break
        else:
            assert proc.wait(timeout=60) == 0, argv
    return loaded


# what classify, scan and density must not load
VERIFY_ONLY = {"congprimes.verify", "congprimes.oracles", "congprimes.els", "congprimes.gaussian",
               "dataclasses", "inspect"}


@pytest.mark.parametrize("command", ["classify", "scan", "density"])
def test_classify_scan_and_density_load_no_oracle(tmp_path, command):
    span = ["--from", "3", "--to", "1000"]
    argv = {"classify": ["41"], "scan": [*span, "--out", str(tmp_path / "scan.csv")],
            "density": span}[command]
    loaded = _loaded_by(command, *argv)
    assert {"congprimes.cli", "congprimes.criteria", "congprimes.walk"} <= loaded
    assert loaded.isdisjoint(VERIFY_ONLY)


@pytest.mark.parametrize("argv", [["verify", "lemmas", "--limit", "1"], ["paper-check"]])
def test_verify_and_paper_check_load_verify(argv):
    """Both load verify, and neither loads dataclasses or inspect."""
    loaded = _loaded_by(*argv)
    assert "congprimes.verify" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


# each public name by the submodule that defines it
PUBLIC_HOMES = {
    "criteria": "Classification CongruentStatus ShaReport SymbolSet classify",
    "errors": "BoundExceeded ComputeFailed GeneratorNotFound NotSplitError PreconditionViolation",
    "modmath": "OddPrime eighth_root_of_unity is_probable_prime legendre primes_in_range sqrt_mod",
    "quartic": "embed solve_delta",
    "els": "COVERS QuarticCover cover lemma_symbol_prediction locally_solvable_at_p",
    "gaussian": "gi_symbol primary_associate two_squares",
    "oracles": "class_number delta_box_search r3 rep_x2_32y2 tunnell_a",
    "verify": "SuiteResult run_reference_scan run_suite",
}

IMPORT_SURFACE = """
import json, sys
import congprimes
seen = {"loaded": sorted(m for m in sys.modules
                         if m.partition(".")[0] in ("congprimes", "dataclasses", "inspect"))}
seen["verify"] = congprimes.verify is sys.modules["congprimes.verify"]
star = {}
exec("from congprimes import *", star)
seen["star"] = sorted(set(star) - {"__builtins__"})
seen["homes"] = {name: getattr(congprimes, name) is getattr(sys.modules["congprimes." + home], name)
                 for home, names in json.loads(sys.argv[1]).items() for name in names.split()}
seen["dir"] = set(congprimes.__all__) <= set(dir(congprimes))
try:
    congprimes.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""


def test_import_loads_only_what_classify_needs():
    """The other public names, and their modules, load on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(congprimes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", IMPORT_SURFACE, json.dumps(PUBLIC_HOMES)],
                         env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    seen = json.loads(out)
    assert seen["loaded"] == ["congprimes", "congprimes.criteria", "congprimes.errors",
                              "congprimes.modmath", "congprimes.quartic"]
    assert seen["verify"] is True
    public = sorted(name for names in PUBLIC_HOMES.values() for name in names.split())
    assert sorted(congprimes.__all__) == public
    assert seen["star"] == public
    assert seen["homes"] == dict.fromkeys(public, True)
    assert seen["dir"] is True
    assert seen["unknown"] == "module 'congprimes' has no attribute 'no_such_name'"
