"""Tests of the benchmark's own logic: the output checkers, the span
arithmetic and the percentile rule."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import check_rows, is_x2_32y2, parse_csv  # noqa: E402
from stats import describe, tail  # noqa: E402
from tracing import Tracer, install, per_layer, self_times  # noqa: E402

import congprimes  # noqa: E402
import congprimes.quartic  # noqa: E402
from congprimes.cli import CSV_HEADER, ScanRow  # noqa: E402
from congprimes.criteria import classify  # noqa: E402
from congprimes.modmath import OddPrime, primes_in_range  # noqa: E402
from congprimes.oracles import rep_x2_32y2  # noqa: E402

ANCHOR_3_2 = 10**200 + 16737
ANCHOR_4_2 = 10**200 + 28729
ANCHORS = {ANCHOR_3_2: (3, 2), ANCHOR_4_2: (4, 2)}


def anchor_row(p, v, w):
    return {"p": p, "p_mod_16": p % 16, "chi_1pi": 1, "chi_alpha_delta": 1 if v == 4 else -1,
            "chi_zeta_alpha_delta": 1 if w == 3 else -1, "v_level": v, "w_level": w,
            "congruent_status": "UNDECIDED" if w == 3 else "NOT_CONGRUENT",
            "sha_report": "UNKNOWN" if w == 3 else "SHA_Z4xZ4"}


@pytest.fixture(scope="module")
def small_scan():
    primes = primes_in_range(3, 3000)
    text = "\n".join([CSV_HEADER] + [ScanRow.from_classification(classify(p)).csv_line()
                                     for p in primes]) + "\n"
    return primes, parse_csv(text)


def test_checkers_accept_the_program_output(small_scan):
    primes, rows = small_scan
    assert check_rows(rows, primes) == []
    assert check_rows([anchor_row(ANCHOR_3_2, 3, 2), anchor_row(ANCHOR_4_2, 4, 2)],
                      list(ANCHORS), anchors=ANCHORS) == []


@pytest.mark.parametrize("p", [7, 13, 41, 113, 337])
def test_flipped_v_level_is_rejected(small_scan, p):
    primes, rows = small_scan
    tampered = [dict(r) for r in rows]
    row = next(r for r in tampered if r["p"] == p)
    row["v_level"] = {0: 1, 1: 0, 2: 3, 3: 4, 4: 3}[row["v_level"]]
    assert check_rows(tampered, primes)


def test_missing_prime_is_rejected(small_scan):
    primes, rows = small_scan
    assert check_rows(rows[:10] + rows[11:], primes)
    # a prime the program reported as failed is not expected in the rows
    assert check_rows(rows[:10] + rows[11:], primes, failed=[rows[10]["p"]]) == []


def test_wrong_anchor_is_rejected():
    # (4, 3) obeys every row law at this p, so only the anchor check catches it
    wrong = [anchor_row(ANCHOR_3_2, 4, 3), anchor_row(ANCHOR_4_2, 4, 2)]
    assert check_rows(wrong, list(ANCHORS)) == []
    assert check_rows(wrong, list(ANCHORS), anchors=ANCHORS)


def test_cornacchia_matches_brute_force():
    for p in primes_in_range(3, 20000):
        assert is_x2_32y2(p) == rep_x2_32y2(OddPrime(p)), p


def test_failed_classify_adds_time_but_no_classified_prime(tmp_path, monkeypatch):
    from load import Load

    load = Load({"src": str(Path(congprimes.__file__).parents[1]), "out_dir": str(tmp_path),
                 "reference": "interp"})
    real = load.pkg.classify

    def classify_or_fail(p):
        if p == 13:
            time.sleep(0.05)
            raise load.ComputeFailed(p)
        return real(p)

    monkeypatch.setattr(load.pkg, "classify", classify_or_fail)
    d = load.classify_pass([[11, False], [13, False], [17, False]])
    assert (d["classified"], d["attempted"], d["failed"]) == (2, 3, [13])
    assert d["wall_s"] >= 0.05
    assert len(d["latency_ms"]["nonsplit"]) == 2


def test_sampling_runs_the_reference_inside_the_block_and_restores_the_handler():
    import signal

    from speed import sampling

    before = signal.getsignal(signal.SIGALRM)
    with sampling("interp", every_s=0.05) as samples:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(samples) >= 2 and all(t0 <= start and ms > 0 for start, ms in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 30, 0, None],
        ["b", 25, 60, 0, None],   # overlaps a: the root loses 10..60 once
        ["a.child", 12, 20, 1, None],
    ]
    assert self_times(spans) == [50, 12, 35, 8]


def test_install_wraps_every_lookup_and_uninstall_restores_it():
    import multiprocessing.pool

    def names():
        return (congprimes.criteria.solve_delta, congprimes.quartic.solve_delta,
                ScanRow.__dict__["from_classification"], multiprocessing.pool.Pool.map)

    before = names()
    tracer = Tracer()
    uninstall = install(tracer, congprimes)
    try:
        assert all(a is not b for a, b in zip(names(), before))
        assert classify(41).v_level == congprimes.classify(41).v_level
    finally:
        uninstall()
    assert all(a is b for a, b in zip(names(), before))
    spans = tracer.reset()
    assert {"criteria.classify", "quartic.solve_delta"} <= {s[0] for s in spans}
    classify(41)
    assert tracer.reset() == []


def test_per_layer_counts_root_calls_of_split_primes_only():
    ms = 1_000_000
    spans = [
        ["criteria.classify", 0, 10 * ms, -1, True],
        ["modmath.sqrt_mod", 1 * ms, 2 * ms, 0, None],
        ["quartic.primes_above", 3 * ms, 6 * ms, 0, None],
        ["modmath.quartic_roots", 4 * ms, 5 * ms, 2, None],
        ["criteria.classify", 10 * ms, 12 * ms, -1, False],
        ["modmath.sqrt_mod", 10 * ms, 11 * ms, 4, None],
    ]
    m = per_layer([{"spans": spans, "scale": 1.0, "norm_wall_ns": 12 * ms}], [10 * ms, 14 * ms],
                  {"import_ms": 1.0, "import_modules": 1})
    assert m["modmath.root_calls_per_split"][0] == 2
    assert m["criteria.classify.self_ms"][0] == pytest.approx(6 + 1)
    assert m["criteria.classify.split.ms_p50"][0] == pytest.approx(10)
    assert m["trace.coverage"][0] == pytest.approx(1)
    assert m["trace.overhead"][0] == pytest.approx(1)


def test_no_tail_with_fewer_than_ten_samples_beyond():
    assert tail(list(range(99))) is None
    assert tail(list(range(100))) == (90.0, 89)
    assert tail(list(range(1000)))[0] == 99.0
    assert "p9" not in describe("x", [1.0] * 50, "ms")
