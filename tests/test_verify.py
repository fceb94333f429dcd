"""Smoke tests for the verification suites at small limits.

The acceptance tests run the same suites at their full limits; here we
only pin the plumbing (dispatch, result shape, determinism, counting).
"""

import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
import sympy
from sympy.polys.domains import ZZ_I

import congprimes.walk
from congprimes import criteria, modmath, quartic, verify
from congprimes.cli import main
from congprimes.criteria import classify
from congprimes.errors import PreconditionViolation
from congprimes.modmath import primes_in_range
from congprimes.verify import (
    DEFAULT_LIMITS,
    SUITES,
    SuiteResult,
    _certified_primes,
    density_lines,
    level_counts,
    run_delta,
    run_suite,
)
from congprimes.walk import classify_chunk


def test_suite_registry_consistent():
    assert set(SUITES) == set(DEFAULT_LIMITS)


def test_unknown_suite_rejected():
    with pytest.raises(PreconditionViolation):
        run_suite("no-such-suite")


SMALL_LIMITS = {
    "class-numbers": 500,
    "three-squares": 500,
    "tunnell": 500,
    "lemmas": 40,
    "els": 2000,
    "delta": 600,
    "invariants": 2000,
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_pass_at_small_limits(suite):
    res = run_suite(suite, limit=SMALL_LIMITS[suite])
    assert isinstance(res, SuiteResult)
    assert res.passed, res.counterexample
    assert res.checked > 0
    assert res.counterexample is None


@pytest.mark.parametrize("seed", range(1, 6))
def test_lemmas_deterministic_per_seed(seed):
    a = run_suite("lemmas", limit=25, seed=seed)
    b = run_suite("lemmas", limit=25, seed=seed)
    assert (a.passed, a.checked, a.lines) == (b.passed, b.checked, b.lines)


@pytest.mark.parametrize("seed", range(1, 4))
def test_lemma_samplers_meet_the_lemma_hypotheses(seed):
    # every kept draw satisfies its lemma's hypothesis, checked with sympy
    rng = random.Random(seed)
    for _ in range(200):
        p, x, y, D = verify._rational_instance(rng)
        assert x * x - D * y * y == p and sympy.isprime(p) and p % 8 == 1 and D % p
    for _ in range(200):
        pi, x, y, D = verify._gaussian_instance(rng)
        z = ZZ_I(*pi)
        assert ZZ_I(*x) ** 2 - ZZ_I(*D) * ZZ_I(*y) ** 2 == z
        assert not (z - 1) % 2  # so pi ≡ ±1 mod 2; ZZ_I(0, 0) is falsy but != 0
        p = pi[0] ** 2 + pi[1] ** 2
        assert sympy.isprime(p) and p % 8 == 1
        i_img = [r for r in sympy.sqrt_mod(-1, p, all_roots=True) if (pi[0] + pi[1] * r) % p == 0]
        assert len(i_img) == 1 and pow(1 + i_img[0], (p - 1) // 2, p) == 1
        assert divmod(ZZ_I(*D), z)[1]


def test_lemma_samplers_draw_again_when_the_prime_divides_d():
    # x = 0, y = 1, D = -p gives x^2 - D y^2 = p with p | D, which the
    # samplers draw past; a seeded draw meets such a D about once in 10^5
    def scripted(*values):
        return SimpleNamespace(randrange=lambda *_, it=iter(values): next(it))

    assert verify._rational_instance(scripted(0, 1, -17, 3, 1, -8)) == (17, 3, 1, -8)
    pi, x, y, D = (-5, 4), (-6, -3), (-2, -2), (4, -4)
    assert verify._gaussian_instance(scripted(0, 0, 1, 0, 5, -4, *x, *y, *D)) == (pi, x, y, D)


def test_level_counts_match_classify():
    counts = level_counts(3, 100)
    assert sum(counts.values()) == 24
    rebuilt: dict = {}
    for p in primes_in_range(3, 100):
        c = classify(p)
        key = (c.v_level, c.w_level)
        rebuilt[key] = rebuilt.get(key, 0) + 1
    assert counts == rebuilt


def test_density_lines_fraction_present():
    lines = density_lines(level_counts(3, 600))
    assert lines[0].startswith("primes classified:")
    assert any(line.startswith("V(4)/V(3) fraction:") for line in lines)
    # 41 is the first prime with v_level 3, 257 the first with v_level 4
    assert any("NA (no V(3)" in line for line in density_lines(level_counts(3, 30)))


@pytest.mark.parametrize("lo, hi", [(3, 50000), (17, 4017)])
@pytest.mark.parametrize("m", [2, 8])
def test_range_walks_cross_the_sieve_window(monkeypatch, lo, hi, m):
    monkeypatch.setattr(modmath, "MAX_WINDOW", 1000)
    with pytest.raises(PreconditionViolation):
        primes_in_range(3, 1003)  # the cap is in force
    walked = [P.value for P in _certified_primes(lo, hi, m, 1)]
    assert walked == [p for p in sympy.primerange(lo, hi + 1) if p % m == 1]


def test_level_counts_walk_a_range_wider_than_the_sieve_window(monkeypatch):
    monkeypatch.setattr(modmath, "MAX_WINDOW", 1000)
    want = Counter((c.v_level, c.w_level) for c in map(classify, sympy.primerange(3, 50001)))
    assert level_counts(3, 50000) == want


def test_classify_chunk_sieves_its_own_window(monkeypatch):
    """Only the odd primes of the window reach _symbols, and as ints: no 2,
    no composite."""
    seen = []

    def spy(n, real=congprimes.walk._symbols):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(congprimes.walk, "_symbols", spy)
    _, counts, failures = classify_chunk(None, 1, 30)
    odd_primes = list(sympy.primerange(3, 31))
    assert counts == Counter((c.v_level, c.w_level) for c in map(classify, odd_primes))
    assert failures == [] and sum(counts.values()) == 9
    assert seen and set(seen) <= set(odd_primes) and {type(n) for n in seen} == {int}
    seen.clear()
    assert classify_chunk(None, 15, 15) == ("", {}, [])
    assert seen == []


def test_run_delta_takes_the_roots_once_per_prime(monkeypatch):
    calls = []

    def spy(P, real=modmath.split_roots):
        calls.append(P.value)
        return real(P)

    for module in (modmath, criteria, quartic, verify):
        monkeypatch.setattr(module, "split_roots", spy)
    result = run_delta(10000)
    assert result.passed and result.checked == 146
    assert calls == [p for p in primes_in_range(17, 9999) if p % 8 == 1]


def test_a_delta_without_two_admissible_primes_is_a_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(verify, "embed", lambda delta, p, r: 0)
    result = run_delta(100)
    assert not result.passed
    assert (result.checked, result.counterexample) == (0, "p=41: 0 admissible primes")
    assert main(["verify", "delta", "--limit", "100"]) == 3
    assert "p=41: 0 admissible primes" in capsys.readouterr().out


def test_a_unit_multiple_without_relative_norm_p_is_a_counterexample(monkeypatch, capsys):
    # one sign flipped in verify's multiplication by 1 + alpha only, so
    # solve_delta is untouched and delta * epsilon fails the norm check
    def flipped(*x, real=quartic._times_unit):
        y0r, y0i, y1r, y1i = real(*x)
        return y0r, y0i, y1r, -y1i

    monkeypatch.setattr(verify, "_times_unit", flipped)
    result = run_delta(100)
    assert not result.passed and result.checked == 0
    assert result.counterexample.startswith("p=41: (")
    assert result.counterexample.endswith("not (41, 0)")
    assert main(["verify", "delta", "--limit", "100"]) == 3
    assert f"counterexample: {result.counterexample}\n" in capsys.readouterr().out


def test_a_wrong_rational_symbol_is_a_lemma_counterexample(monkeypatch, capsys):
    # legendre flipped once the third rational instance is drawn: the next
    # call is that instance's check, so the two before it count
    drawn = []

    def instance(*args, real=verify._rational_instance):
        drawn.append(real(*args))
        return drawn[-1]

    def flipped(a, P, real=verify.legendre):
        return -real(a, P) if len(drawn) == 3 else real(a, P)

    monkeypatch.setattr(verify, "_rational_instance", instance)
    monkeypatch.setattr(verify, "legendre", flipped)
    result = run_suite("lemmas", 5)
    assert not result.passed and result.checked == 2
    p, x, y, D = drawn[2]
    assert result.counterexample.startswith(f"rational p={p} x={x} y={y} D={D} a=")
    drawn.clear()
    assert main(["verify", "lemmas", "--limit", "5"]) == 3
    assert f"counterexample: {result.counterexample}\n" in capsys.readouterr().out


def test_a_wrong_gaussian_symbol_is_a_lemma_counterexample(monkeypatch, capsys):
    # every symbol of the lemma check flipped, (1+i | pi) left alone: the
    # first Z[i] instance fails after the 5 rational ones, and names pi,
    # x, y and D as (re, im) pairs
    def flipped(x, pi, real=verify.gi_symbol):
        return real(x, pi) if x == (1, 1) else -real(x, pi)

    monkeypatch.setattr(verify, "gi_symbol", flipped)
    result = run_suite("lemmas", 5)
    assert not result.passed and result.checked == 5
    pair = r"\(-?\d+, -?\d+\)"
    assert re.fullmatch(f"pi={pair} x={pair} y={pair} D={pair} a=\\d+", result.counterexample)
    assert main(["verify", "lemmas", "--limit", "5"]) == 3
    assert f"counterexample: {result.counterexample}\n" in capsys.readouterr().out


def _split(p):
    return p % 8 == 1 and modmath.split_roots(modmath.OddPrime(p)).r is not None


BAD = next(p for p in primes_in_range(1000, 2000) if _split(p))  # box-searched by delta

# suite, the name in verify whose result turns wrong at the prime under test,
# that prime given the call's arguments, the wrong result, and the suite's primes
WRONG = [
    ("class-numbers", "classify", lambda P: P, lambda c: c._replace(v_level=5),
     lambda p: p % 4 == 1),
    ("three-squares", "r3", lambda n, **_: n, lambda r: r + 1, lambda p: p % 4 == 1),
    ("tunnell", "tunnell_a", lambda n, **_: n, lambda a: a + 8, lambda p: False),
    ("els", "lemma_symbol_prediction", lambda c: c.p, lambda b: not b, lambda p: p % 8 == 1),
    ("delta", "delta_box_search", lambda P, *_: P, lambda bs: None, _split),
    ("delta", "_delta_symbols", lambda d, P, *_: P, lambda s: s | {(0, 0)}, _split),
    ("invariants", "rep_x2_32y2", lambda P: P, lambda b: not b, lambda p: True),
]


@pytest.mark.parametrize("suite, name, prime_of, wrong, counted", WRONG,
                         ids=[f"{suite}-{name}" for suite, name, *_ in WRONG])
def test_checked_counts_the_primes_that_passed_before_the_counterexample(
        monkeypatch, suite, name, prime_of, wrong, counted):
    bad = 41 if suite == "tunnell" else BAD  # tunnell's one hard check is at 41

    def injected(*args, real=getattr(verify, name), **kwargs):
        out = real(*args, **kwargs)
        return wrong(out) if int(prime_of(*args, **kwargs)) == bad else out

    monkeypatch.setattr(verify, name, injected)
    result = run_suite(suite, 2000)
    assert not result.passed and str(bad) in result.counterexample
    assert result.checked == sum(map(counted, primes_in_range(3, bad - 1)))
