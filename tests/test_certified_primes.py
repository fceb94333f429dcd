"""Each prime of a scan gets exactly one primality test.

A scan past 10^7 takes the windowed path of primes_in_range, which
certifies every sieve survivor with is_probable_prime.  The OddPrimes
built from those primes must not be tested again, and that shortcut
must stay internal: OddPrime(n) from anywhere else still runs the test.
The verify range walks take their primes from the same sieve, so below
10^7 they make no primality call at all.
"""

import inspect
from collections import Counter

import pytest
import sympy

import congprimes
from congprimes import modmath
from congprimes.cli import CSV_HEADER, ScanRow, main
from congprimes.criteria import classify
from congprimes.errors import PreconditionViolation
from congprimes.modmath import OddPrime, _certified, primes_in_range, split_roots
from congprimes.verify import (
    _check_one_invariant,
    run_class_numbers,
    run_delta,
    run_els,
    run_invariants,
    run_three_squares,
    run_tunnell,
)

# past 10^10 = BASE_BOUND^2 the window sieve leaves survivors for
# is_probable_prime, which below 2^64 certifies them by Baillie-PSW alone
LO, HI = 10**12, 10**12 + 3000


@pytest.fixture
def primality_calls(monkeypatch):
    calls: Counter = Counter()
    test = modmath.is_probable_prime

    def counted(n):
        calls[n] += 1
        return test(n)

    monkeypatch.setattr(modmath, "is_probable_prime", counted)
    return calls


def test_windowed_scan_tests_each_prime_once(tmp_path, capsys, primality_calls):
    out = tmp_path / "window.csv"
    assert main(["scan", "--from", str(LO), "--to", str(HI), "--out", str(out)]) == 0
    capsys.readouterr()
    tested = dict(primality_calls)

    primes = [n for n in range(LO, HI + 1) if sympy.isprime(n)]
    want = [CSV_HEADER] + [ScanRow.from_classification(classify(p)).csv_line()
                           for p in primes]
    assert out.read_text().splitlines() == want
    assert any(line.split(",")[6] in ("2", "3") for line in want[1:])  # a split prime
    assert all(tested.get(p) == 1 for p in primes)
    assert max(tested.values()) == 1


def test_odd_primes_come_only_from_the_test(monkeypatch):
    assert primes_in_range(LO, HI) == [n for n in range(LO, HI + 1) if sympy.isprime(n)]
    monkeypatch.setattr(modmath, "is_probable_prime", lambda n: False)
    assert primes_in_range(LO, HI) == []
    with pytest.raises(PreconditionViolation):
        OddPrime(sympy.nextprime(LO))


@pytest.mark.parametrize("n", [561, 3215031751, LO + 1, (10**6 + 3) * (10**6 + 33),
                               (2**61 - 1) ** 2])
def test_odd_prime_of_a_composite_still_raises(n):
    with pytest.raises(PreconditionViolation):
        OddPrime(n)


def _public_functions():
    modules = [congprimes, congprimes.cli] + [
        m for m in vars(congprimes).values() if inspect.ismodule(m)]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or obj is OddPrime:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_classify_tests_an_int_once_and_an_odd_prime_never(primality_calls):
    for p in (3, 7, 13, 17, 41, 43, 10**200 + 16737):  # each p mod 8, inert, split
        P = _certified(p)
        classify(p)
        assert primality_calls == {p: 1}, p
        primality_calls.clear()
        classify(P)
        assert not primality_calls, p


def test_no_public_name_returns_an_odd_prime():
    """Besides OddPrime itself, no public function is typed to return one."""
    names = dict(_public_functions())
    assert "congprimes.modmath.primes_in_range" in names
    for name, fn in names.items():
        returns = str(inspect.signature(fn).return_annotation)
        assert "OddPrime" not in returns, f"{name} -> {returns}"


@pytest.mark.parametrize("suite, limit", [
    (run_class_numbers, 500), (run_three_squares, 500), (run_tunnell, 500),
    (run_els, 2000), (run_delta, 600), (run_invariants, 2000)])
def test_range_suites_test_no_prime_again(suite, limit, primality_calls):
    assert suite(limit).passed
    assert not primality_calls


def test_invariant_check_tests_no_prime_again(primality_calls):
    p = 10**99 + 1  # ≡ 1 mod 8
    while not (sympy.isprime(p) and p % 8 == 1 and split_roots(_certified(p)).r is not None):
        p += 8
    c = classify(_certified(p))
    assert c.v_level >= 3  # completely split, so the zeta checks run
    assert _check_one_invariant(_certified(p), c) is None
    assert not primality_calls
