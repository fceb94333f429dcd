import copy
import os
import pickle
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
import sympy

from congprimes import modmath
from congprimes.errors import PreconditionViolation
from congprimes.modmath import (
    OddPrime,
    _PRIMORIAL,
    _certified,
    _is_sprp,
    _jacobi,
    _sqrt_mod_int,
    _two_sylow,
    eighth_root_of_unity,
    is_probable_prime,
    legendre,
    primes_in_range,
    split_roots,
    sqrt_mod,
)

# where trial division by the primes below 1000 stops or is complete:
# 997^2 and 991*997 need the last divisors, 1001^2 and the primes next to
# it sit on either side of the bound below which no Baillie-PSW test runs
TRIAL_DIVISION_EDGES = (997**2, 991 * 997, 993_997, 1_001_989, 1_001_999,
                        1_002_001, 1_002_017, 1009**2)


def test_primality_agrees_with_sympy_below_20000():
    for n in [*range(2, 20000), *TRIAL_DIVISION_EDGES]:
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_primality_agrees_with_sympy_around_the_trial_division_bound():
    for n in range(10**6 - 10**4, 1_002_001 + 10**4 + 1):
        assert is_probable_prime(n) == sympy.isprime(n), n


# the gcd with the product of the primes below 1000 equals n for the first
# five, so only "n is one of those primes" tells them from a prime
@pytest.mark.parametrize("n", [
    6, 30, 30030, 991 * 997, _PRIMORIAL,
    *(q * (10**200 + 16737) for q in (3, 101, 997)),
])
def test_primality_rejects_products_of_small_primes(n):
    assert not is_probable_prime(n)


@pytest.mark.parametrize("n", [
    561,                # Carmichael
    3215031751,         # strong pseudoprime to bases 2,3,5,7
    3825123056546413051,
    (2**61 - 1) ** 2,   # prime square past 2^64, where the seeded rounds run too
    (2**89 - 1) * (2**61 - 1),
])
def test_primality_rejects_hard_composites(n):
    assert not is_probable_prime(n)


# base-2 strong pseudoprimes with no prime factor below 1000, so only the
# strong Lucas test tells them from a prime: the first six of the 72 in
# [1,002,001, 2*10^7] (the first, 1093^2, falls to its square check), and
# the composite Mersenne numbers 2^q - 1 whose factors all lie past 1000
@pytest.mark.parametrize("n", [
    1093**2, 1_678_541, 2_284_453, 2_304_167, 3_090_091, 3_125_281,
    *(2**q - 1 for q in (41, 47, 53, 59)),
])
def test_primality_rejects_base_2_strong_pseudoprimes_below_2_64(n):
    assert gcd(n, _PRIMORIAL) == 1 and _is_sprp(n, 2)
    assert not is_probable_prime(n)


def test_primality_agrees_with_sympy_around_2_64():
    # both sides of the point past which the seeded rounds run
    for n in range(2**64 - 2000 + 1, 2**64 + 2000, 2):
        assert is_probable_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n, seeded", [(2**64 - 59, False), (2**64 + 13, True)],
                         ids=["last-prime-below-2^64", "first-prime-past-2^64"])
def test_the_seeded_rounds_run_from_2_64_on_with_64_witnesses(monkeypatch, n, seeded):
    # the base-2 round alone below 2^64; past it 64 more, with the witnesses
    # random.Random(n) draws, which set the 4^-64 = 2^-128 error bound
    bases = []

    def spy(m, a, real=_is_sprp):
        assert m == n
        bases.append(a)
        return real(m, a)

    monkeypatch.setattr(modmath, "_is_sprp", spy)
    assert is_probable_prime(n)
    rng = random.Random(n)
    assert bases == [2] + [rng.randrange(2, n - 1) for _ in range(64 if seeded else 0)]


# the strong Lucas pseudoprimes for Selfridge's parameters below 6*10^4 (OEIS
# A217255): the "exact below 2^64" of is_probable_prime rests on these
# parameters, with which Feitsma and Galway's base-2 pseudoprimes were cleared
@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                               40309, 58519])
def test_selfridge_strong_lucas_pseudoprimes_pass_the_lucas_half(n):
    assert not sympy.isprime(n)
    assert modmath._is_strong_lucas_prp(n)
    assert not is_probable_prime(n)


def test_primality_large_known_primes():
    assert is_probable_prime(2**31 - 1)
    assert is_probable_prime(2**61 - 1)
    assert is_probable_prime(2**89 - 1)
    assert is_probable_prime(10**200 + 16737)
    assert is_probable_prime(10**200 + 28729)
    assert not is_probable_prime(10**200 + 16735)


def test_primality_random_64bit_matches_sympy():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randrange(2**62, 2**64) | 1
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_primes_in_range_inclusive_and_windowed():
    assert primes_in_range(3, 3) == [3]
    assert primes_in_range(8, 10) == []
    assert primes_in_range(10, 3) == []
    assert primes_in_range(90, 100) == [97]
    # window past 10^7
    lo = 10_000_019
    ps = primes_in_range(lo, lo + 200)
    assert ps == [n for n in range(lo, lo + 201) if sympy.isprime(n)]


def test_primes_in_range_small_ends_match_sympy():
    for lo in (-5, 0, 1, 2, 3):
        for hi in (1, 2, 3, 4, 100):
            assert primes_in_range(lo, hi) == list(sympy.primerange(lo, hi + 1)), (lo, hi)
    # every window of width 1 to 3 below 100, even and odd ends alike
    for lo in range(-2, 100):
        for hi in (lo, lo + 1, lo + 2):
            assert primes_in_range(lo, hi) == list(sympy.primerange(lo, hi + 1)), (lo, hi)


@pytest.mark.parametrize("hi", [10**6, 10**7])
@pytest.mark.parametrize("width", [1, 2, 1000, 100_000])
def test_primes_in_range_windows_ending_at_a_power_of_ten(hi, width):
    lo = hi - width + 1
    assert primes_in_range(lo, hi) == list(sympy.primerange(lo, hi + 1))


def test_primes_in_range_random_windows_below_10_7():
    rng = random.Random(8)
    for _ in range(20):
        lo = rng.randrange(10**7)
        hi = min(lo + rng.randrange(5000), 10**7)
        assert primes_in_range(lo, hi) == list(sympy.primerange(lo, hi + 1)), (lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (1_000_000, 1_004_000),  # even ends, across sqrt(hi) = 1001, past the primes to 1000
    (10**7 + 2, 10**7 + 4_002),  # even ends past 10^7
    # past sqrt(hi) = 10^5 survivors are certified one by one: the first window
    # holds 100003^2, which no base prime marks, the second sits at 10^12
    (10**10 + 599_000, 10**10 + 601_000), (10**12 + 2, 10**12 + 3_002),
    (10**18 - 3_000, 10**18 + 3_000),  # survivors below and past 10^18 alike
])
def test_odd_only_sieve_matches_sympy(lo, hi):
    assert primes_in_range(lo, hi) == list(sympy.primerange(lo, hi + 1))


def test_odd_only_sieve_past_10_200_matches_sympy():
    lo = 10**200 + 16000  # even ends, a window that holds the anchor 10^200 + 16737
    hi = lo + 2_000
    got = primes_in_range(lo, hi)
    assert 10**200 + 16737 in got
    assert got == [n for n in range(lo + 1, hi, 2) if sympy.isprime(n)]


def test_base_primes_are_sieved_once_on_first_need(monkeypatch):
    assert modmath._SMALL_PRIMES == tuple(sympy.primerange(2, 1000))
    limits = []

    def spy(lo, hi, real=modmath.primes_in_range):
        limits.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(modmath, "primes_in_range", spy)  # what primes_in_range calls
    monkeypatch.setattr(modmath, "_BASE_PRIMES", [])
    windows = [(3, 100), (10**6 - 1000, 10**6), (10**7 - 1000, 10**7),
               # on both sides of sqrt(hi) = 10^5, and across it
               (10**10 - 2000, 10**10 - 1), (10**10 - 1000, 10**10 + 1000),
               (10**10 + 1, 10**10 + 2000), (10**12, 10**12 + 3000)]
    got = [primes_in_range(lo, hi) for lo, hi in windows[:2]]
    assert limits == []  # below 1000 the primes sieved at import serve
    got += [primes_in_range(lo, hi) for lo, hi in windows[2:]]
    assert limits == [(2, modmath.BASE_BOUND)]  # once, on first need
    assert got == [list(sympy.primerange(lo, hi + 1)) for lo, hi in windows]


def test_import_sieves_no_base_primes():
    code = "import congprimes.modmath as m; print(len(m._BASE_PRIMES))"
    env = dict(os.environ, PYTHONPATH=str(Path(modmath.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "0"


def test_odd_prime_accepts_and_rejects():
    p = OddPrime(41)
    assert p.value == 41
    assert int(p) == 41
    for bad in (0, 1, 4, 9, -7, 15, 561):
        with pytest.raises(PreconditionViolation):
            OddPrime(bad)


def test_odd_prime_two_has_its_own_message():
    with pytest.raises(PreconditionViolation, match="p = 2 is excluded"):
        OddPrime(2)


def test_odd_prime_is_a_frozen_value():
    p = OddPrime(41)
    assert repr(p) == "OddPrime(value=41)" and str(p) == "41"
    for name in ("value", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 43)
    with pytest.raises(AttributeError):
        del p.value
    assert p.value == 41
    assert p == OddPrime(41) and hash(p) == hash(OddPrime(41))
    assert p != OddPrime(43) and p != 41 and 41 != p
    for n in (3, 41, 10**12 + 39):
        assert _certified(n) == OddPrime(n) and type(_certified(n)) is OddPrime


def test_odd_prime_copies_and_pickles_without_a_primality_test(monkeypatch):
    def refuse(n):
        raise AssertionError(f"{n} tested again")

    p = OddPrime(10**12 + 39)
    monkeypatch.setattr(modmath, "is_probable_prime", refuse)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        q = pickle.loads(pickle.dumps(p, protocol))
        assert q == p and type(q) is OddPrime
    for q in (copy.copy(p), copy.deepcopy(p), copy.deepcopy([p])[0]):
        assert q == p and repr(q) == repr(p)


def test_legendre_matches_sympy():
    rng = random.Random(7)
    for p in (3, 5, 17, 41, 101, 65537, 999999937):
        P = OddPrime(p)
        for _ in range(40):
            a = rng.randrange(-3 * p, 3 * p)
            want = 0 if a % p == 0 else sympy.legendre_symbol(a % p, p)
            assert legendre(a, P) == want


def test_jacobi_matches_sympy_for_every_small_pair():
    for n in range(1, 500, 2):
        for a in range(n):
            assert _jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_jacobi_matches_sympy_at_200_digits():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(10**199, 10**200) | 1
        a = rng.randrange(10**200) << rng.randrange(8)  # some even a too
        assert _jacobi(a, n) == sympy.jacobi_symbol(a % n, n)


def test_legendre_multiplicative():
    P = OddPrime(1009)
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.randrange(1, 1009), rng.randrange(1, 1009)
        assert legendre(a * b, P) == legendre(a, P) * legendre(b, P)


def test_sqrt_mod_roots_and_canonical_choice():
    rng = random.Random(13)
    for p in (3, 7, 13, 17, 41, 97, 193, 10**9 + 7):
        P = OddPrime(p)
        for _ in range(30):
            a = rng.randrange(p)
            x = sqrt_mod(a, P)
            if legendre(a, P) == -1:
                assert x is None
            else:
                assert x is not None and x * x % p == a % p
                assert x <= p - x  # canonical: smaller of the two roots
    assert sqrt_mod(0, OddPrime(13)) == 0


def test_tonelli_shanks_decides_residuosity_for_every_a_below_1000():
    # no Jacobi symbol runs: Tonelli-Shanks alone says None, at p ≡ 3 (mod 4) too
    count = 0
    for p in primes_in_range(3, 1000):
        for a in range(p):
            x = _sqrt_mod_int(a, p)
            assert (x is None) == (_jacobi(a, p) == -1), (a, p)
            assert x is None or x * x % p == a, (a, p)
            count += 1
    assert count == 76_125  # the sum of those p


def test_sqrt_mod_200_digit():
    P = OddPrime(10**200 + 16737)
    x = sqrt_mod(-1, P)
    assert x is not None and (x * x + 1) % P.value == 0


def test_eighth_root_of_unity():
    for p in (17, 41, 73, 97, 113, 257):
        P = OddPrime(p)
        z = eighth_root_of_unity(P)
        assert pow(z, 8, p) == 1
        assert pow(z, 4, p) == p - 1  # primitive
        assert z * z % p == sqrt_mod(-1, P)
    with pytest.raises(PreconditionViolation):
        eighth_root_of_unity(OddPrime(13))


def test_quartic_roots_all_or_nothing():
    # x^4 - 2x^2 + 2 has four roots mod p exactly when p ≡ 1 (mod 8) and
    # (1+i'/p) = +1, and they are then SplitRoots.quartic()'s four; so its []
    # never hides a full split, while p ≡ 5 (mod 8) may have two roots
    for p in primes_in_range(3, 3000):
        P = OddPrime(p)
        exhaustive = {x for x in range(p) if (x**4 - 2 * x * x + 2) % p == 0}
        i_img = sqrt_mod(-1, P) if p % 4 == 1 else None
        split = p % 8 == 1 and legendre(1 + i_img, P) == 1
        assert (len(exhaustive) == 4) == split, p
        if p % 8 != 1:
            continue
        roots = split_roots(P).quartic()
        assert set(roots) == exhaustive and len(roots) == len(exhaustive), p
        if split:
            r, s = roots[0], roots[2]
            assert r * r % p == (1 + i_img) % p
            assert s * s % p == (1 - i_img) % p


def test_quartic_roots_split_iff_symbol_condition():
    # p ≢ 1 (mod 8) has no SplitRoots at all; p ≡ 1 (mod 8) has four
    # quartic roots exactly when (1+i'/p) = +1
    for p in primes_in_range(3, 3000):
        P = OddPrime(p)
        if p % 8 != 1:
            with pytest.raises(PreconditionViolation):
                split_roots(P)
            continue
        split = bool(split_roots(P).quartic())
        chi = legendre(1 + sqrt_mod(-1, P), P)
        assert split == (chi == 1), p


def _canonical_roots(P: OddPrime) -> tuple[int, int, int | None, int | None]:
    """i', zeta, r, s each by its own Tonelli-Shanks square root."""
    i_img = sqrt_mod(-1, P)
    return i_img, sqrt_mod(i_img, P), sqrt_mod(1 + i_img, P), sqrt_mod(1 - i_img, P)


def _primes_1_mod(m: int, digits: int, count: int, seed: int) -> list[int]:
    """count primes p ≡ 1 (mod m) of the given number of digits, each the
    first one from its own seeded random start."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.randrange(10 ** (digits - 1), 10**digits) // m * m + 1
        while not (gcd(n, _PRIMORIAL) == 1 and sympy.isprime(n)):
            n += m
        found.append(n)
    return found


@pytest.mark.parametrize("ps", [
    [p for p in primes_in_range(3, 20000) if p % 8 == 1],
    [10**200 + 16737, 10**200 + 28729],
    _primes_1_mod(8, 200, 8, seed=2),  # four split, four inert
], ids=["below-2e4", "200-digit-anchors", "200-digit-seeded"])
def test_split_roots_equal_the_canonical_roots(ps):
    split = 0
    for p in ps:
        P = OddPrime(p)
        roots = split_roots(P)
        i_img, zeta, r, s = _canonical_roots(P)
        assert (roots.p, roots.i_img, roots.zeta) == (p, i_img, zeta), p
        assert eighth_root_of_unity(P) == zeta
        if legendre(1 + i_img, P) == 1:
            split += 1
            assert (roots.r, roots.s) == (r, s), p
            assert roots.quartic() == [r, p - r, s, p - s]
        else:
            assert (roots.r, roots.s) == (None, None), p
            assert roots.quartic() == []
    assert split >= 2


def _two_sylow_by_search(p: int) -> tuple[int, int, int]:
    """_two_sylow's (q, s, c) with g the least integer that _jacobi calls a
    non-residue, found by trying 2, 3, 4, ... in turn."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    g = 2
    while _jacobi(g, p) != -1:
        g += 1
    return (p - 1) >> s, s, pow(g, (p - 1) >> s, p)


@pytest.mark.parametrize("ps", [
    [p for p in primes_in_range(3, 100_000) if p % 4 == 1],
    [48_473_881],  # ≡ 1 (mod 8), least odd non-residue 67: past the tables
    _primes_1_mod(4, 200, 8, seed=5),
], ids=["below-1e5", "least-non-residue-67", "200-digit-seeded"])
def test_two_sylow_matches_the_least_non_residue_search(ps):
    assert {p % 8 for p in ps} == ({1} if len(ps) == 1 else {1, 5})
    for p in ps:
        assert _two_sylow(p) == _two_sylow_by_search(p), p


def test_split_roots_require_p_1_mod_8():
    for p in (5, 7, 13):
        with pytest.raises(PreconditionViolation):
            split_roots(OddPrime(p))
