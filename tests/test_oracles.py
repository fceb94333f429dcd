import random
from collections import Counter
from math import isqrt

import pytest
from sympy.polys.domains import ZZ_I

from congprimes import oracles
from congprimes.errors import BoundExceeded, ComputeFailed, PreconditionViolation
from congprimes.modmath import OddPrime, primes_in_range
from congprimes.oracles import (
    class_number,
    delta_box_search,
    r3,
    rep_x2_32y2,
    tunnell_a,
)


@pytest.mark.parametrize("p,h", [(5, 2), (13, 2), (17, 4), (29, 6), (37, 2),
                                 (41, 8), (113, 8), (257, 16)])
def test_class_number_spot_values(p, h):
    assert class_number(OddPrime(p)) == h


def test_class_number_requires_1_mod_4():
    with pytest.raises(PreconditionViolation):
        class_number(OddPrime(7))


def test_class_number_bound():
    with pytest.raises(BoundExceeded):
        class_number(OddPrime(10**7 + 121), bound=10**6)


@pytest.mark.parametrize("n,want", [(0, 1), (1, 6), (2, 12), (3, 8), (4, 6),
                                    (5, 24), (17, 48), (7, 0)])
def test_r3_small_values(n, want):
    assert r3(n) == want


def test_r3_brute_force_cross_check():
    from math import isqrt

    def slow(n):
        count = 0
        m = isqrt(n)
        for x in range(-m, m + 1):
            for y in range(-m, m + 1):
                z2 = n - x * x - y * y
                if z2 < 0:
                    continue
                z = isqrt(z2)
                if z * z == z2:
                    count += 1 if z == 0 else 2
        return count

    for n in range(0, 200):
        assert r3(n) == slow(n), n


def test_r3_is_12h_on_the_stratum():
    for p in primes_in_range(5, 1500):
        if p % 4 == 1:
            assert r3(p) == 12 * class_number(OddPrime(p))


def test_r3_preconditions():
    with pytest.raises(PreconditionViolation):
        r3(-1)
    with pytest.raises(BoundExceeded):
        r3(10**7, bound=10**6)


@pytest.mark.parametrize("n,want", [(41, 0), (17, -4), (1, 1), (3, 2)])
def test_tunnell_spot_values(n, want):
    assert tunnell_a(n) == want


def test_tunnell_matches_its_definition_below_2000():
    # #{2x^2 + y^2 + zc z^2 = n} for every n < 2000 from a tally of every
    # signed triple (x, y, z) that lands below 2000
    def tally(zc):
        counts = Counter()
        for x in range(-isqrt(1000), isqrt(1000) + 1):
            for y in range(-isqrt(2000), isqrt(2000) + 1):
                for z in range(-isqrt(2000 // zc), isqrt(2000 // zc) + 1):
                    counts[2 * x * x + y * y + zc * z * z] += 1
        return counts

    big, small = tally(32), tally(8)
    checked = 0
    for n in range(1, 2000, 2):
        if all(n % (d * d) for d in range(3, isqrt(n) + 1, 2)):
            assert 2 * tunnell_a(n) == 2 * big[n] - small[n], n
            checked += 1
    assert checked == 811


def test_tunnell_zero_exactly_at_known_congruent_primes():
    # p ≡ 5, 7 mod 8 are congruent, so a_p must vanish there
    for p in primes_in_range(5, 600):
        if p % 8 in (5, 7):
            assert tunnell_a(p) == 0, p


def test_tunnell_preconditions():
    with pytest.raises(PreconditionViolation):
        tunnell_a(12)
    with pytest.raises(PreconditionViolation):
        tunnell_a(45)  # 45 = 9 * 5 not squarefree
    with pytest.raises(PreconditionViolation):
        tunnell_a(1009**2 * 1013, bound=2 * 10**9)  # raised before an O(n) count
    with pytest.raises(PreconditionViolation):
        tunnell_a(-3)
    with pytest.raises(BoundExceeded):
        tunnell_a(10**7 + 1, bound=10**6)


# no prime factor below 1000, so a square factor shows only to trial
# division past 1000 or, when n has two prime factors, to the square test
@pytest.mark.parametrize("n, want", [
    (1009**3, False), (1009**2 * 1013, False), (1013**2 * 1019 * 1021, False),
    (1009 * 1013 * 1019, True), (1009**2, False),
])
def test_is_squarefree_past_the_primes_below_1000(n, want):
    assert oracles._is_squarefree(n) is want


@pytest.mark.parametrize("p,want", [(41, True), (113, True), (73, False),
                                    (17, False), (257, True)])
def test_rep_x2_32y2(p, want):
    assert rep_x2_32y2(OddPrime(p)) == want


def _rep_x2_32y2_by_search(p: int) -> bool:
    # the O(sqrt p) loop that Cornacchia's algorithm replaced
    y = 0
    while 32 * y * y <= p:
        x2 = p - 32 * y * y
        x = isqrt(x2)
        if x * x == x2:
            return True
        y += 1
    return False


def test_rep_x2_32y2_matches_the_search_below_2e5():
    for p in primes_in_range(3, 200_000):
        assert rep_x2_32y2(OddPrime(p)) == _rep_x2_32y2_by_search(p), p


@pytest.mark.parametrize("p", [10**200 + 16737, 10**200 + 28729])
def test_rep_x2_32y2_at_the_200_digit_anchors(p):
    # both anchors have v_level >= 3, so p = x^2 + 32y^2 (Barrucand & Cohn)
    assert rep_x2_32y2(OddPrime(p))


def test_rep_x2_32y2_rejects_a_wrong_square_root(monkeypatch):
    monkeypatch.setattr(oracles, "_sqrt_mod_int", lambda a, p: 1)
    with pytest.raises(ComputeFailed, match="sqrt"):
        rep_x2_32y2(OddPrime(41))


def test_box_search_finds_certified_solution():
    sol = delta_box_search(OddPrime(41), 16)
    assert sol is not None
    ar, ai, br, bi = sol
    a, b = ZZ_I(ar, ai), ZZ_I(br, bi)
    assert a * a - ZZ_I(1, 1) * b * b == ZZ_I(41)
    assert ar > 0


def test_gaussian_sqrt_inverts_sympy_squaring():
    rng = random.Random(8)
    for _ in range(500):
        z = ZZ_I(rng.randrange(-999, 1000), rng.randrange(-999, 1000))
        w = z * z
        assert oracles._gaussian_sqrt(w.x, w.y) in {(z.x, z.y), (-z.x, -z.y)}
    assert [oracles._gaussian_sqrt(*w) for w in [(-1, 0), (0, 2), (0, 1), (2, 0), (5, 0)]] \
        == [(0, 1), (1, 1), None, None, None]
    # every w with |re|, |im| <= 300: a root exactly at the squares of Z[i]
    squares = {(x * x - y * y, 2 * x * y) for x in range(-21, 22) for y in range(-21, 22)}
    for wr in range(-300, 301):
        for wi in range(-300, 301):
            root = oracles._gaussian_sqrt(wr, wi)
            if (wr, wi) in squares:
                x, y = root
                assert x >= 0 and (x * x - y * y, 2 * x * y) == (wr, wi), (wr, wi)
            else:
                assert root is None, (wr, wi)


def test_box_search_refuses_a_solution_without_relative_norm_p(monkeypatch):
    # a wrong square root gives an a with a^2 - (1+i) b^2 != p
    monkeypatch.setattr(oracles, "_gaussian_sqrt", lambda wr, wi: (1, 0))
    with pytest.raises(ComputeFailed, match="relative norm 41"):
        delta_box_search(OddPrime(41), 16)


def test_box_search_empty_when_not_split():
    assert delta_box_search(OddPrime(17), 40) is None
    assert delta_box_search(OddPrime(97), 60) is None  # chi_1pi = -1


def test_box_search_respects_bound():
    # smallest solutions for 41 need components of size ~6; a tiny box misses
    assert delta_box_search(OddPrime(41), 2) is None
