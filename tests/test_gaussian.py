import random

import pytest
from sympy.polys.domains import ZZ_I

from congprimes import gaussian
from congprimes.errors import ComputeFailed, PreconditionViolation
from congprimes.gaussian import _mul, gi_symbol, primary_associate, two_squares
from congprimes.modmath import OddPrime, legendre, primes_in_range, sqrt_mod


def _rand(rng, bound=10**6):
    return rng.randrange(-bound, bound), rng.randrange(-bound, bound)


def _pair(z):
    """A sympy Gaussian integer as an (re, im) pair."""
    return z.x, z.y


def test_ring_axioms_random():
    # the product is sympy's exact one, so associative and commutative,
    # compatible with conjugation and multiplicative on the norm
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = _rand(rng), _rand(rng), _rand(rng)
        ab = _mul(a, b)
        assert ab == _mul(b, a) == _pair(ZZ_I(*a) * ZZ_I(*b))
        assert _mul(ab, c) == _mul(a, _mul(b, c))
        assert _mul((a[0], -a[1]), (b[0], -b[1])) == (ab[0], -ab[1])
        assert ab[0] ** 2 + ab[1] ** 2 == (a[0] ** 2 + a[1] ** 2) * (b[0] ** 2 + b[1] ** 2)


def test_two_squares_certificate():
    for p in primes_in_range(5, 5000):
        if p % 4 != 1:
            continue
        u, v = two_squares(OddPrime(p))
        assert u * u + v * v == p
        assert u % 2 == 1 and v % 2 == 0
        assert u > 0 and v > 0


def test_two_squares_200_digit():
    p = 10**200 + 16737
    u, v = two_squares(OddPrime(p))
    assert u * u + v * v == p


def test_two_squares_rejects_3_mod_4():
    with pytest.raises(PreconditionViolation):
        two_squares(OddPrime(7))


def test_two_squares_validates_fields(monkeypatch):
    # a descent that hands back no normalized 13 = u^2 + v^2 raises
    for wrong in [(1, 2), (-3, 2), (3, -2), (3, 0)]:
        monkeypatch.setattr(gaussian, "_cornacchia", lambda p, d, root: wrong)
        with pytest.raises(ComputeFailed, match="two-squares decomposition of 13"):
            two_squares(OddPrime(13))


def test_primary_associate_unique_among_associates():
    rng = random.Random(21)
    for p in primes_in_range(5, 2000):
        if p % 4 != 1:
            continue
        pi = two_squares(OddPrime(p))
        prim = {primary_associate(_mul(pi, u)) for u in ((1, 0), (-1, 0), (0, 1), (0, -1))}
        assert len(prim) == 1
        q = prim.pop()
        assert q[0] % 2 == 1 and q[1] % 2 == 0
        assert (q[0] + q[1]) % 4 == 1
    with pytest.raises(PreconditionViolation):
        primary_associate((1, 1))


def _brute_symbol(x, pi) -> int:
    """Euler criterion in the residue field Z[i]/(pi) = F_p."""
    p = pi[0] ** 2 + pi[1] ** 2
    i_img = (-pi[0] * pow(pi[1], -1, p)) % p
    v = (x[0] + x[1] * i_img) % p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def test_gi_symbol_euler_criterion():
    rng = random.Random(33)
    for p in primes_in_range(5, 500):
        if p % 4 != 1:
            continue
        pi = primary_associate(two_squares(OddPrime(p)))
        for _ in range(10):
            x = _rand(rng, 100)
            assert gi_symbol(x, pi) == _brute_symbol(x, pi)


def test_gi_symbol_multiplicative_and_unit_invariant_mod_8():
    rng = random.Random(34)
    for p in (13, 17, 41, 73, 89, 97):
        pi = primary_associate(two_squares(OddPrime(p)))
        for _ in range(20):
            x, y = _rand(rng, 100), _rand(rng, 100)
            assert gi_symbol(_mul(x, y), pi) == gi_symbol(x, pi) * gi_symbol(y, pi)
            if p % 8 == 1 and gi_symbol(x, pi):
                # (i | pi) = +1 exactly on the 1 mod 8 stratum
                assert gi_symbol(_mul(x, (0, 1)), pi) == gi_symbol(x, pi)


def test_gi_symbol_respects_squares():
    rng = random.Random(41)
    for p in (13, 17, 29, 41, 101):
        pi = primary_associate(two_squares(OddPrime(p)))
        for _ in range(20):
            x = _rand(rng, 50)
            s = gi_symbol(_mul(x, x), pi)
            assert s in (0, 1)


def test_gi_symbol_rejects_non_prime_modulus():
    with pytest.raises(PreconditionViolation):
        gi_symbol((1, 0), (3, 0))  # norm 9
    with pytest.raises(PreconditionViolation):
        gi_symbol((1, 0), (1, 1))  # even norm


def test_gi_symbol_matches_rational_legendre_on_integers():
    # rational a reduces through the field iso to legendre(a, p)
    for p in (13, 17, 41, 73):
        P = OddPrime(p)
        pi = primary_associate(two_squares(P))
        for a in range(1, 20):
            assert gi_symbol((a, 0), pi) == legendre(a, P)
