import random

import pytest

from congprimes.errors import PreconditionViolation
from congprimes.gaussian import (
    GaussianInt,
    ONE_PLUS_I,
    TwoSquares,
    gi_symbol,
    primary_associate,
    two_squares,
)
from congprimes.modmath import OddPrime, legendre, primes_in_range, sqrt_mod


def _rand(rng, bound=10**6):
    return GaussianInt(rng.randrange(-bound, bound), rng.randrange(-bound, bound))


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = _rand(rng), _rand(rng), _rand(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a * b).norm() == a.norm() * b.norm()


def test_int_coercion():
    a = GaussianInt(3, -4)
    assert a + 1 == GaussianInt(4, -4)
    assert 2 * a == GaussianInt(6, -8)
    assert a - 3 == GaussianInt(0, -4)
    assert a != "3-4i"


def test_divmod_nearest_remainder_small():
    rng = random.Random(5)
    for _ in range(500):
        a, b = _rand(rng, 10**4), _rand(rng, 10**3)
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        # nearest rounding keeps N(r) <= N(b)/2
        assert 2 * r.norm() <= b.norm()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(GaussianInt(1, 2), GaussianInt(0))


def test_two_squares_certificate():
    for p in primes_in_range(5, 5000):
        if p % 4 != 1:
            continue
        ts = two_squares(OddPrime(p))
        assert ts.u * ts.u + ts.v * ts.v == p
        assert ts.u % 2 == 1 and ts.v % 2 == 0
        assert ts.u > 0 and ts.v > 0


def test_two_squares_200_digit():
    p = 10**200 + 16737
    ts = two_squares(OddPrime(p))
    assert ts.u * ts.u + ts.v * ts.v == p


def test_two_squares_rejects_3_mod_4():
    with pytest.raises(PreconditionViolation):
        two_squares(OddPrime(7))


def test_two_squares_validates_fields():
    with pytest.raises(PreconditionViolation):
        TwoSquares(u=2, v=1, p=OddPrime(5))


def test_primary_associate_unique_among_associates():
    rng = random.Random(21)
    for p in primes_in_range(5, 2000):
        if p % 4 != 1:
            continue
        ts = two_squares(OddPrime(p))
        pi = GaussianInt(ts.u, ts.v)
        prim = {primary_associate(pi * u)
                for u in (GaussianInt(1), GaussianInt(-1),
                          GaussianInt(0, 1), GaussianInt(0, -1))}
        assert len(prim) == 1
        q = prim.pop()
        assert q.re % 2 == 1 and q.im % 2 == 0
        assert (q.re + q.im) % 4 == 1


def _brute_symbol(x: GaussianInt, pi: GaussianInt) -> int:
    """Euler criterion in the residue field Z[i]/(pi) = F_p."""
    p = pi.norm()
    i_img = (-pi.re * pow(pi.im, -1, p)) % p
    v = (x.re + x.im * i_img) % p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def test_gi_symbol_euler_criterion():
    rng = random.Random(33)
    for p in primes_in_range(5, 500):
        if p % 4 != 1:
            continue
        ts = two_squares(OddPrime(p))
        pi = primary_associate(GaussianInt(ts.u, ts.v))
        for _ in range(10):
            x = _rand(rng, 100)
            assert gi_symbol(x, pi) == _brute_symbol(x, pi)


def test_gi_symbol_multiplicative_and_unit_invariant_mod_8():
    rng = random.Random(34)
    for p in (13, 17, 41, 73, 89, 97):
        ts = two_squares(OddPrime(p))
        pi = primary_associate(GaussianInt(ts.u, ts.v))
        for _ in range(20):
            x, y = _rand(rng, 100), _rand(rng, 100)
            assert gi_symbol(x * y, pi) == gi_symbol(x, pi) * gi_symbol(y, pi)
            if p % 8 == 1 and gi_symbol(x, pi):
                # (i | pi) = +1 exactly on the 1 mod 8 stratum
                assert gi_symbol(x * GaussianInt(0, 1), pi) == gi_symbol(x, pi)


def test_gi_symbol_respects_squares():
    rng = random.Random(41)
    for p in (13, 17, 29, 41, 101):
        ts = two_squares(OddPrime(p))
        pi = primary_associate(GaussianInt(ts.u, ts.v))
        for _ in range(20):
            x = _rand(rng, 50)
            s = gi_symbol(x * x, pi)
            assert s in (0, 1)


def test_gi_symbol_rejects_non_prime_modulus():
    with pytest.raises(PreconditionViolation):
        gi_symbol(GaussianInt(1), GaussianInt(3, 0))  # norm 9
    with pytest.raises(PreconditionViolation):
        gi_symbol(GaussianInt(1), ONE_PLUS_I)  # even norm


def test_gi_symbol_matches_rational_legendre_on_integers():
    # rational a reduces through the field iso to legendre(a, p)
    for p in (13, 17, 41, 73):
        P = OddPrime(p)
        ts = two_squares(P)
        pi = primary_associate(GaussianInt(ts.u, ts.v))
        for a in range(1, 20):
            assert gi_symbol(GaussianInt(a), pi) == legendre(a, P)
