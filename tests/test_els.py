import pytest

from congprimes.els import COVERS, cover, lemma_symbol_prediction, locally_solvable_at_p
from congprimes.errors import PreconditionViolation
from congprimes.modmath import OddPrime, legendre, primes_in_range, sqrt_mod


def test_cover_coefficient_tables():
    assert COVERS["C1"] == (1, 0, -6, 0, 1)
    assert COVERS["C2"] == (1, 0, 0, 0, 4)
    assert COVERS["C3"] == (1, 0, 0, 0, 1)
    assert COVERS["D1"] == (1, -4, -6, -12, -7)
    assert COVERS["D2"] == (1, -4, 0, 24, 20)


def test_cover_construction():
    c = cover("D1", OddPrime(41))
    assert c.label == "D1"
    with pytest.raises(PreconditionViolation):
        cover("D9", OddPrime(41))


def _has_root(coeffs, p):
    a4, a3, a2, a1, a0 = coeffs
    return any(((((a4 * x + a3) * x + a2) * x + a1) * x + a0) % p == 0
               for x in range(p))


def test_root_detection_matches_exhaustive_search():
    for p in primes_in_range(17, 800):
        if p % 8 != 1:
            continue
        P = OddPrime(p)
        for label in ("D1", "D2"):
            c = cover(label, P)
            want = _has_root(COVERS[label], p)
            assert locally_solvable_at_p(c) == want, (p, label)


@pytest.mark.parametrize("label,p,want", [
    ("D1", 17, False),
    ("D1", 41, True),
    ("D2", 73, False),
    ("D2", 17, False),
    ("D1", 113, True),
])
def test_solvability_spot_values(label, p, want):
    c = cover(label, OddPrime(p))
    assert locally_solvable_at_p(c) == want
    assert lemma_symbol_prediction(c) == want


def test_both_routes_agree_with_chi():
    for p in primes_in_range(17, 5000):
        if p % 8 != 1:
            continue
        P = OddPrime(p)
        chi = legendre(1 + sqrt_mod(-1, P), P)
        for label in ("D1", "D2"):
            c = cover(label, P)
            assert locally_solvable_at_p(c) == (chi == 1)
            assert lemma_symbol_prediction(c) == (chi == 1)


def test_200_digit_cover():
    P = OddPrime(10**200 + 16737)
    for label in ("D1", "D2"):
        c = cover(label, P)
        assert locally_solvable_at_p(c)
        assert lemma_symbol_prediction(c)


def test_preconditions():
    with pytest.raises(PreconditionViolation):
        locally_solvable_at_p(cover("D1", OddPrime(13)))
    with pytest.raises(PreconditionViolation):
        lemma_symbol_prediction(cover("C1", OddPrime(17)))
