"""Exact arithmetic in Z[i], on (re, im) int pairs: two-squares
decompositions, primary associates, and the quadratic residue symbol on
Gaussian primes."""

from __future__ import annotations

from math import isqrt

from .errors import ComputeFailed, PreconditionViolation
from .modmath import OddPrime, _jacobi, _sqrt_mod_int, is_probable_prime


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product x * y in Z[i]."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cornacchia(p: int, d: int, root: int) -> tuple[int, int] | None:
    """(x, y) with p = x^2 + d y^2, both >= 0, or None if p has no such
    form, by Cornacchia's algorithm (Cohen, GTM 138, Alg. 1.5.2): x is the
    first remainder below sqrt(p) in Euclid's algorithm on p and root, a
    square root of -d mod p.  Either square root reaches the same x."""
    a, b, bound = p, root, isqrt(p)
    while b > bound:
        a, b = b, a % b
    y2, rest = divmod(p - b * b, d)
    y = isqrt(y2)
    return None if rest or y * y != y2 else (b, y)


def two_squares(p: OddPrime) -> tuple[int, int]:
    """(u, v) with p = u^2 + v^2, u odd, v even, both positive, for
    p ≡ 1 (mod 4) (Hermite-Serret descent on a square root of -1)."""
    pv = p.value
    if pv % 4 != 1:
        raise PreconditionViolation("two_squares requires p ≡ 1 (mod 4)")
    w = _sqrt_mod_int(-1, pv)
    assert w is not None
    uv = _cornacchia(pv, 1, w)
    assert uv is not None, "descent failed to produce a representation"
    u, v = uv
    if u % 2 == 0:
        u, v = v, u
    if u * u + v * v != pv or u % 2 == 0 or v % 2 or u <= 0 or v <= 0:
        raise ComputeFailed(f"({u}, {v}) is no normalized two-squares decomposition of {pv}")
    return u, v


def primary_associate(x: tuple[int, int]) -> tuple[int, int]:
    """The unique associate with re odd, im even and re + im ≡ 1 (mod 4),
    i.e. congruent to 1 mod (1+i)^3.  Requires x of odd norm."""
    re, im = x
    if (re + im) % 2 == 0:  # N(x) ≡ re + im (mod 2)
        raise PreconditionViolation("primary associates exist only for odd elements")
    for _ in range(4):
        if re % 2 != 0 and im % 2 == 0 and (re + im) % 4 == 1:
            return re, im
        re, im = -im, re  # times i
    raise AssertionError("exactly one associate is primary")


def gi_symbol(x: tuple[int, int], pi: tuple[int, int]) -> int:
    """Quadratic residue symbol (x/pi) for a Gaussian prime pi of odd prime
    norm p, evaluated through the residue field Z[i]/(pi) ≅ F_p.

    The residue map sends i to i' = -pi.re / pi.im (mod p); the value is the
    Legendre symbol of the image of x.  Independent of the choice of
    associate of pi.
    """
    p = pi[0] * pi[0] + pi[1] * pi[1]
    if p % 2 == 0 or not is_probable_prime(p):
        raise PreconditionViolation("gi_symbol requires a Gaussian prime of odd prime norm")
    return _jacobi((x[0] + x[1] * _i_image(pi, p)) % p, p)


def _i_image(pi: tuple[int, int], p: int) -> int:
    """i' = -pi.re / pi.im (mod p), the image of i under Z[i] -> Z[i]/(pi) = F_p,
    for pi of prime norm p."""
    return -pi[0] * pow(pi[1], -1, p) % p
