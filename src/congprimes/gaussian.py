"""Exact arithmetic in Z[i]: two-squares decompositions, primary
associates, and the quadratic residue symbol on Gaussian primes."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import PreconditionViolation
from .modmath import OddPrime, _jacobi, _sqrt_mod_int, is_probable_prime


class GaussianInt:
    """Immutable Gaussian integer re + im*i with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *_):
        raise AttributeError("GaussianInt is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianInt):
            return other
        if isinstance(other, int):
            return GaussianInt(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianInt(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianInt(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianInt(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_odd(self) -> bool:
        # odd = coprime to 1+i = norm odd
        return self.norm() % 2 == 1

    def __divmod__(self, other):
        """Euclidean division with nearest rounding: |rem| < |other|."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("Gaussian division by zero")
        t = self * o.conj()
        q = GaussianInt(_round_div(t.re, n), _round_div(t.im, n))
        return q, self - q * o


I_UNIT = GaussianInt(0, 1)
ONE_PLUS_I = GaussianInt(1, 1)


def _round_div(a: int, b: int) -> int:
    # nearest integer to a/b, b > 0 (ties toward +inf; any tie rule works)
    return (2 * a + b) // (2 * b)


@dataclass(frozen=True)
class TwoSquares:
    """p = u^2 + v^2 with u odd, v even, both positive."""

    p: OddPrime
    u: int
    v: int

    def __post_init__(self):
        if self.u * self.u + self.v * self.v != self.p.value:
            raise PreconditionViolation("not a two-squares decomposition")
        if self.u % 2 == 0 or self.v % 2 == 1 or self.u <= 0 or self.v <= 0:
            raise PreconditionViolation("normalization violated: want u odd, v even, both > 0")


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


def two_squares(p: OddPrime) -> TwoSquares:
    """Decompose p ≡ 1 (mod 4) as u^2 + v^2 (Hermite-Serret descent on a
    square root of -1)."""
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
    return TwoSquares(p, u, v)


def primary_associate(x: GaussianInt) -> GaussianInt:
    """The unique associate with re odd, im even and re + im ≡ 1 (mod 4),
    i.e. congruent to 1 mod (1+i)^3.  Requires x of odd norm."""
    if not x.is_odd():
        raise PreconditionViolation("primary associates exist only for odd elements")
    for _ in range(4):
        if x.re % 2 != 0 and x.im % 2 == 0 and (x.re + x.im) % 4 == 1:
            return x
        x = x * I_UNIT
    raise AssertionError("exactly one associate is primary")


def gi_symbol(x: GaussianInt, pi: GaussianInt) -> int:
    """Quadratic residue symbol (x/pi) for a Gaussian prime pi of odd prime
    norm p, evaluated through the residue field Z[i]/(pi) ≅ F_p.

    The residue map sends i to i' = -pi.re / pi.im (mod p); the value is the
    Legendre symbol of the image of x.  Independent of the choice of
    associate of pi.
    """
    p = pi.norm()
    if p % 2 == 0 or not is_probable_prime(p):
        raise PreconditionViolation("gi_symbol requires a Gaussian prime of odd prime norm")
    return _jacobi((x.re + x.im * _i_image(pi, p)) % p, p)


def _i_image(pi: GaussianInt, p: int) -> int:
    """i' = -pi.re / pi.im (mod p), the image of i under Z[i] -> Z[i]/(pi) = F_p,
    for pi of prime norm p."""
    return -pi.re * pow(pi.im, -1, p) % p
