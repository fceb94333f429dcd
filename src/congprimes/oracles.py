"""Independent enumeration oracles.

Everything here recomputes, by direct counting, quantities that the
symbol criteria predict: reduced binary quadratic forms, sums of three
squares, the ternary-form counts behind the congruent number criterion,
x^2 + 32y^2 representability, and a bounded exhaustive search for the
norm equation a^2 - (1+i)b^2 = p.  Deliberately naive, except that
x^2 + 32y^2 is decided by Cornacchia's algorithm so that it reaches
200 digits; used to validate the fast routes, never to replace them.
"""

from __future__ import annotations

from math import isqrt

from .errors import BoundExceeded, ComputeFailed, PreconditionViolation
from .gaussian import _cornacchia, _mul
from .modmath import OddPrime, _sqrt_mod_int
from .quartic import _relative_norm

DEFAULT_BOUND = 10**6


def class_number(p: OddPrime, bound: int = DEFAULT_BOUND) -> int:
    """h(-4p) by enumerating reduced forms (a, b, c): b^2 - 4ac = -4p,
    -a < b <= a <= c, b even, and b >= 0 whenever a = c or a = |b|."""
    pv = p.value
    if pv % 4 != 1:
        # off this stratum the enumeration would also count imprimitive
        # forms (doubles of odd-discriminant forms), inflating h
        raise PreconditionViolation("class_number counts forms for p ≡ 1 (mod 4)")
    if pv > bound:
        raise BoundExceeded(f"class_number is configured for p <= {bound}")
    fourp = 4 * pv
    h = 0
    for a in range(1, isqrt(fourp // 3) + 1):
        for b in range(-a + 2 if a % 2 == 0 else -a + 1, a + 1, 2):  # the even b in (-a, a]
            num = b * b + fourp
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or a == -b):
                continue
            h += 1
    return h


def r3(n: int, bound: int = DEFAULT_BOUND) -> int:
    """Number of (x, y, z) in Z^3 with x^2 + y^2 + z^2 = n (signed, ordered)."""
    if n < 0:
        raise PreconditionViolation("r3 takes a nonnegative integer")
    if n > bound:
        raise BoundExceeded(f"r3 is configured for n <= {bound}")
    if n == 0:
        return 1
    total = 0
    for x in range(isqrt(n) + 1):
        rem = n - x * x
        mx = 2 if x else 1
        for y in range(isqrt(rem) + 1):
            z2 = rem - y * y
            z = isqrt(z2)
            if z * z == z2:
                my = 2 if y else 1
                mz = 2 if z else 1
                total += mx * my * mz
    return total


def _is_squarefree(n: int) -> bool:
    """Whether no prime square divides n > 0.  Trial division while d^3 <= m
    leaves a cofactor m with at most two prime factors, so m is then
    squarefree unless it is a square above 1."""
    m, d = n, 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
        d += 1 if d == 2 else 2
    s = isqrt(m)
    return s * s != m or m == 1


def tunnell_a(n: int, bound: int = DEFAULT_BOUND) -> int:
    """a_n = #{n = 2x^2 + y^2 + 32z^2} - (1/2) #{n = 2x^2 + y^2 + 8z^2}
    for odd squarefree n (signed triples).  a_n = 0 is necessary for n to
    be congruent, and conjecturally sufficient."""
    if n <= 0 or n % 2 == 0:
        raise PreconditionViolation("tunnell_a takes an odd squarefree positive n")
    if n > bound:
        raise BoundExceeded(f"tunnell_a is configured for n <= {bound}")
    if not _is_squarefree(n):
        raise PreconditionViolation("tunnell_a takes an odd squarefree positive n")

    def count(zc: int) -> int:
        total = 0
        x = 0
        while 2 * x * x <= n:
            rem_x = n - 2 * x * x
            mx = 2 if x else 1
            z = 0
            while zc * z * z <= rem_x:
                y2 = rem_x - zc * z * z
                y = isqrt(y2)
                if y * y == y2 and y:  # y is odd since n is odd, never 0
                    total += mx * 2 * (2 if z else 1)
                z += 1
            x += 1
        return total

    big = count(32)
    small = count(8)
    assert small % 2 == 0
    return big - small // 2


def rep_x2_32y2(p: OddPrime) -> bool:
    """Whether p = x^2 + 32 y^2 for integers x, y (detects 8 | h(-4p)), by
    Cornacchia's algorithm (Cohen, GTM 138, Alg. 1.5.2) in O(log p) steps."""
    pv = p.value
    x0 = _sqrt_mod_int(-32, pv)
    if x0 is None:
        return False
    if (x0 * x0 + 32) % pv:
        raise ComputeFailed(f"sqrt(-32) mod {pv} failed its check")
    return _cornacchia(pv, 32, x0) is not None


def _gaussian_sqrt(wr: int, wi: int) -> tuple[int, int] | None:
    """Exact square root (x, y) of w = wr + wi*i in Z[i], if one exists."""
    if not (wr or wi):
        return 0, 0
    nw = wr * wr + wi * wi
    s = isqrt(nw)
    if s * s != nw:
        return None
    # N(x + y*i) = s, so x^2 = (wr + s)/2 and 2xy = wi
    half = wr + s
    if half % 2:
        return None
    x2 = half // 2
    x = isqrt(x2)
    if x * x != x2:
        return None
    if x:
        if wi % (2 * x):
            return None
        cand = x, wi // (2 * x)
    else:
        if wi:
            return None
        cand = 0, isqrt(-wr)
    return cand if _mul(cand, cand) == (wr, wi) else None


def delta_box_search(p: OddPrime, bound: int) -> tuple[int, int, int, int] | None:
    """Exhaustive solution of a^2 - (1+i) b^2 = p, as (a.re, a.im, b.re, b.im),
    over the box max(|re|, |im|) <= bound for both a and b; None if the box
    is empty, ComputeFailed if the solution found fails that equation.

    Scans every b in the box and derives the only possible a by exact
    Gaussian square root, which visits the same solution set as the naive
    four-fold loop.  A solution exists for some box iff p splits
    completely; bounds around 2*sqrt(p) suffice in practice.
    """
    pv = p.value
    for bre in range(-bound, bound + 1):
        for bim in range(-bound, bound + 1):
            wr, wi = _mul((1, 1), _mul((bre, bim), (bre, bim)))  # (1+i) b^2
            a = _gaussian_sqrt(pv + wr, wi)
            if a is None:
                continue
            ar, ai = a
            if max(abs(ar), abs(ai)) > bound:
                continue
            if ar < 0 or (ar == 0 and ai < 0):
                ar, ai = -ar, -ai
            x = ar, ai, bre, bim
            if _relative_norm(*x) != (pv, 0):
                raise ComputeFailed(f"box-search solution {x} does not have relative norm {pv}")
            return x
    return None
