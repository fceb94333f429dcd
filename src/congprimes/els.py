"""Local solvability at p of the homogeneous spaces y^2 = p * q(x)
attached to 2-descent on y^2 = x^3 - p^2 x.

The C covers are carried as data only (their local behavior away from the
D pair is not needed); the two D covers are the ones whose solvability at
p is detected both directly (root of q mod p) and through a quadratic
symbol, and the two routes must agree.  Both quartics have discriminant
a power of 2, so for odd p a root mod p lifts to a p-adic point (and the
p in front forces even valuation, so no root means no point).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionViolation
from .modmath import OddPrime, legendre, sqrt_mod

# q coefficients by descending degree
COVERS = {
    "C1": (1, 0, -6, 0, 1),
    "C2": (1, 0, 0, 0, 4),
    "C3": (1, 0, 0, 0, 1),
    "D1": (1, -4, -6, -12, -7),
    "D2": (1, -4, 0, 24, 20),
}


class QuarticCover(NamedTuple):
    """y^2 = p * q(x), q = COVERS[label]."""

    label: str
    p: OddPrime


def cover(label: str, p: OddPrime) -> QuarticCover:
    if label not in COVERS:
        raise PreconditionViolation(f"unknown cover label {label!r}")
    return QuarticCover(label, p)


def _require_d_cover(c: QuarticCover):
    if c.label not in ("D1", "D2"):
        raise PreconditionViolation("only the D covers support this query")
    if c.p.value % 8 != 1:
        raise PreconditionViolation("D covers are analyzed at p ≡ 1 (mod 8) only")


def _reduce(e, q, p):
    # e mod (q, p) as 4 ascending coefficients; q ascending, monic of degree 4
    for d in range(len(e) - 1, 3, -1):
        c = e[d] % p
        for k in range(4):
            e[d - 4 + k] -= c * q[k]
    return [c % p for c in e[:4]]


def locally_solvable_at_p(c: QuarticCover) -> bool:
    """Whether the D cover has a p-adic point, decided by testing whether
    its quartic has a root in F_p via gcd(q, x^p - x)."""
    _require_d_cover(c)
    p = c.p.value
    q = COVERS[c.label][::-1]
    xp = [0, 1, 0, 0]  # x^p mod (q, p) by square and multiply
    for bit in bin(p)[3:]:
        a0, a1, a2, a3 = xp
        xp = _reduce([a0 * a0, 2 * a0 * a1, 2 * a0 * a2 + a1 * a1, 2 * (a0 * a3 + a1 * a2),
                      2 * a1 * a3 + a2 * a2, 2 * a2 * a3, a3 * a3], q, p)
        if bit == "1":
            xp = _reduce([0] + xp, q, p)  # times x
    # Euclid on (q, x^p - x) over F_p: a root exists iff the gcd is not constant
    a, b = list(q), [xp[0], xp[1] - 1, xp[2], xp[3]]
    while True:
        b = [c % p for c in b]
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) > 1
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a mod b
            t = a.pop() * inv % p
            for k in range(1, len(b)):
                a[-k] -= t * b[-1 - k]
        a, b = b, a


def lemma_symbol_prediction(c: QuarticCover) -> bool:
    """Local solvability predicted by the quadratic-symbol route.

    D1: the quartic splits over Q(sqrt2) into quadratics of discriminant
    16(1 ± sqrt2), so a p-adic root exists iff (1 + sqrt2 image / p) = +1.
    D2: it splits over Q(i) into quadratics of discriminant (1+i)^9 =
    16(1+i) and -i(1+i)^9 = 16(1-i); solvable iff either image
    16(1 ± i') is a square mod p.
    """
    _require_d_cover(c)
    p = c.p
    pv = p.value
    if c.label == "D1":
        s2 = sqrt_mod(2, p)
        assert s2 is not None  # p ≡ 1 (mod 8)
        return legendre(1 + s2, p) == 1
    i_img = sqrt_mod(-1, p)
    v1 = 16 * (1 + i_img) % pv
    v2 = 16 * (1 - i_img) % pv
    return legendre(v1, p) == 1 or legendre(v2, p) == 1
