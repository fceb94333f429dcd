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


def _poly_mul_mod(a, b, q, p):
    # product of a, b mod (q, p); q monic of degree 4, a, b of degree < 4
    e = [0] * 7
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                e[i + j] = (e[i + j] + ai * bj) % p
    for d in range(6, 3, -1):
        c = e[d]
        if c:
            e[d] = 0
            for k in range(4):
                # x^d = -c (q_3 x^(d-1) + ... ) : subtract c * q * x^(d-4)
                e[d - 4 + k] = (e[d - 4 + k] - c * q[4 - k]) % p
    return e[:4]


def _x_pow_p(q, p):
    # x^p mod (q, p) by square and multiply; q monic, descending coeffs
    result = [0, 1, 0, 0]  # x
    for bit in bin(p)[3:]:
        result = _poly_mul_mod(result, result, q, p)
        if bit == "1":
            r = [0] + result  # multiply by x
            c = r[4]
            r = r[:4]
            if c:
                for k in range(4):
                    r[k] = (r[k] - c * q[4 - k]) % p
            result = r
    return result


def _poly_gcd_deg(a, b, p) -> int:
    # degree of gcd(a, b) in F_p[x]; inputs as ascending coefficient lists
    def deg(f):
        for d in range(len(f) - 1, -1, -1):
            if f[d] % p:
                return d
        return -1

    a, b = [x % p for x in a], [x % p for x in b]
    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], -1, p)
        coef = a[da] * inv % p
        shift = da - db
        for k in range(db + 1):
            a[k + shift] = (a[k + shift] - coef * b[k]) % p
        # deg dropped; loop continues
    return deg(a)


def locally_solvable_at_p(c: QuarticCover) -> bool:
    """Whether the D cover has a p-adic point, decided by testing whether
    its quartic has a root in F_p via gcd(q, x^p - x)."""
    _require_d_cover(c)
    pv = c.p.value
    q_desc = COVERS[c.label]
    q_asc = tuple(reversed(q_desc))
    xp = _x_pow_p(q_desc, pv)
    # gcd(q, x^p - x)
    diff = [(xp[0]) % pv, (xp[1] - 1) % pv, xp[2] % pv, xp[3] % pv]
    return _poly_gcd_deg(list(q_asc), diff, pv) >= 1


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
