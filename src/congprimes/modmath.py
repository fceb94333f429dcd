"""Arbitrary-precision modular arithmetic.

Primality testing, quadratic residue symbols, modular square roots, and
the mod-p splitting data of x^4 - 2x^2 + 2.  Everything else in the
package sits on top of these primitives, so they are kept dependency-free
and deterministic.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress
from math import gcd, isqrt, log, prod
from operator import index
from typing import NamedTuple

from .errors import PreconditionViolation


# Extra randomized rounds on top of base-2 + Lucas for n >= 2^64.
# 64 independent witnesses push the error probability below 4^-64 = 2^-128.
_EXTRA_MR_ROUNDS = 64


def _is_sprp(n: int, a: int) -> bool:
    """Strong-probable-prime test of odd n > 2 to base a."""
    a %= n
    if a == 0:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _half(x: int, n: int) -> int:
    # division by 2 mod odd n
    x %= n
    if x & 1:
        x += n
    return (x >> 1) % n


def _selfridge_d(n: int) -> int | None:
    """First D in 5, -7, 9, -11, ... with (D/n) = -1; None -> composite."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == 0 and abs(d) != n:
            return None
        if j == -1:
            return d
        d = -(d + 2) if d > 0 else -(d - 2)


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge parameters (P=1, Q=(1-D)/4)."""
    s = isqrt(n)
    if s * s == n:
        return False
    D = _selfridge_d(n)
    if D is None:
        return False
    Q = (1 - D) // 4
    s2 = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d 2^s2, d odd
    d = (n + 1) >> s2
    # binary ladder for (U_d, V_d, Q^d) mod n
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = _half(U + V, n), _half(V + D * U, n)
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s2 - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test.

    Trial division by every prime below 1000 is one gcd with their
    product, which settles n below 1001^2 = 1,002,001 outright.  Past
    that, one Baillie-PSW test: a base-2 strong probable prime test and a
    strong Lucas test with Selfridge's parameters (Baillie and Wagstaff,
    Math. Comp. 35, 1980).  It is exact below 2^64: Feitsma and Galway
    listed every base-2 Fermat pseudoprime below 2^64, and Gilchrist
    checked that none of them passes this Lucas test.  From 2^64 on, 64
    seeded-random Miller-Rabin rounds follow, so a composite slips through
    with probability below 2^-128.  No randomness escapes: the extra
    witnesses are derived from n, so the function is a pure function of n.
    """
    if n < 2:
        return False
    if gcd(n, _PRIMORIAL) != 1:  # gcd == n also holds for 30 = 2*3*5
        return n in _SMALL_PRIMES
    if n < 1_002_001:  # below 1001^2 trial division was complete
        return True
    if not (_is_sprp(n, 2) and _is_strong_lucas_prp(n)):
        return False
    if n < 2**64:  # no base-2 pseudoprime below 2^64 passes the Lucas test
        return True
    rng = random.Random(n)
    return all(_is_sprp(n, rng.randrange(2, n - 1)) for _ in range(_EXTRA_MR_ROUNDS))


MAX_WINDOW = 10_000_000  # the widest [lo, hi] that primes_in_range sieves
BASE_BOUND = 100_000  # primes_in_range marks with the primes up to min(sqrt(hi), BASE_BOUND)
_BASE_PRIMES: list[int] = []  # the primes below BASE_BOUND, sieved on first need past 1000

# primes expected per window, the unit a range walk sieves (and a scan classifies and renders)
SCAN_CHUNK = 1024
# least window width over the base bound min(sqrt(hi), BASE_BOUND), to amortize
# primes_in_range's loop over the base primes, run once per window (10 ms at 10^10)
BASE_SPAN = 4


class Windows(Sequence):
    """The windows (a, min(a + width - 1, hi)) for a in starts, each built on
    access, so length, indexing and slicing cost O(1) whatever the count."""

    __slots__ = ("starts", "width", "hi")

    def __init__(self, starts: range, width: int, hi: int) -> None:
        self.starts, self.width, self.hi = starts, width, hi

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Windows(self.starts[i], self.width, self.hi)
        a = self.starts[i]
        return a, min(a + self.width - 1, self.hi)


def windows(lo: int, hi: int, processes: int = 1) -> Windows:
    """[max(lo, 3), hi] cut into the windows that every range walk sieves: each
    expected to hold SCAN_CHUNK primes (one number in ln hi is prime), at most
    MAX_WINDOW wide, and at least BASE_SPAN base bounds wide unless that would
    leave fewer than 4 windows per process."""
    if processes < 1:
        raise PreconditionViolation(f"worker count must be at least 1, got {processes}")
    lo, top = max(lo, 3), max(hi, 2)
    least = min(BASE_SPAN * min(isqrt(top), BASE_BOUND), (hi - lo) // (4 * processes) + 1)
    width = min(max(1 + int(SCAN_CHUNK * log(top)), least), MAX_WINDOW)
    return Windows(range(lo, hi + 1, width), width, hi)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], from one window sieve of its odd numbers, with
    2 prepended when lo <= 2.  Flag j stands for odd + 2j, odd = lo | 1.
    Each odd prime q up to min(sqrt(hi), BASE_BOUND) marks its odd
    multiples m*q >= lo with m >= q, every 2q, so q itself survives; past
    that bound each survivor is certified on its own."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    if hi - lo + 1 > MAX_WINDOW:
        raise PreconditionViolation("window wider than 10^7 is not supported")
    base_limit = min(isqrt(hi), BASE_BOUND)
    if base_limit > 1000 and not _BASE_PRIMES:
        _BASE_PRIMES.extend(primes_in_range(2, BASE_BOUND))  # its own base: _SMALL_PRIMES
    base = _BASE_PRIMES or _SMALL_PRIMES  # _SMALL_PRIMES: the primes up to 1000
    odd = lo | 1
    flags = bytearray([1]) * ((hi - odd) // 2 + 1)  # empty when hi = lo = 2
    for q in base[1:bisect_right(base, base_limit)]:
        m = (lo + q - 1) // q | 1  # m*q is the first odd multiple >= lo
        if m < q:
            m = q
        start = m * q
        if start <= hi:
            flags[(start - odd) >> 1 :: q] = bytearray((hi - start) // (2 * q) + 1)
    survivors = compress(range(odd, hi + 1, 2), flags)
    if isqrt(hi) <= base_limit:
        return [2, *survivors] if lo == 2 else list(survivors)
    return [n for n in survivors if is_probable_prime(n)]


# the primes up to 1000, ascending as primes_in_range bisects them: those up to
# sqrt(1000) sieve the rest, and is_probable_prime trial-divides by all of them
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_SMALL_PRIMES = tuple(primes_in_range(2, 1000))
_PRIMORIAL = prod(_SMALL_PRIMES)


class OddPrime:
    """A certified odd prime.  OddPrime(n) runs is_probable_prime on n and
    raises unless n is an odd prime, so every downstream function may
    assume its argument really is one.  The one other way in is the
    package-internal _certified, for primes that primes_in_range has
    already certified.  An OddPrime is immutable and equal only to an
    OddPrime of the same value; copies and pickles are not tested again."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        value = index(value)  # any integer type is stored as an int
        if value == 2:
            raise PreconditionViolation(
                "p = 2 is excluded: both classification questions are about odd primes"
            )
        if value < 3 or value % 2 == 0 or not is_probable_prime(value):
            raise PreconditionViolation(f"{value} is not an odd prime")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"OddPrime is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.value == other.value if type(other) is OddPrime else NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __reduce__(self):
        return _certified, (self.value,)

    def __repr__(self) -> str:
        return f"OddPrime(value={self.value})"

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def _certified(n: int) -> OddPrime:
    """OddPrime(n) without the primality test, for an odd n that
    primes_in_range has already certified."""
    p = object.__new__(OddPrime)
    object.__setattr__(p, "value", n)
    return p


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        t = (a & -a).bit_length() - 1  # strip every factor 2 in one shift
        if t:
            a >>= t
            if t & 1 and n & 7 in (3, 5):
                result = -result
        if a & n & 2:  # a ≡ n ≡ 3 (mod 4)
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def legendre(a: int, p: OddPrime) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1}; a may be any integer."""
    return _jacobi(a, p.value)


def _sqrt_mod_int(a: int, p: int, sylow: tuple[int, int, int] | None = None) -> int | None:
    """sqrt_mod on ints, by Tonelli-Shanks on sylow = _two_sylow(p) (computed
    here unless the caller has it), which also decides residuosity: a is a
    non-residue iff t = a^q has order 2^m.  For p ≡ 3 (mod 4) (m = 1) the
    root is a^((p+1)/4) and the loop runs at most once, to return None."""
    a %= p
    if a == 0:
        return 0
    q, m, c = sylow or _two_sylow(p)
    x = pow(a, (q - 1) // 2, p)
    t = x * x % p * a % p  # a^q
    x = x * a % p  # a^((q+1)/2)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:  # first round only: later rounds have i < m
            return None
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(x, p - x)


# (g, m, flags) per prime g below 64: flags[p % m] is 1 iff (g/p) = -1 for a prime
# p ≡ 1 (mod 4): (2/p) = -1 iff p ≡ 5 (mod 8), and (g/p) = (p/g) for odd g
_NONRESIDUES = [(2, 8, bytes(m == 5 for m in range(8)))] + [
    (g, g, bytes(m not in squares for m in range(g)))
    for g in _SMALL_PRIMES[1:18] for squares in [{x * x % g for x in range(g // 2 + 1)}]]


def _two_sylow(p: int) -> tuple[int, int, int]:
    """(q, s, c) for an odd prime p: p - 1 = q 2^s, q odd, and c of order 2^s.
    For s = 1, c = -1, a non-residue.  Otherwise c = g^q for the least
    non-residue g, which is prime, so it is read off p mod g in _NONRESIDUES
    up to 61, and past that found by _jacobi on the odd g from 67 on."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    if s == 1:
        return q, 1, p - 1
    for g, m, flags in _NONRESIDUES:
        if flags[p % m]:
            break
    else:
        g = 67
        while _jacobi(g, p) != -1:
            g += 2
    return q, s, pow(g, q, p)


def sqrt_mod(a: int, p: OddPrime) -> int | None:
    """Canonical square root of a mod p: the root in [0, p/2], or None
    when a is a non-residue."""
    return _sqrt_mod_int(a, p.value)


def eighth_root_of_unity(p: OddPrime) -> int:
    """Canonical primitive eighth root of unity mod p (p ≡ 1 mod 8 only):
    the canonical square root of the canonical sqrt(-1)."""
    return split_roots(p).zeta


class SplitRoots(NamedTuple):
    """The canonical roots at a prime p ≡ 1 (mod 8), taken once and shared
    by every symbol and by the delta solve.  Each is the root in [0, p/2]:
    i_img = sqrt(-1), zeta = sqrt(i_img), r = sqrt(1 + i_img) and
    s = sqrt(1 - i_img); r and s are None unless (1+i'/p) = +1."""

    p: int
    i_img: int
    zeta: int
    r: int | None
    s: int | None

    def quartic(self) -> list[int]:
        """The roots of x^4 - 2x^2 + 2 mod p, one per prime above p: [r, p - r,
        s, p - s], or [] when (1+i'/p) = -1 and so (1-i'/p) = -1, as 2 is a square."""
        if self.r is None:
            return []
        return [self.r, self.p - self.r, self.s, self.p - self.s]


def split_roots(p: OddPrime) -> SplitRoots:
    """Every root the classification of p ≡ 1 (mod 8) needs, from one
    quadratic non-residue g: zeta is a power of c = g^q of _two_sylow(p),
    and the same c drives the one Tonelli-Shanks square root r.  classify
    calls it only once (1+i'/p) = +1 is known; the delta suite, on every p.

    With p - 1 = q 2^m, z = c^(2^(m-3)) = g^((p-1)/8) has order 8, so z^2 is
    ±i' (i' the canonical sqrt(-1)), and the square roots of i' are ±z or ±z^3
    (z^6 = -z^2).  (zeta - zeta^3)^2 = i' + 2 - i' = 2 = (1 + i')(1 - i') =
    (r s)^2, so s = ±zeta (1 - i') / r, and as (1 - i') / (1 + i') = -i' and
    r^2 = 1 + i', that is ±zeta i' r = ±zeta^3 r: no square root and no
    inverse of its own."""
    pv = p.value
    if pv % 8 != 1:
        raise PreconditionViolation("eighth roots of unity require p ≡ 1 (mod 8)")
    _, m, c = sylow = _two_sylow(pv)
    z = pow(c, 1 << (m - 3), pv)
    i_img = z * z % pv
    if i_img > pv - i_img:  # z^2 = -i'
        z = z * i_img % pv
        i_img = pv - i_img
    zeta = min(z, pv - z)
    r = _sqrt_mod_int(1 + i_img, pv, sylow)
    if r is None:
        return SplitRoots(pv, i_img, zeta, None, None)
    s = zeta * i_img % pv * r % pv
    return SplitRoots(pv, i_img, zeta, r, min(s, pv - s))
