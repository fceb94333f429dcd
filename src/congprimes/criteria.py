"""Classification of odd primes.

v_level grades the 2-part of the class number h(-4p) as certified by
quadratic symbols:

  0: p ≡ 3 (mod 4)            (h odd)
  1: p ≡ 5 (mod 8)            (2 || h)
  2: p ≡ 1 (mod 8), (1+i'/p) = -1        (4 || h)
  3: split, (alpha*delta symbol) = -1    (8 || h)
  4: split, (alpha*delta symbol) = +1    (16 | h; "at least 4")

w_level grades 2-divisibility of the everywhere-locally-solvable descent
classes of y^2 = x^3 - p^2 x, defined only for p ≡ 1 (mod 8):

  1: (1+i'/p) = -1
  2: split, (zeta*alpha*delta symbol) = -1
  3: split, (zeta*alpha*delta symbol) = +1  ("at least 3")

Levels 4 and 3 are ceilings: deeper divisibility is not decided here.

The first symbol needs no square root: (1+i')^2 = 2i' and i'^2 = -1, so
(1+i'/p) = (1+i')^((p-1)/2) = 2^((p-1)/4) (-1)^((p-1)/8), Gauss's quartic
character of 2 up to sign (2 is a quartic residue iff p = x^2 + 64y^2).
The third needs no symbol of its own: zeta has order 8, so it is the
second times (zeta/p) = zeta^((p-1)/2) = (-1)^((p-1)/8).

congruent_status is what the levels settle about the congruent number
question: p ≡ 5, 7 (mod 8) are congruent (Monsky), p ≡ 3 (mod 8) are not,
and for p ≡ 1 (mod 8) levels w = 1, 2 certify NOT congruent (with
Sha(E_p)[2^inf] = (Z/2)^2 resp. (Z/4)^2), while w = 3 stays undecided.

So the levels, the status and the Sha report of p are one row of _RULES,
an eight-row table keyed by p mod 8 and the symbols: one row each for
p ≡ 3, 5, 7 (mod 8) and for (1+i'/p) = -1, and four for a split p, two at
p ≡ 1 and two at p ≡ 9 (mod 16), as the third symbol is tied to the second.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import ComputeFailed, GeneratorNotFound
from .modmath import OddPrime, _certified, _odd_prime, legendre, split_roots
from .quartic import solve_delta


class CongruentStatus(str, enum.Enum):
    CONGRUENT_MONSKY = "CONGRUENT_MONSKY"
    NOT_CONGRUENT = "NOT_CONGRUENT"
    UNDECIDED = "UNDECIDED"


class ShaReport(str, enum.Enum):
    SHA2_TRIVIAL_KNOWN = "SHA2_TRIVIAL_KNOWN"
    SHA_Z2xZ2 = "SHA_Z2xZ2"
    SHA_Z4xZ4 = "SHA_Z4xZ4"
    UNKNOWN = "UNKNOWN"


class SymbolSet(NamedTuple):
    """The three quadratic symbols driving the classification.
    0 means "not applicable at this prime" (keeps tabular output total)."""

    chi_1pi: int = 0
    chi_alpha_delta: int = 0
    chi_zeta_alpha_delta: int = 0


class Classification(NamedTuple):
    p: int
    p_mod_16: int
    v_level: int
    w_level: int | None
    symbols: SymbolSet
    congruent_status: CongruentStatus
    sha_report: ShaReport


V_CEILING = 4  # the deepest v_level and w_level certified: "at least" these
W_CEILING = 3

_NOT_SPLIT = SymbolSet()  # p ≢ 1 (mod 8)
_INERT = SymbolSet(chi_1pi=-1)  # (1+i'/p) = -1
# a split p's symbols by (p mod 16, (alpha*delta/p)); the third is tied to the second
_SPLIT = {(m, chi): SymbolSet(1, chi, chi if m == 1 else -chi) for m in (1, 9) for chi in (-1, 1)}


def _symbols(pv: int) -> SymbolSet:
    """Every applicable symbol at the certified odd prime pv, from the roots
    and delta taken once, on plain ints; only a split pv builds an OddPrime,
    for split_roots and solve_delta.  With A, B the images of delta's a, b
    under i -> i', delta vanishes at r (A + B*r ≡ 0), so at the admissible
    root p - r it is 2A; 2 and -1 are squares mod p, so the symbols are
    (r*A/p) and (zeta*r*A/p) = (r*A/p) (-1)^((p-1)/8): zeta^2 = i' in
    split_roots, and the checks r^2 ≡ 1 + i', r^4 - 2r^2 + 2 ≡ 0 below force
    i'^2 ≡ -1, so zeta^4 ≡ -1.  (1+i'/p) = 2^((p-1)/4) (-1)^((p-1)/8) comes
    first: an inert p costs one pow, and a split p must also get its root r
    from split_roots."""
    if pv % 8 != 1:
        return _NOT_SPLIT
    t = pow(2, pv >> 2, pv)  # 2^((p-1)/4): ±1, as 2 is a square mod p
    if t != 1 and t != pv - 1:
        raise ComputeFailed(f"2^((p-1)/4) is not ±1 mod p, so p = {pv} is not prime")
    if (t == 1) != (pv % 16 == 1):
        return _INERT
    p = _certified(pv)
    roots = split_roots(p)
    r, i_img = roots.r, roots.i_img
    if r is None:
        raise ComputeFailed(f"split_roots and 2^((p-1)/4) disagree on (1+i'/p) at p = {pv}")
    try:
        ar, ai, br, bi = solve_delta(p, roots)
    except GeneratorNotFound as exc:
        raise ComputeFailed(f"could not certify delta for p = {pv}") from exc
    A = (ar + ai * i_img) % pv
    B = br + bi * i_img
    r2 = r * r % pv
    if (r2 * r2 - 2 * r2 + 2) % pv or (r2 - 1 - i_img) % pv or (A + B * r) % pv or not A:
        raise ComputeFailed(f"delta does not certify the symbols at r for p = {pv}")
    return _SPLIT[pv % 16, legendre(r * A, p)]


# (p mod 8, symbols) -> (v_level, w_level, congruent_status, sha_report), the
# rules above stated once; _symbols returns only these eight classes
_RULES: dict[tuple[int, SymbolSet], tuple] = {
    (3, _NOT_SPLIT): (0, None, CongruentStatus.NOT_CONGRUENT, ShaReport.SHA2_TRIVIAL_KNOWN),
    (7, _NOT_SPLIT): (0, None, CongruentStatus.CONGRUENT_MONSKY, ShaReport.SHA2_TRIVIAL_KNOWN),
    (5, _NOT_SPLIT): (1, None, CongruentStatus.CONGRUENT_MONSKY, ShaReport.SHA2_TRIVIAL_KNOWN),
    (1, _INERT): (2, 1, CongruentStatus.NOT_CONGRUENT, ShaReport.SHA_Z2xZ2),
    (1, _SPLIT[1, -1]): (3, 2, CongruentStatus.NOT_CONGRUENT, ShaReport.SHA_Z4xZ4),
    (1, _SPLIT[9, -1]): (3, W_CEILING, CongruentStatus.UNDECIDED, ShaReport.UNKNOWN),
    (1, _SPLIT[9, 1]): (V_CEILING, 2, CongruentStatus.NOT_CONGRUENT, ShaReport.SHA_Z4xZ4),
    (1, _SPLIT[1, 1]): (V_CEILING, W_CEILING, CongruentStatus.UNDECIDED, ShaReport.UNKNOWN),
}


def _classification(pv: int, syms: SymbolSet) -> Classification:
    """The classification of the odd prime pv with symbols syms: the _RULES
    row of its (p mod 8, symbols) class."""
    v, w, status, sha = _RULES[pv % 8, syms]
    # as Classification(...), without its generated __new__'s Python frame
    return tuple.__new__(Classification, (pv, pv % 16, v, w, syms, status, sha))


def classify(p: int | OddPrime) -> Classification:
    """Full classification of one odd prime: its symbols, and its class's rule.
    Any p but an OddPrime gets OddPrime(p)'s checks and errors, but no object."""
    pv = p.value if isinstance(p, OddPrime) else _odd_prime(p)
    return _classification(pv, _symbols(pv))
