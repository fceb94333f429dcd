"""Verification suites: every fast criterion in the package recomputed
against an independent route.

Each suite walks a range (or a seeded random family), compares the
symbol-based classification with brute-force oracles or with alternate
derivations, and reports the first counterexample if any.  The range
suites, level_counts and paper-check walk their range through walk.walk
with one worker, and no suite tests a prime that the sieve certified again.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .criteria import V_CEILING, Classification, CongruentStatus, ShaReport, classify
from .els import cover, lemma_symbol_prediction, locally_solvable_at_p
from .errors import ComputeFailed, PreconditionViolation
from .gaussian import _i_image, _mul, gi_symbol, primary_associate, two_squares
from .modmath import (
    OddPrime,
    _certified,
    eighth_root_of_unity,
    is_probable_prime,
    legendre,
    primes_in_range,
    split_roots,
    sqrt_mod,
)
from .oracles import class_number, delta_box_search, r3, rep_x2_32y2, tunnell_a
from .quartic import _relative_norm, _times_unit, embed, solve_delta
from .walk import DEFAULT_LIMITS, Counts, density_lines, walk  # density_lines for test_acceptance

# The acceptance tests import this name.  It is classify itself, uncached:
# no walk classifies a prime twice, and a cache would grow with the range.
_classify = classify


class SuiteResult(NamedTuple):
    checked: int
    lines: Sequence[str] = ()
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _fail(checked: int, counterexample: str) -> SuiteResult:
    return SuiteResult(checked, counterexample=counterexample)


# ---------------------------------------------------------------- ranges

def _certified_primes(lo: int, hi: int, m: int = 2, r: int = 1) -> Iterator[OddPrime]:
    """The odd primes of [lo, hi] that are r mod m, as OddPrimes that
    primes_in_range has certified, so no walk tests one again; [lo, hi]
    is sieved in the windows of a one-worker walk."""
    for ps in walk(primes_in_range, lo, hi):
        for p in ps:
            if p % m == r:
                yield _certified(p)


def _range_suite(primes: Iterable, check: Callable[..., str | None], line: str) -> SuiteResult:
    """check each of primes in turn: the first counterexample check names,
    with the number of primes that passed before it, or a pass whose line
    is that number followed by line."""
    checked = 0
    for P in primes:
        if err := check(P):
            return _fail(checked, err)
        checked += 1
    return SuiteResult(checked, [f"{checked} {line}"])


# ---------------------------------------------------------------- suites

def run_class_numbers(limit: int, seed: int = 0) -> SuiteResult:
    """v_level equals min(v2(h(-4p)), 4) for every p ≡ 1 mod 4 below limit."""
    bound = max(limit, 10**6)

    def check(P: OddPrime) -> str | None:
        h, v = class_number(P, bound=bound), classify(P).v_level
        v2 = (h & -h).bit_length() - 1
        return f"p={P}: v_level={v} but h(-4p)={h} has v2={v2}" if min(v2, V_CEILING) != v else None

    return _range_suite(_certified_primes(3, limit - 1, 4, 1), check,
                        f"primes ≡ 1 mod 4 below {limit}: "
                        "v_level matches the form-count 2-valuation")


def run_three_squares(limit: int, seed: int = 0) -> SuiteResult:
    """r3(p) = 12 h(-4p) for every p ≡ 1 mod 4 below limit."""
    bound = max(limit, 10**6)

    def check(P: OddPrime) -> str | None:
        r, h = r3(P.value, bound=bound), class_number(P, bound=bound)
        return f"p={P}: r3={r}, 12h={12 * h}" if r != 12 * h else None

    return _range_suite(_certified_primes(3, limit - 1, 4, 1), check, "primes: r3(p) = 12 h(-4p)")


def run_tunnell(limit: int, seed: int = 0) -> SuiteResult:
    """Soft consistency of w_level with the theta-series coefficients a_p.

    Under the standard full conjecture #Sha = a_p^2/4, w_level 1 forces
    a_p ≡ 4 mod 8 and w_level 2 forces a_p ≡ 8 mod 16.  Agreement is
    reported, not asserted; the only hard check is a_41 = 0, which the
    congruent-number status of 41 requires unconditionally.
    """
    a41 = tunnell_a(41)
    if a41 != 0:
        return _fail(0, f"a_41 = {a41}, expected 0")
    stats = {1: [0, 0], 2: [0, 0]}
    bound = max(limit, 10**6)
    for P in _certified_primes(17, limit - 1, 8, 1):
        w = classify(P).w_level
        if w not in (1, 2):
            continue
        a = tunnell_a(P.value, bound=bound)
        hit = (a % 8 == 4) if w == 1 else (a % 16 == 8)
        stats[w][0] += 1
        stats[w][1] += hit
    lines = ["a_41 = 0 (hard check passed)"]
    for w, residue in ((1, "4 mod 8"), (2, "8 mod 16")):
        total, ok = stats[w]
        pct = 100.0 * ok / total if total else 100.0
        lines.append(f"w_level {w} => a_p ≡ {residue}: {ok}/{total} agree "
                     f"({pct:.1f}%, reported only)")
    checked = 1 + stats[1][0] + stats[2][0]
    return SuiteResult(checked, lines)


def run_els(limit: int, seed: int = 0) -> SuiteResult:
    """Both quartic covers: root existence mod p, the symbol prediction,
    and chi_1pi all coincide; plus legendre(1+sqrt2) = legendre(1+i)."""
    def check(P: OddPrime) -> str | None:
        p = P.value
        chi = legendre(1 + sqrt_mod(-1, P), P)
        expected = chi == 1
        for label in ("D1", "D2"):
            c = cover(label, P)
            root = locally_solvable_at_p(c)
            sym = lemma_symbol_prediction(c)
            if root != expected or sym != expected:
                return f"p={p} {label}: root={root}, symbol={sym}, chi_1pi={chi}"
        s2 = sqrt_mod(2, P)
        if legendre(1 + s2, P) != chi or legendre(1 + (p - s2), P) != chi:
            return f"p={p}: (1+sqrt2 | p) != (1+i | p)"
        return None

    return _range_suite(_certified_primes(17, limit - 1, 8, 1), check,
                        f"primes ≡ 1 mod 8 below {limit}: "
                        "cover solvability = symbol prediction = chi_1pi")


def _delta_symbols(delta, P: OddPrime, roots: list[int], z: int) -> set[tuple[int, int]]:
    """Both symbols of delta = (a.re, a.im, b.re, b.im) at each admissible root
    (delta nonzero there) and both signs of z; ComputeFailed unless two roots are."""
    p = P.value
    values = [(r, e) for r in roots if (e := embed(delta, P, r))]
    if len(values) != 2:
        raise ComputeFailed(f"p={p}: {len(values)} admissible primes")
    return {(legendre(r * e, P), legendre(zz * r * e, P)) for r, e in values for zz in (z, p - z)}


DELTA_BOX_LIMIT = 2000  # run_delta box-searches delta below this p


def _times_epsilon(x: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """x * epsilon, epsilon = i (1 + alpha)^2, a unit of relative norm
    -(-i)^2 = 1: each coordinate pair (re, im) goes to (-im, re) under i."""
    x0r, x0i, x1r, x1i = _times_unit(*_times_unit(*x))
    return -x0i, x0r, -x1i, x1r


def run_delta(limit: int, seed: int = 0, extra: tuple[int, ...] = ()) -> SuiteResult:
    """solve_delta certificates and choice-independence of the symbols.

    For every completely split p below limit (plus any extra split primes
    given, each certified by OddPrime), with the roots at p taken once: the
    solver's certificate validates, and the two symbols agree across both
    admissible primes, both eighth-root signs, the multiples of delta by
    epsilon and epsilon^2 (epsilon = i (1 + alpha)^2), -delta, and (below
    DELTA_BOX_LIMIT) the exhaustive box-search solution; each of these must
    have relative norm exactly p before any symbol is taken.
    """
    def check(split: tuple) -> str | None:
        P, roots = split
        p = P.value
        delta = solve_delta(P, roots)
        delta_eps = _times_epsilon(delta)
        deltas = [delta, delta_eps, tuple(-c for c in delta), _times_epsilon(delta_eps)]
        if p < DELTA_BOX_LIMIT:
            bs = delta_box_search(P, isqrt(4 * p) + 2)
            if bs is None:
                return f"p={p}: box search found nothing"
            deltas.append(bs)
        for x in deltas:
            if (norm := _relative_norm(*x)) != (p, 0):
                return f"p={p}: {x} has relative norm {norm}, not ({p}, 0)"
        try:
            syms = set().union(*(_delta_symbols(d, P, roots.quartic(), roots.zeta) for d in deltas))
        except ComputeFailed as exc:  # a delta without two admissible primes
            return str(exc)
        return f"p={p}: symbol sets differ: {syms}" if len(syms) != 1 else None

    primes = chain(_certified_primes(17, limit - 1, 8, 1), map(OddPrime, extra))
    split = ((P, roots) for P in primes
             if P.value % 8 == 1 and (roots := split_roots(P)).r is not None)
    return _range_suite(split, check, f"split primes below {limit}: "
                        "symbols independent of every admissible choice")


def run_invariants(limit: int, seed: int = 0) -> SuiteResult:
    """Structural laws tying the two level functions together."""
    return _range_suite(_certified_primes(3, limit - 1),
                        lambda P: _check_one_invariant(P, classify(P)),
                        f"primes below {limit}: level chain, "
                        "V(3)=W(2), XOR law, symbol product, x^2+32y^2")


def _check_one_invariant(P: OddPrime, c: Classification) -> str | None:
    """The first law that c, the classification of P, breaks, or None."""
    p, m16 = P.value, c.p_mod_16
    if m16 % 8 != 1:
        if c.w_level is not None:
            return f"p={p}: w_level set off the 1 mod 8 stratum"
        expect_v = 0 if m16 % 4 == 3 else 1
        if c.v_level != expect_v:
            return f"p={p}: v_level={c.v_level}, residue forces {expect_v}"
        return None
    if c.v_level < 2 or c.w_level is None or c.w_level < 1:
        return f"p={p}: levels below the genus-theory floor"
    # V(3) = W(2)
    if (c.v_level >= 3) != (c.w_level >= 2):
        return f"p={p}: v={c.v_level} but w={c.w_level}"
    if c.v_level >= 3:
        v4 = c.v_level == 4
        w3 = c.w_level == 3
        if m16 == 9 and not (v4 ^ w3):
            return f"p={p} ≡ 9 mod 16: v4={v4}, w3={w3} (must differ)"
        if m16 == 1 and v4 != w3:
            return f"p={p} ≡ 1 mod 16: v4={v4}, w3={w3} (must agree)"
        z = eighth_root_of_unity(P)
        s = c.symbols
        if s.chi_zeta_alpha_delta != s.chi_alpha_delta * legendre(z, P):
            return f"p={p}: symbol product broken"
        if legendre(z, P) != (1 if m16 == 1 else -1):
            return f"p={p}: (zeta | p) != mod-16 prediction"
    if (c.v_level >= 3) != rep_x2_32y2(P):
        return f"p={p}: x^2+32y^2 representability mismatch"
    return _check_status(c)


def _check_status(c: Classification) -> str | None:
    m8 = c.p_mod_16 % 8
    if m8 in (5, 7):
        want = (CongruentStatus.CONGRUENT_MONSKY, ShaReport.SHA2_TRIVIAL_KNOWN)
    elif m8 == 3:
        want = (CongruentStatus.NOT_CONGRUENT, ShaReport.SHA2_TRIVIAL_KNOWN)
    elif c.w_level == 1:
        want = (CongruentStatus.NOT_CONGRUENT, ShaReport.SHA_Z2xZ2)
    elif c.w_level == 2:
        want = (CongruentStatus.NOT_CONGRUENT, ShaReport.SHA_Z4xZ4)
    else:
        want = (CongruentStatus.UNDECIDED, ShaReport.UNKNOWN)
    if (c.congruent_status, c.sha_report) != want:
        return f"p={c.p}: status {c.congruent_status}/{c.sha_report}, expected {want}"
    return None


# ------------------------------------------------- random lemma instances

def _rational_instance(rng: random.Random):
    """Random (p, x, y, D) with x^2 - D y^2 = p a prime ≡ 1 mod 8 and p ∤ D:
    x, y and D are drawn, and kept once x^2 - D y^2 is such a prime."""
    while True:
        x, y, D = rng.randrange(-999, 1000), rng.randrange(-31, 32), rng.randrange(-999, 1000)
        p = x * x - D * y * y
        if p > 1 and p % 8 == 1 and D % p and is_probable_prime(p):
            return p, x, y, D


def _gaussian_prime(q: int, rng: random.Random) -> tuple[int, int]:
    u, v = two_squares(OddPrime(q))
    return primary_associate((u, -v) if rng.getrandbits(1) else (u, v))


def _gaussian_instance(rng: random.Random):
    """Random (pi, x, y, D) over Z[i], as (re, im) pairs, with
    x^2 - D y^2 = pi, pi ∤ D, pi ≡ 1 mod 2Z[i] of prime norm ≡ 1 mod 8 with
    (1+i | pi) = 1: x, y and D are drawn, and kept once pi is such a prime."""
    def draw(bound: int) -> tuple[int, int]:
        return rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1)

    while True:
        x, y, D = draw(30), draw(10), draw(10)
        xx, dyy = _mul(x, x), _mul(D, _mul(y, y))
        pi = xx[0] - dyy[0], xx[1] - dyy[1]
        p = pi[0] * pi[0] + pi[1] * pi[1]
        if (pi[1] % 2 == 0 and p % 8 == 1 and is_probable_prime(p) and gi_symbol((1, 1), pi) == 1
                and (D[0] + D[1] * _i_image(pi, p)) % p):
            return pi, x, y, D


def run_lemmas(limit: int, seed: int = 1) -> SuiteResult:
    """Seeded property suites for the two norm-form residue lemmas and
    for quadratic reciprocity in Z[i].

    Rational form: x^2 - D y^2 = p ≡ 1 mod 8, p ∤ D; then for each square
    root a of D mod p, either p | x + a y or (a(x + a y) | p) = +1.
    The Z[i] form is the same statement modulo a prime pi ≡ 1 mod 2Z[i]
    of norm ≡ 1 mod 8 with (1+i | pi) = +1.
    """
    rng = random.Random(seed)
    checked = 0
    for _ in range(limit):
        p, x, y, D = _rational_instance(rng)
        P = _certified(p)
        a0 = sqrt_mod(D, P)
        if a0 is None:
            return _fail(checked, f"rational p={p}: D={D} not a square")
        for a in (a0, p - a0):
            t = (x + a * y) % p
            if t and legendre(a * t, P) != 1:
                return _fail(checked, f"rational p={p} x={x} y={y} D={D} a={a}")
        checked += 1

    for _ in range(limit):
        pi, x, y, D = _gaussian_instance(rng)
        p = pi[0] * pi[0] + pi[1] * pi[1]
        P = _certified(p)
        i_img = _i_image(pi, p)
        d_res = (D[0] + D[1] * i_img) % p
        a0 = sqrt_mod(d_res, P)
        if a0 is None:
            return _fail(checked, f"pi={pi}: D={D} not a square")
        for a in (a0, p - a0):
            gr, gi = x[0] + y[0] * a, x[1] + y[1] * a  # x + a y
            if (gr + gi * i_img) % p == 0:
                continue
            if gi_symbol((gr * a, gi * a), pi) != 1:
                return _fail(checked, f"pi={pi} x={x} y={y} D={D} a={a}")
        checked += 1

    reciprocity_pool = [q for q in primes_in_range(5, 20000) if q % 4 == 1]
    for _ in range(limit):
        q1, q2 = rng.sample(reciprocity_pool, 2)
        lam = _gaussian_prime(q1, rng)
        pi = _gaussian_prime(q2, rng)
        if rng.getrandbits(1):
            lam = -lam[0], -lam[1]
        if rng.getrandbits(1):
            pi = -pi[0], -pi[1]
        if gi_symbol(lam, pi) != gi_symbol(pi, lam):
            return _fail(checked, f"reciprocity: lam={lam}, pi={pi}")
        checked += 1

    return SuiteResult(checked, [f"{limit} rational instances, {limit} Z[i] "
                                 f"instances, {limit} reciprocity pairs: clean"])


# the suites by name, each run_<name with "_" for "-">, in DEFAULT_LIMITS's order
SUITES = {name: globals()[f"run_{name.replace('-', '_')}"] for name in DEFAULT_LIMITS}


def run_suite(suite: str, limit: int | None = None, seed: int = 1) -> SuiteResult:
    if suite not in SUITES:
        raise PreconditionViolation(f"unknown suite {suite!r}; "
                                    f"choose from {sorted(SUITES)}")
    return SUITES[suite](DEFAULT_LIMITS[suite] if limit is None else limit, seed)


# ---------------------------------------------------------- paper checks

REFERENCE_BASE = 10**200
REFERENCE_OFFSETS = {16737: (3, 2), 28729: (4, 2)}


def run_reference_scan() -> SuiteResult:
    """Reproduce the two headline 200-digit classifications and their
    minimality, plus the w_level of 41."""
    lines = []
    c41 = classify(41)
    if (c41.v_level, c41.w_level) != (3, 3) or c41.symbols.chi_zeta_alpha_delta != 1:
        return _fail(1, f"p=41 classified as {c41}")
    lines.append("p=41: v_level 3, w_level 3 (chi_zeta_alpha_delta = +1)")

    firsts: dict[tuple[int, int], Classification] = {}
    checked = 1
    for P in _certified_primes(REFERENCE_BASE + 1, REFERENCE_BASE + 28729):
        c = classify(P)
        firsts.setdefault((c.v_level, c.w_level), c)
        checked += 1
    for offset, pattern in REFERENCE_OFFSETS.items():
        target = REFERENCE_BASE + offset
        c = firsts.get(pattern)
        hit = c.p if c else None
        if hit != target:
            return _fail(checked,
                         f"first prime past 10^200 with (v,w)={pattern} is "
                         f"{hit}, expected 10^200+{offset}")
        if c.congruent_status is not CongruentStatus.NOT_CONGRUENT:
            return _fail(checked, f"10^200+{offset}: status {c.congruent_status}")
        lines.append(f"10^200+{offset}: first prime past 10^200 with "
                     f"v_level {pattern[0]}, w_level {pattern[1]}; NOT_CONGRUENT")
    return SuiteResult(checked, lines)


def level_counts(lo: int, hi: int) -> Counts:
    """(v_level, w_level) histogram over odd primes in [lo, hi], classified
    one by one; raises ComputeFailed if one of them fails to classify."""
    return Counter((c.v_level, c.w_level) for c in map(classify, _certified_primes(lo, hi)))
