import math
import random

import pytest
import sympy

from congprimes import criteria
from congprimes.criteria import (
    Classification,
    CongruentStatus,
    ShaReport,
    SymbolSet,
    classify,
)
from congprimes.errors import ComputeFailed, PreconditionViolation
from congprimes.modmath import (
    OddPrime, _certified, eighth_root_of_unity, legendre, primes_in_range, split_roots, sqrt_mod,
    windows)
from congprimes.quartic import solve_delta
from congprimes.verify import _delta_symbols
from congprimes.walk import classify_chunk


# (p, v, w, status, sha) spot values, each confirmed by the brute-force
# suites in test_acceptance
TABLE = [
    (3, 0, None, "NOT_CONGRUENT", "SHA2_TRIVIAL_KNOWN"),
    (5, 1, None, "CONGRUENT_MONSKY", "SHA2_TRIVIAL_KNOWN"),
    (7, 0, None, "CONGRUENT_MONSKY", "SHA2_TRIVIAL_KNOWN"),
    (11, 0, None, "NOT_CONGRUENT", "SHA2_TRIVIAL_KNOWN"),
    (13, 1, None, "CONGRUENT_MONSKY", "SHA2_TRIVIAL_KNOWN"),
    (17, 2, 1, "NOT_CONGRUENT", "SHA_Z2xZ2"),
    (41, 3, 3, "UNDECIDED", "UNKNOWN"),
    (73, 2, 1, "NOT_CONGRUENT", "SHA_Z2xZ2"),
    (113, 3, 2, "NOT_CONGRUENT", "SHA_Z4xZ4"),
    (257, 4, 3, "UNDECIDED", "UNKNOWN"),
]


@pytest.mark.parametrize("p,v,w,status,sha", TABLE)
def test_classify_spot_values(p, v, w, status, sha):
    c = classify(p)
    assert c.p == p
    assert c.p_mod_16 == p % 16
    assert c.v_level == v
    assert c.w_level == w
    assert c.congruent_status == CongruentStatus(status)
    assert c.sha_report == ShaReport(sha)


def test_accepts_odd_prime_wrapper():
    assert classify(OddPrime(41)) == classify(41)


class Index:
    """An integer that is not an int: it only defines __index__, as the
    integer scalars of array libraries do."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_any_integer_type_classifies_as_its_int():
    for p in (41, 43, 113):  # split, non-split, split with deep symbols
        c = classify(Index(p))
        assert c == classify(p) and type(c.p) is int
        assert type(OddPrime(Index(p)).value) is int
    for bad in (41.0, "41", None):
        with pytest.raises(TypeError):
            classify(bad)


def test_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15, -11):
        with pytest.raises(PreconditionViolation):
            classify(bad)


def test_classify_raises_as_odd_prime_does():
    # classify checks a non-OddPrime as OddPrime does; past 2000 bits the message
    # names n in hex, as decimal fails past int_max_str_digits (4300 by default)
    for x in (-7, 0, 1, 2, 4, 9, 41.0, "41", 10**200 + 1, 10**5000, 10**5000 + 1):
        raised = []
        for make in (OddPrime, classify):
            with pytest.raises((PreconditionViolation, TypeError)) as info:
                make(x)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1], x
        if x == 2:
            assert raised[0][0] is PreconditionViolation
        elif type(x) is int:
            shown = hex(x) if x > 10**4300 else x
            assert raised[0] == (PreconditionViolation, f"{shown} is not an odd prime")


def test_symbols_not_applicable_off_stratum():
    for p in (3, 5, 7, 11, 13, 19, 23, 29, 31, 37):
        c = classify(p)
        assert c.symbols == SymbolSet()


def test_symbols_stop_at_first_negative():
    # chi_1pi = -1 settles the level; the deeper symbols stay 0
    for p in (17, 73, 89, 97):
        c = classify(p)
        if c.symbols.chi_1pi == -1:
            assert c.symbols.chi_alpha_delta == 0
            assert c.symbols.chi_zeta_alpha_delta == 0


def test_deep_symbols_set_when_split():
    for p in (41, 113, 257, 337, 353):
        c = classify(p)
        assert c.symbols.chi_1pi == 1
        assert c.symbols.chi_alpha_delta in (-1, 1)
        assert c.symbols.chi_zeta_alpha_delta in (-1, 1)


def test_chi_1pi_both_sqrt_choices():
    # the defining symbol is insensitive to which sqrt(-1) is used
    for p in primes_in_range(17, 3000):
        if p % 8 != 1:
            continue
        P = OddPrime(p)
        i1 = sqrt_mod(-1, P)
        assert legendre(1 + i1, P) == legendre(1 + (p - i1), P)


def test_v_levels_partition_small_range():
    seen = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    for p in primes_in_range(3, 3000):
        c = classify(p)
        seen[c.v_level] += 1
        if p % 4 == 3:
            assert c.v_level == 0
        elif p % 8 == 5:
            assert c.v_level == 1
        else:
            assert c.v_level >= 2
    assert all(seen[v] > 0 for v in seen)


def test_classification_is_frozen():
    c = classify(17)
    with pytest.raises(AttributeError):
        c.v_level = 0
    with pytest.raises(AttributeError):
        c.symbols.chi_1pi = 1


def test_inert_prime_has_only_chi_1pi():
    c = classify(17)  # (1+i'/17) = -1
    assert c.symbols == SymbolSet(chi_1pi=-1) == (-1, 0, 0)


def test_classification_repr_and_hash():
    # the reprs the frozen dataclasses printed before the records became tuples
    assert repr(classify(17)) == (
        "Classification(p=17, p_mod_16=1, v_level=2, w_level=1, symbols=SymbolSet("
        "chi_1pi=-1, chi_alpha_delta=0, chi_zeta_alpha_delta=0), congruent_status="
        "<CongruentStatus.NOT_CONGRUENT: 'NOT_CONGRUENT'>, sha_report="
        "<ShaReport.SHA_Z2xZ2: 'SHA_Z2xZ2'>)")
    assert repr(classify(41)) == (
        "Classification(p=41, p_mod_16=9, v_level=3, w_level=3, symbols=SymbolSet("
        "chi_1pi=1, chi_alpha_delta=-1, chi_zeta_alpha_delta=1), congruent_status="
        "<CongruentStatus.UNDECIDED: 'UNDECIDED'>, sha_report=<ShaReport.UNKNOWN: 'UNKNOWN'>)")
    assert hash(classify(41)) == hash(classify(41))
    assert len({classify(41), classify(41), classify(17)}) == 2


SPLIT_CHECK_PRIMES = [p for p in primes_in_range(3, 200_000) if p % 8 == 1]
ANCHORS = [10**200 + 16737, 10**200 + 28729]


@pytest.mark.parametrize("ps,n_split", [(SPLIT_CHECK_PRIMES, 2220), (ANCHORS, 2)],
                         ids=["below-2e5", "200-digit-anchors"])
def test_integer_symbols_match_the_quartic_objects(ps, n_split):
    # classify reads delta's coordinate a at r; verify._delta_symbols takes
    # every admissible root, embed and both eighth roots of unity
    split = 0
    for p in ps:
        P = OddPrime(p)
        if p % 8 != 1 or (roots := split_roots(P)).r is None:
            continue
        split += 1
        want = _delta_symbols(solve_delta(P), P, roots.quartic(), eighth_root_of_unity(P))
        c = classify(P)
        assert want == {(c.symbols.chi_alpha_delta, c.symbols.chi_zeta_alpha_delta)}, p
        assert c.symbols.chi_1pi == 1
    assert split == n_split


def test_chi_1pi_is_the_legendre_symbol_of_1_plus_i():
    for p in SPLIT_CHECK_PRIMES:
        P = OddPrime(p)
        assert classify(P).symbols.chi_1pi == legendre(1 + sqrt_mod(-1, P), P), p


def test_a_root_that_fails_its_check_raises_compute_failed(monkeypatch):
    P = OddPrime(41)
    true = split_roots(P)
    ar, ai, br, bi = solve_delta(P, true)
    # a shifted r reaches the symbol step, while solve_delta gets the true roots
    monkeypatch.setattr(criteria, "split_roots", lambda P: true._replace(r=true.r + 1))
    monkeypatch.setattr(criteria, "solve_delta", lambda P, roots: solve_delta(P, true))
    with pytest.raises(ComputeFailed, match="delta does not certify the symbols at r"):
        classify(41)
    # the conjugate a - b*alpha has relative norm p too, but lies in the other
    # pair of primes, so it does not vanish at r
    monkeypatch.setattr(criteria, "split_roots", lambda P: true)
    monkeypatch.setattr(criteria, "solve_delta", lambda P, roots: (ar, ai, -br, -bi))
    with pytest.raises(ComputeFailed, match="delta does not certify the symbols at r"):
        classify(41)


_ODD_PRIMORIAL = sympy.primorial(300) // 2  # the odd primes below 2000


def _large_primes_1_mod_8(seed, count):
    """count sympy primes ≡ 1 (mod 8) of 50 to 300 digits, from a seeded draw."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.randrange(10**(rng.randrange(49, 300))) | 1
        n += (1 - n) % 8
        while math.gcd(n, _ODD_PRIMORIAL) != 1 or not sympy.isprime(n):
            n += 8
        out.append(n)
    return out


@pytest.mark.parametrize("source", ["below-1e5", "50-to-300-digits"])
def test_the_pow_settles_chi_1pi_as_split_roots_does(monkeypatch, source):
    # with split_roots stubbed to say inert, a p the pow calls inert returns
    # (-1, 0, 0) before the stub, and one it calls split reaches the stub,
    # which the symbol step refuses as a disagreement
    ps = ([p for p in primes_in_range(3, 100_000) if p % 8 == 1] if source == "below-1e5"
          else _large_primes_1_mod_8(seed=21, count=24))
    real = split_roots
    monkeypatch.setattr(criteria, "split_roots", lambda P: real(P)._replace(r=None, s=None))
    inert = 0
    for p in ps:
        P = _certified(p)
        if real(P).r is None:
            inert += 1
            assert criteria._symbols(p) == (-1, 0, 0), p
        else:
            with pytest.raises(ComputeFailed, match="disagree"):
                criteria._symbols(p)
    assert 0 < inert < len(ps)


SPLIT_PATH = ("split_roots", "solve_delta", "legendre")


def _count_split_path(monkeypatch):
    """Count the calls classify makes through criteria's names of the split
    path, the names that tests patch and the bench's tracer wraps."""
    calls = dict.fromkeys(SPLIT_PATH, 0)
    for name in SPLIT_PATH:
        def spy(*args, name=name, real=getattr(criteria, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(criteria, name, spy)
    return calls


def test_a_split_prime_calls_the_split_path_once_and_no_other_prime_does(monkeypatch):
    calls = _count_split_path(monkeypatch)
    shapes = set()
    for p in primes_in_range(3, 3000) + [10**200 + 16737, 10**200 + 28729]:
        P = _certified(p)  # sieved, or a 200-digit anchor
        split = p % 8 == 1 and split_roots(P).r is not None
        for arg in (p, P):
            calls.update(dict.fromkeys(SPLIT_PATH, 0))
            assert (classify(arg).symbols.chi_1pi == 1) == split, p
            assert calls == dict.fromkeys(SPLIT_PATH, int(split)), (p, arg)
        shapes.add((p % 8, split))
    assert shapes == {(1, True), (1, False), (3, False), (5, False), (7, False)}


def _count_odd_primes(monkeypatch):
    """The values that criteria._certified and OddPrime.__init__ are given."""
    built, tested = [], []

    def certified(n, real=_certified):
        built.append(n)
        return real(n)

    def init(self, value, real=OddPrime.__init__):
        tested.append(value)
        real(self, value)

    monkeypatch.setattr(criteria, "_certified", certified)
    monkeypatch.setattr(OddPrime, "__init__", init)
    return built, tested


def _split(ps):
    return [p for p in ps if p % 8 == 1 and split_roots(_certified(p)).r is not None]


def test_classify_chunk_builds_an_odd_prime_only_for_a_split_prime(monkeypatch):
    # one _certified per completely split prime, in order, and no OddPrime(n)
    # with its primality test; the split path runs once per split prime
    split = _split(primes_in_range(3, 30000))
    calls = _count_split_path(monkeypatch)
    built, tested = _count_odd_primes(monkeypatch)
    for lo, hi in windows(3, 30000):
        classify_chunk(None, lo, hi)
    assert built == split and tested == []
    assert calls == dict.fromkeys(SPLIT_PATH, len(split))


def test_classify_of_an_int_builds_an_odd_prime_only_for_a_split_prime(monkeypatch):
    # classify(p) answers as classify(OddPrime(p)) without OddPrime(p): only
    # a split p gets an OddPrime, the one _certified of the split path
    ps = primes_in_range(3, 30000) + [10**200 + 16737, 10**200 + 28729]
    want = [classify(OddPrime(p)) for p in ps]
    split = _split(ps)
    built, tested = _count_odd_primes(monkeypatch)
    assert [classify(p) for p in ps] == want
    assert built == split and tested == []


@pytest.mark.parametrize("n", [33, 65, 3 * 11 * 17 * 41, (2**61 - 1) * (2**89 - 1)])
def test_a_composite_1_mod_8_raises_compute_failed(n):
    assert n % 8 == 1
    with pytest.raises(ComputeFailed, match="is not prime"):
        classify(_certified(n))


def test_split_roots_that_finds_no_root_at_a_split_prime_raises(monkeypatch):
    true = split_roots(OddPrime(41))  # (1+i'/41) = +1
    monkeypatch.setattr(criteria, "split_roots", lambda P: true._replace(r=None, s=None))
    with pytest.raises(ComputeFailed, match="disagree on"):
        classify(41)
