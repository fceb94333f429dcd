"""Property checks at random completely split primes of 100 to 300 digits.

The verify suites walk ranges that end near 10^5; these checks draw split
primes p ≡ 1 (mod 8) far beyond, and run the same routes on each:
run_delta checks the delta certificate and that both symbols are
independent of every admissible choice, classify's two deep symbols
are checked to be the one pair that every admissible prime above p and
both signs of zeta give, and _check_one_invariant checks
the level chain V(3) = W(2), the mod-16 XOR law linking v = 4 to w = 3,
x^2 + 32y^2 representability and the status table.
"""

import random
from math import gcd

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congprimes.criteria import classify
from congprimes.modmath import _certified, split_roots
from congprimes.quartic import solve_delta
from congprimes.verify import _check_one_invariant, _delta_symbols, run_delta

_PRIMES_BELOW_10_4 = sympy.primorial(1229)  # 1229 primes lie below 10^4


def _split_prime(digits: int, seed: int) -> int:
    """The first completely split prime p ≡ 1 (mod 8) from a seeded
    random start with the given number of digits."""
    n = random.Random(seed).randrange(10 ** (digits - 1), 10**digits) // 8 * 8 + 1
    while not (gcd(n, _PRIMES_BELOW_10_4) == 1 and sympy.isprime(n)
               and n % 8 == 1 and split_roots(_certified(n)).r is not None):
        n += 8
    return n


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(digits=st.integers(100, 300), seed=st.integers(0, 2**32 - 1))
@example(digits=300, seed=1)
def test_large_split_prime_passes_the_delta_and_level_checks(digits, seed):
    p = _split_prime(digits, seed)
    result = run_delta(limit=0, extra=(p,))
    assert result.passed and result.checked == 1, result.counterexample
    P = _certified(p)  # sympy.isprime has certified p
    c = classify(P)
    assert c.v_level in (3, 4) and c.w_level in (2, 3)
    # _delta_symbols takes every admissible prime above p and both signs of zeta
    roots = split_roots(P)
    want = _delta_symbols(solve_delta(P), P, roots.quartic(), roots.zeta)
    assert want == {(c.symbols.chi_alpha_delta, c.symbols.chi_zeta_alpha_delta)}
    assert _check_one_invariant(P, c) is None
