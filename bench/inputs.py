"""Seeded workload inputs.

Every input is a pure function of (workload, seed) and is built with
sympy, never with congprimes, so the benchmark's expectations do not
depend on the code under test.
"""

from __future__ import annotations

import random

from checks import is_split
from sympy import isprime

ANCHORS = {10**200 + 16737: (3, 2), 10**200 + 28729: (4, 2)}

SCAN_HI = 100_000     # scan-small range is [3, SCAN_HI + jitter]
SCAN_JITTER = 10_000
CLASSIFY_SPLIT = 4    # random split 200-digit primes, besides the two anchors
CLASSIFY_NONSPLIT = 8
WINDOW_PRIMES = 16    # window-200d: consecutive primes past 10^200 ...
WINDOW_SPLIT = 2      # ... of which exactly this many split
WINDOW_OFFSET = 10**7


def scan_range(seed: int) -> tuple[int, int]:
    """The [lo, hi] of both scan-small workloads; they share it so their
    outputs can be compared byte for byte."""
    return 3, SCAN_HI + random.Random(seed).randrange(SCAN_JITTER)


def _random_200_digit_prime(rng: random.Random, want_split: bool) -> int:
    step = 8 if want_split else 2
    n = rng.randrange(10**199, 10**200 - 10**6)
    n += (1 - n) % step  # n ≡ 1 (mod 8) for split candidates, odd otherwise
    while not (isprime(n) and is_split(n) == want_split):
        n += step
    return n


def classify_primes(seed: int) -> list[int]:
    """The two paper anchors, then a fixed number of random split and
    non-split 200-digit primes."""
    rng = random.Random(seed)
    split = [_random_200_digit_prime(rng, True) for _ in range(CLASSIFY_SPLIT)]
    nonsplit = [_random_200_digit_prime(rng, False) for _ in range(CLASSIFY_NONSPLIT)]
    return list(ANCHORS) + split + nonsplit


def window(seed: int) -> tuple[int, int, list[int]]:
    """A window [lo, hi] just past 10^200 that holds exactly WINDOW_PRIMES
    primes, WINDOW_SPLIT of them split, starting at a seeded offset."""
    rng = random.Random(seed)
    n = 10**200 + rng.randrange(WINDOW_OFFSET) | 1
    primes: list[int] = []
    while True:
        if isprime(n):
            primes = (primes + [n])[-WINDOW_PRIMES:]
            if len(primes) == WINDOW_PRIMES and sum(map(is_split, primes)) == WINDOW_SPLIT:
                return primes[0], primes[-1], primes
        n += 2
