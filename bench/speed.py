"""Machine-speed probes.

Each CPU of the host drifts in speed by up to a third over seconds to
minutes, because other tenants share its cores, and interpreted,
allocation-heavy code drifts differently from big-integer arithmetic.  So that runs taken
minutes apart compare, every timing is paired with a fixed reference
task of the same kind, timed just before and just after it, and is
reported at nominal speed:

    normalized = measured * NOMINAL_MS[kind] / reference_ms

A reference reading above nominal means the machine ran slow.  Over a
pass of several seconds, readings just before and after it track the
speed during it poorly, so single-process passes take their readings
inside the pass instead (sampling()).  The reference tasks call nothing
in congprimes, so no change to the program can move them.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import time

_MODULUS = 10**200 + 28729


def _bigint() -> int:
    x = 3
    for _ in range(6):
        x = pow(x, _MODULUS - 1, _MODULUS) + 2
    return x


def _interp() -> list:
    out = []
    for i in range(6000):
        d = {"a": i, "b": (i, i + 1), "c": [i] * 3}
        out.append((d["b"][1] * 7 % 13, str(i)))
    out.sort()
    return out


REFERENCES = {"bigint": _bigint, "interp": _interp}
NOMINAL_MS = {"bigint": 7.0, "interp": 4.5}  # quiet-host readings


def reference_for(primes: list[int]) -> str:
    """The reference that tracks the work on these inputs: 200-digit
    primes spend their time in big-integer arithmetic, small ones in the
    interpreter."""
    return "bigint" if max(primes) >= 2**64 else "interp"


def _median_ms(kind: str) -> float:
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        REFERENCES[kind]()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def probe(kind: str, all_cpus: bool = False) -> float:
    """Median wall time in ms of three runs of the reference task, on the
    CPU this process runs on.  With all_cpus, for work spread over worker
    processes: the mean over the CPUs this process may use of that median
    taken pinned to each; the process's CPU set is restored before
    returning."""
    if not all_cpus:
        return _median_ms(kind)
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_median_ms(kind))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


@contextlib.contextmanager
def sampling(kind: str, every_s: float = 0.25):
    """Run the reference task once every every_s seconds while the block
    runs, in this thread, from a SIGALRM handler.  Yields the list that
    collects (perf_counter at start, wall time in ms) of each run; a run
    lies wholly inside or wholly outside any span the block times, so the
    caller subtracts the runs that start inside it."""
    samples: list[tuple[float, float]] = []

    def sample(signum, frame):
        t0 = time.perf_counter()
        REFERENCES[kind]()
        samples.append((t0, (time.perf_counter() - t0) * 1e3))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def taken_between(samples: list[tuple[float, float]], start: float, end: float) -> list[float]:
    """The ms of the samples that began in [start, end); samples are in
    the order sampling() took them."""
    lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
    hi = bisect.bisect_left(samples, end, key=lambda s: s[0])
    return [ms for _, ms in samples[lo:hi]]


@contextlib.contextmanager
def one_cpu():
    """Keep this process on one CPU, so that single-process work and the
    probes that scale it run on the same CPU; restores the CPU set."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
