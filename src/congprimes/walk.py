"""The range walk: walk runs a job on each of modmath.windows of a range,
here or in shard processes; scan, density and verify's range walks use
it.  classify_chunk, the job of `scan` and `density`, sieves a window and
renders each row's tail once per (p mod 16, symbols) class.

This module loads no oracle, so the commands that need speed import it
and not verify.  The suites' names and default limits are kept here, for
the command line, and verify takes its suites by these names.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator

from .criteria import Classification, _classification, _symbols
from .errors import ComputeFailed
from .modmath import Windows, primes_in_range, windows

# each suite of verify, run_<name with "_" for "-">, and its default --limit
DEFAULT_LIMITS = {
    "class-numbers": 20000,
    "three-squares": 20000,
    "tunnell": 20000,
    "lemmas": 1000,
    "els": 100000,
    "delta": 10000,
    "invariants": 100000,
}


def _cpus() -> list[int]:
    """The CPUs this process may run on, in order; the machine's where it keeps no CPU set."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pool_size(workers: int) -> int:
    """Processes to start for a requested worker count: at most one per usable CPU."""
    return min(workers, len(_cpus()))


def _pin(cpus) -> None:
    """Run this process on cpus only, where the OS lets it; otherwise leave it as it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no such call here, or none of cpus usable
        pass


def _shard(job: Callable[[int, int], object], spans: Windows, writer, cpu: int) -> None:
    """A shard process, on CPU cpu where it may: send job(a, b) for each of
    its windows, or what stopped it, down its pipe."""
    _pin([cpu])
    try:
        for a, b in spans:
            writer.send(job(a, b))
    except Exception as exc:  # raised by the walk, with this traceback as its cause
        from multiprocessing.pool import ExceptionWithTraceback
        writer.send(ExceptionWithTraceback(exc, exc.__traceback__))


def walk(job: Callable[[int, int], object], lo: int, hi: int, workers: int = 1) -> Iterator:
    """job(a, b) on each window (a, b) of modmath.windows(lo, hi, processes), in
    order.  Given W workers, CPUs and windows, this process runs window i when W
    divides i; otherwise shard i mod W, one of W - 1 shard processes started by
    the walk and ended with it, runs it and sends the result down its pipe.  A
    shard that dies raises ComputeFailed; what a shard raises is raised here.
    Past one worker, shard w runs on the w-th of this process's CPUs, and this
    process on the first until the walk ends; a one-worker walk pins nothing."""
    processes = _pool_size(workers)
    spans = windows(lo, hi, processes)
    workers = len(spans[:processes])  # len(spans) overflows past sys.maxsize windows
    shards, cpus = [], None
    try:
        if workers > 1:  # imported here only: no one-worker walk or command start-up loads it
            import multiprocessing
            from multiprocessing.connection import wait
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            cpus = _cpus()  # fewer than workers only if the set shrank since _pool_size
            for w in range(1, workers):
                reader, writer = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_shard, name=f"worker {w + 1}", daemon=True,
                                   args=(job, spans[w::workers], writer, cpus[w % len(cpus)]))
                proc.start()
                writer.close()  # the shard's is then the only write end
                shards.append((proc, reader))
            _pin(cpus[:1])  # after the starts: a forked shard would inherit it
        for i, (a, b) in enumerate(spans):
            if i % workers == 0:
                yield job(a, b)
                continue
            proc, reader = shards[i % workers - 1]
            wait([reader, proc.sentinel])  # no EOF if another process holds a write end
            try:  # nothing to read, or EOF: the shard died, maybe mid-message
                if not reader.poll():
                    raise EOFError
                result = reader.recv()
            except (EOFError, OSError):
                proc.join()
                raise ComputeFailed(f"{proc.name} exited with code {proc.exitcode}") from None
            if isinstance(result, Exception):
                raise result  # as window i would raise in this process
            yield result
    finally:
        if cpus is not None:
            _pin(cpus)
        for proc, reader in shards:
            proc.terminate()
            proc.join()
            reader.close()


Counts = dict[tuple[int, int | None], int]
ChunkResult = tuple[str, Counts, list[tuple[int, str]]]


def classify_chunk(render: tuple[str, Callable[[Classification], str]] | None,
                   lo: int, hi: int) -> ChunkResult:
    """Sieve the odd primes of the window [max(lo, 3), hi] and classify
    them: their lines ("" when render is None), the count per (v_level,
    w_level), and the failed primes as (p, message).  render is (head,
    line): head % p starts line(c), and the rest of the line depends on p
    only through p mod 16 and the symbols, so it is rendered once per such
    class of the window, from the one Classification built for it.  A prime
    p ≢ 1 (mod 8) is settled by p mod 16 alone, so only the symbols of the
    first of each such class are taken; those of every p ≡ 1 (mod 8) are."""
    lines, classes, failures = [], {}, []
    head, line = render or (None, None)
    for n in primes_in_range(max(lo, 3), hi):
        key = n % 16
        cls = classes.get(key)  # None for every p ≡ 1 (mod 8): its key holds symbols
        if cls is None:
            try:
                syms = _symbols(n)
            except ComputeFailed as exc:
                failures.append((n, str(exc)))
                continue
            if n % 8 == 1:
                key = key, syms
                cls = classes.get(key)
            if cls is None:
                c = _classification(n, syms)
                tail = line(c)[len(head % n):] + "\n" if render else ""
                cls = classes[key] = [tail, (c.v_level, c.w_level), 0]
        cls[2] += 1
        if render:
            lines.append(head % n + cls[0])
    counts = {}
    for _, levels, k in classes.values():
        counts[levels] = counts.get(levels, 0) + k
    return "".join(lines), counts, failures


def density_lines(counts: Counts) -> list[str]:
    total = sum(counts.values())
    lines = [f"primes classified: {total}"]
    for (v, w), n in sorted(counts.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        wtxt = "NA" if w is None else str(w)
        lines.append(f"  v_level {v}  w_level {wtxt:>2}: {n}")
    v4 = sum(n for (v, _), n in counts.items() if v == 4)
    v3 = sum(n for (v, _), n in counts.items() if v >= 3)
    lines.append(f"V(4)/V(3) fraction: {v4}/{v3} = {v4 / v3:.4f}" if v3
                 else "V(4)/V(3) fraction: NA (no V(3) primes in range)")
    return lines
