"""Spans recorded from outside the package, and the per-layer numbers
derived from them.

install() wraps public functions of congprimes at every module-level name
that refers to them (a function imported into several modules is wrapped
in each), plus three class attributes and multiprocessing's Pool.map,
and returns a function that puts the originals back.  Each call becomes a span [name, start_ns, end_ns, parent, tag] held in
memory.  per_layer() turns the spans of one or more passes into the
metrics that BENCHMARK.json lists under per_layer.
"""

from __future__ import annotations

import functools
import multiprocessing.pool
import statistics
import sys
import time

# (module, name) pairs to wrap; names missing from the package are skipped,
# so the benchmark still runs after a layer is removed or renamed.
FUNCTIONS = (
    ("modmath", "primes_in_range"),
    ("modmath", "is_probable_prime"),
    ("modmath", "sqrt_mod"),
    ("modmath", "quartic_roots"),
    ("modmath", "eighth_root_of_unity"),
    ("modmath", "legendre"),
    ("quartic", "solve_delta"),
    ("quartic", "build_ideal"),
    ("quartic", "lll_reduce"),
    ("quartic", "primes_above"),
    ("quartic", "embed"),
    ("criteria", "classify"),
    ("cli", "main"),
)
METHODS = (
    ("modmath", "OddPrime", "__post_init__", "modmath.OddPrime"),
    ("cli", "ScanRow", "from_classification", "cli.ScanRow.from_classification"),
    ("cli", "ScanRow", "csv_line", "cli.ScanRow.csv_line"),
)
ROOT_CALLS = ("modmath.sqrt_mod", "modmath.quartic_roots", "modmath.eighth_root_of_unity")
RENDER = ("cli.ScanRow.from_classification", "cli.ScanRow.csv_line")

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._certified: set[int] = set()

    def reset(self) -> list[list]:
        """Start a new pass; returns the spans of the previous one."""
        spans, self.spans, self._certified = self.spans, [], set()
        return spans

    def wrap(self, name: str, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_ = self._open
            span = [name, 0, 0, open_[-1] if open_ else -1, None]
            open_.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                open_.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result

        return traced

    def _repeat_tag(self, args, result):
        """True when n was already certified prime earlier in this pass."""
        n = args[0]
        repeat = n in self._certified
        if result:
            self._certified.add(n)
        return repeat


def _split_tag(args, result):
    return result.w_level in (2, 3)


def install(tracer: Tracer, package):
    """Wrap every traced name of the imported package; returns a function
    that restores the unwrapped names."""
    tags = {"modmath.is_probable_prime": tracer._repeat_tag,
            "criteria.classify": _split_tag}
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
    saved: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def replace(owner, attr: str, value) -> None:
        saved.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    for mod_name, attr in FUNCTIONS:
        home = sys.modules.get(f"{package.__name__}.{mod_name}")
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        name = f"{mod_name}.{attr}"
        wrapper = tracer.wrap(name, fn, tags.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    replace(mod, key, wrapper)
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"), cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            replace(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            replace(cls, attr, tracer.wrap(name, raw))
    # the parent blocks in Pool.map while pool workers classify
    pool = multiprocessing.pool.Pool
    replace(pool, "map", tracer.wrap("cli.pool.map", pool.map))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap each other)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


def _is_top(spans: list[list], s: list) -> bool:
    """A layer span directly under the pass: a root other than cli.main,
    or a child of a cli.main root."""
    if s[PARENT] < 0:
        return s[NAME] != "cli.main"
    parent = spans[s[PARENT]]
    return parent[PARENT] < 0 and parent[NAME] == "cli.main"


def _ms(ns: float) -> float:
    return ns / 1e6


def per_layer(passes: list[dict], untraced_wall_ns: list[float],
              imports: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged over traced passes, as name -> (value, unit).

    Each pass is {"spans": [...], "scale": f, "norm_wall_ns": w}; a span
    time t counts as t * f, the pass's factor to nominal machine speed,
    and w is the pass's wall time at nominal speed.  untraced_wall_ns are
    the nominal-speed wall times of the untraced passes run before,
    between and after the traced ones.  Each traced pass is set against
    the mean u of its two untraced neighbours, which cancels the
    machine's drift to first order.  trace.overhead is the median of
    w / u, and trace.coverage the median of the pass's time in top-level
    spans over u.  imports holds the median import_ms and import_modules
    of fresh interpreters."""
    k = len(passes)
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    split_ms, nonsplit_ms = [], []
    classify_self = cli_self = repeats = roots_in_split = 0
    n_split = 0
    top_ns: list[float] = []  # per pass
    for traced_pass in passes:
        spans, scale = traced_pass["spans"], traced_pass["scale"]
        selfs = [t * scale for t in self_times(spans)]
        roots = set()
        top_ns.append(0)
        for i, s in enumerate(spans):
            name, dur = s[NAME], (s[END] - s[START]) * scale
            total_ns[name] = total_ns.get(name, 0) + dur
            calls[name] = calls.get(name, 0) + 1
            if _is_top(spans, s):
                top_ns[-1] += dur
            if name == "criteria.classify":
                classify_self += selfs[i]
                (split_ms if s[TAG] else nonsplit_ms).append(_ms(dur))
                n_split += bool(s[TAG])
            elif name == "cli.main":
                cli_self += selfs[i]
            elif name == "modmath.is_probable_prime":
                repeats += bool(s[TAG])
            elif name in ROOT_CALLS:
                roots.add(i)
        for i in roots:
            j = spans[i][PARENT]
            while j >= 0 and spans[j][NAME] != "criteria.classify":
                j = spans[j][PARENT]
            roots_in_split += j >= 0 and bool(spans[j][TAG])

    # the mean wall time of the untraced passes on each side of a traced one
    untraced = [(a + b) / 2 for a, b in zip(untraced_wall_ns, untraced_wall_ns[1:])]

    def ms(name):
        return _ms(total_ns.get(name, 0)) / k

    def per_pass(name):
        return calls.get(name, 0) / k

    def ratio(num, den):
        return num / den if den else 0.0

    def p50(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "modmath.primes_in_range.ms": (ms("modmath.primes_in_range"), "ms"),
        "modmath.is_probable_prime.ms": (ms("modmath.is_probable_prime"), "ms"),
        "modmath.is_probable_prime.calls": (per_pass("modmath.is_probable_prime"), "count"),
        "modmath.is_probable_prime.repeat_calls": (repeats / k, "count"),
        "modmath.OddPrime.ms": (ms("modmath.OddPrime"), "ms"),
        "modmath.root_calls_per_split": (ratio(roots_in_split, n_split), "count"),
        "modmath.legendre.calls": (per_pass("modmath.legendre"), "count"),
        "quartic.solve_delta.ms": (ms("quartic.solve_delta"), "ms"),
        "quartic.solve_delta.calls": (per_pass("quartic.solve_delta"), "count"),
        "quartic.build_ideal.ms": (ms("quartic.build_ideal"), "ms"),
        "quartic.lll_reduce.ms": (ms("quartic.lll_reduce"), "ms"),
        "quartic.lll_reduce.calls_per_solve": (
            ratio(calls.get("quartic.lll_reduce", 0), calls.get("quartic.solve_delta", 0)), "count"),
        "quartic.primes_above.ms": (ms("quartic.primes_above"), "ms"),
        "quartic.embed.calls": (per_pass("quartic.embed"), "count"),
        "criteria.classify.self_ms": (_ms(classify_self) / k, "ms"),
        "criteria.classify.split.ms_p50": (p50(split_ms), "ms"),
        "criteria.classify.nonsplit.ms_p50": (p50(nonsplit_ms), "ms"),
        "cli.render.ms": (sum(ms(n) for n in RENDER), "ms"),
        "cli.pool.wait_ms": (ms("cli.pool.map"), "ms"),
        "cli.scan.other_ms": (_ms(cli_self) / k, "ms"),
        "congprimes.import_ms": (imports["import_ms"], "ms"),
        "congprimes.import_modules": (imports["import_modules"], "count"),
        "trace.coverage": (p50([ratio(t, u) for t, u in zip(top_ns, untraced)]), "ratio"),
        "trace.overhead": (p50([ratio(p["norm_wall_ns"], u) for p, u in zip(passes, untraced)]),
                           "ratio"),
    }
