"""Two-divisibility of class groups h(-4p) and of locally solvable descent
classes for the congruent number curves y^2 = x^3 - p^2 x, decided by
quadratic symbols at p.

The public surface: classify grades a prime by v_level and w_level, the
quartic module solves the norm equation a^2 - (1+i) b^2 = p that feeds
the deeper symbols, as delta's four integer coordinates (a.re, a.im,
b.re, b.im), the oracles module recounts everything by brute force, and
verify wires the two against each other.

`import congprimes` loads only what classify needs: errors, modmath,
quartic and criteria.  The names from els, gaussian, oracles and verify,
and those four modules themselves, load on first use.
"""

from importlib import import_module

from .criteria import (
    Classification,
    CongruentStatus,
    ShaReport,
    SymbolSet,
    classify,
)
from .errors import (
    BoundExceeded,
    ComputeFailed,
    GeneratorNotFound,
    NotSplitError,
    PreconditionViolation,
)
from .modmath import (
    OddPrime,
    eighth_root_of_unity,
    is_probable_prime,
    legendre,
    primes_in_range,
    sqrt_mod,
)
from .quartic import embed, solve_delta

# public name -> the submodule that defines it, imported on first access
_LAZY = {name: module for module, names in [
    ("els", "COVERS QuarticCover cover lemma_symbol_prediction locally_solvable_at_p"),
    ("gaussian", "gi_symbol primary_associate two_squares"),
    ("oracles", "class_number delta_box_search r3 rep_x2_32y2 tunnell_a"),
    ("verify", "SuiteResult run_reference_scan run_suite"),
] for name in names.split()}


def __getattr__(name: str):
    module = _LAZY.get(name) or (name if name in _LAZY.values() else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f".{module}", __name__)
    value = globals()[name] = home if name == module else getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "COVERS",
    "Classification",
    "ComputeFailed",
    "CongruentStatus",
    "GeneratorNotFound",
    "NotSplitError",
    "OddPrime",
    "PreconditionViolation",
    "QuarticCover",
    "ShaReport",
    "SuiteResult",
    "SymbolSet",
    "class_number",
    "classify",
    "cover",
    "delta_box_search",
    "eighth_root_of_unity",
    "embed",
    "gi_symbol",
    "is_probable_prime",
    "legendre",
    "lemma_symbol_prediction",
    "locally_solvable_at_p",
    "primary_associate",
    "primes_in_range",
    "r3",
    "rep_x2_32y2",
    "run_reference_scan",
    "run_suite",
    "solve_delta",
    "sqrt_mod",
    "tunnell_a",
    "two_squares",
]
