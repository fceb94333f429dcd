"""Two-divisibility of class groups h(-4p) and of locally solvable descent
classes for the congruent number curves y^2 = x^3 - p^2 x, decided by
quadratic symbols at p.

The public surface: classify / v_level / w_level grade a prime, the
quartic module solves the norm equation a^2 - (1+i) b^2 = p that feeds
the deeper symbols, as delta's four integer coordinates (a.re, a.im,
b.re, b.im), the oracles module recounts everything by brute force, and
verify wires the two against each other.
"""

from .criteria import (
    Classification,
    CongruentStatus,
    ShaReport,
    SymbolSet,
    classify,
    v_level,
    w_level,
)
from .els import COVERS, QuarticCover, cover, lemma_symbol_prediction, locally_solvable_at_p
from .errors import (
    BoundExceeded,
    ComputeFailed,
    GeneratorNotFound,
    NotSplitError,
    PreconditionViolation,
)
from .gaussian import (
    GaussianInt,
    TwoSquares,
    gi_symbol,
    primary_associate,
    two_squares,
)
from .modmath import (
    OddPrime,
    eighth_root_of_unity,
    is_probable_prime,
    legendre,
    primes_in_range,
    sqrt_mod,
)
from .oracles import (
    FormCount,
    class_number,
    delta_box_search,
    r3,
    rep_x2_32y2,
    tunnell_a,
)
from .quartic import embed, solve_delta
from .verify import SuiteResult, run_reference_scan, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "COVERS",
    "Classification",
    "ComputeFailed",
    "CongruentStatus",
    "FormCount",
    "GaussianInt",
    "GeneratorNotFound",
    "NotSplitError",
    "OddPrime",
    "PreconditionViolation",
    "QuarticCover",
    "ShaReport",
    "SuiteResult",
    "SymbolSet",
    "TwoSquares",
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
    "v_level",
    "w_level",
]
