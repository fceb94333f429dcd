"""Output checks that do not call the solver.

Each row is a dict with the CSV columns of `congprimes scan`
(p, p_mod_16, chi_1pi, chi_alpha_delta, chi_zeta_alpha_delta, v_level,
w_level, congruent_status; w_level None where the CSV says NA), plus
sha_report for rows from `classify`.  The laws checked here come from
residues, Legendre symbols and Cornacchia's algorithm, all computed with
sympy, so a wrong row is caught without trusting the code under test.
"""

from __future__ import annotations

from math import isqrt

from sympy import jacobi_symbol
from sympy.ntheory import sqrt_mod

CSV_HEADER = ("p,p_mod_16,chi_1pi,chi_alpha_delta,chi_zeta_alpha_delta,"
              "v_level,w_level,congruent_status")

# (congruent_status, sha_report) by (p mod 8 class, w_level)
_STATUS = {
    "5or7": ("CONGRUENT_MONSKY", "SHA2_TRIVIAL_KNOWN"),
    "3": ("NOT_CONGRUENT", "SHA2_TRIVIAL_KNOWN"),
    1: ("NOT_CONGRUENT", "SHA_Z2xZ2"),
    2: ("NOT_CONGRUENT", "SHA_Z4xZ4"),
    3: ("UNDECIDED", "UNKNOWN"),
}


def is_split(p: int) -> bool:
    """Whether the odd prime p splits completely in Q(alpha),
    alpha^4 - 2 alpha^2 + 2 = 0: p ≡ 1 (mod 8) and (1+i' | p) = +1 for a
    square root i' of -1.  The symbol does not depend on the choice of
    i', because (1+i')(1-i') = 2 is a square mod p."""
    if p % 8 != 1:
        return False
    return jacobi_symbol(1 + sqrt_mod(-1, p), p) == 1


def is_x2_32y2(p: int) -> bool:
    """Whether the odd prime p is x^2 + 32 y^2, by Cornacchia's algorithm
    (Cohen, GTM 138, Alg. 1.5.2); O(log p) arithmetic steps."""
    x0 = sqrt_mod(-32, p)
    if x0 is None:
        return False
    if 2 * x0 < p:
        x0 = p - x0
    a, b, bound = p, x0, isqrt(p)
    while b > bound:
        a, b = b, a % b
    rest = p - b * b
    if rest % 32:
        return False
    c = rest // 32
    return isqrt(c) ** 2 == c


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 8:
            raise ValueError(f"malformed CSV line {line!r}")
        rows.append({
            "p": int(f[0]), "p_mod_16": int(f[1]), "chi_1pi": int(f[2]),
            "chi_alpha_delta": int(f[3]), "chi_zeta_alpha_delta": int(f[4]),
            "v_level": int(f[5]), "w_level": None if f[6] == "NA" else int(f[6]),
            "congruent_status": f[7],
        })
    return rows


def check_row(row: dict, split: bool) -> str | None:
    """The first law the row breaks, or None.  `split` is the benchmark's
    own verdict on p, from is_split."""
    p, v, w = row["p"], row["v_level"], row["w_level"]
    chis = (row["chi_1pi"], row["chi_alpha_delta"], row["chi_zeta_alpha_delta"])
    if row["p_mod_16"] != p % 16:
        return f"p={p}: p_mod_16={row['p_mod_16']}"
    if p % 8 != 1:
        forced = 0 if p % 4 == 3 else 1
        if (v, w, chis) != (forced, None, (0, 0, 0)):
            return f"p={p}: residue forces v={forced}, w=NA, no symbols; got v={v}, w={w}, {chis}"
        status = _STATUS["3" if p % 8 == 3 else "5or7"]
    else:
        if chis[0] != (1 if split else -1):
            return f"p={p}: chi_1pi={chis[0]} but split={split}"
        if not split and (v, w, chis[1:]) != (2, 1, (0, 0)):
            return f"p={p}: non-split p ≡ 1 (mod 8) must be v=2, w=1; got v={v}, w={w}"
        if split:
            if chis[1] not in (1, -1) or chis[2] not in (1, -1):
                return f"p={p}: split prime without symbols {chis}"
            if v != (4 if chis[1] == 1 else 3) or w != (3 if chis[2] == 1 else 2):
                return f"p={p}: levels v={v}, w={w} disagree with symbols {chis}"
            # mod-16 XOR law: (zeta | p) is +1 iff p ≡ 1 (mod 16)
            if ((v == 4) != (w == 3)) != (p % 16 == 9):
                return f"p={p} ≡ {p % 16} (mod 16): v={v}, w={w} break the XOR law"
        # V(3) = W(2), and both mean p = x^2 + 32 y^2
        if (v >= 3) != (w >= 2) or (v >= 3) != is_x2_32y2(p):
            return f"p={p}: v={v}, w={w} disagree with p = x^2 + 32y^2"
        status = _STATUS[w]
    got = (row["congruent_status"], row.get("sha_report", status[1]))
    if got != status:
        return f"p={p}: status {got}, table says {status}"
    return None


def check_rows(rows: list[dict], expected: list[int], failed: list[int] = (),
               anchors: dict[int, tuple[int, int]] | None = None) -> list[str]:
    """Every error in a run's output: the rows must cover exactly the
    expected primes, in order, less those reported as failed; each row
    must obey check_row; each anchor present must have its paper levels."""
    errors = []
    got = [r["p"] for r in rows]
    failed = set(failed)
    want = [p for p in expected if p not in failed]
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        errors.append(f"primes differ from sympy's: missing {missing}, extra {extra}, "
                      f"{len(got)} rows for {len(want)} primes")
    for row in rows:
        err = check_row(row, is_split(row["p"]))
        if err:
            errors.append(err)
        want_levels = (anchors or {}).get(row["p"])
        if want_levels and (row["v_level"], row["w_level"]) != want_levels:
            errors.append(f"anchor p={row['p']}: (v, w)=({row['v_level']}, "
                          f"{row['w_level']}), paper says {want_levels}")
    return errors
