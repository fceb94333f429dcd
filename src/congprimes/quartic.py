"""The ring Z[x]/(x^4 - 2x^2 + 2), its reduction at the primes above a
completely split p, and the rank-2 Z[i]-lattice reduction that certifies
a relative-norm-p element for such p.

Write alpha for the class of x, and i := alpha^2 - 1 (so i^2 = -1 and
alpha^2 = 1 + i).  Every element is x = a + b*alpha with a, b in Z[i],
and this module writes it as its four integer coordinates
(a.re, a.im, b.re, b.im).  A prime above a completely split p is the
root r of x^4 - 2x^2 + 2 mod p that it sends alpha to (embed).  The
conjugation alpha -> -alpha fixes Z[i] and gives the relative norm
N(a + b*alpha) = a^2 - (1+i) b^2 (_relative_norm).  The absolute norm is
the Z[i]-norm of that Gaussian integer, hence always >= 0.

The unit group is generated by i and 1 + alpha, with relative norms
N(i) = -1 and N(1+alpha) = -i (direct expansion: (1+alpha)(1-alpha) =
1 - alpha^2 = -i).  _times_unit multiplies by 1 + alpha:
(a + b*alpha)(1 + alpha) = (a + (1+i) b) + (a + b)*alpha.  Multiplying by
(1+alpha)^m therefore rotates a relative norm w*p through the fourth
roots of unity, which is how solve_delta lands exactly on p.
"""

from __future__ import annotations

from .errors import GeneratorNotFound, NotSplitError, PreconditionViolation
from .modmath import OddPrime, SplitRoots, split_roots

_FORM = (99, 140)  # the weights of _reduce's form 99 |a|^2 + 140 |b|^2, 140/99 < sqrt(2)


def embed(x: tuple[int, int, int, int], p: OddPrime, r: int) -> int:
    """x = a + b*alpha, given as (a.re, a.im, b.re, b.im), reduced at the prime
    above p where alpha -> r and i -> r^2 - 1; raises PreconditionViolation
    unless r is a root of x^4 - 2x^2 + 2 mod p."""
    pv = p.value
    i = r * r % pv - 1
    if not 0 <= r < pv or (i * i + 1) % pv:  # r^4 - 2r^2 + 2 = (r^2 - 1)^2 + 1
        raise PreconditionViolation("r is not a root of x^4 - 2x^2 + 2 mod p")
    ar, ai, br, bi = x
    return (ar + ai * i + (br + bi * i) * r) % pv


def _reduce(p: OddPrime, roots: SplitRoots | None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced Z[i]-basis (u, v) of the product of the two primes over p
    with roots r and s of split_roots(p) (roots, if given, must be that: those
    of another prime raise PreconditionViolation); raises NotSplitError
    unless p ≡ 1 (mod 8) and (1+i'/p) = +1.  It returns
    (c.re, c.im, u1.re, u1.im, v1.re, v1.im), with c below centred mod p,
    and the Gram entries (H'(u), H'(v), Re <v,u>, Im <v,u>) in the form
    99 H' below.  Each a-coordinate is -c b (see the last paragraph), which
    solve_delta computes only for the vectors it tries.

    Those primes send i to i' = r^2 - 1 and to -i' respectively, so
    a + b*alpha lies in their product iff a + b*c ≡ 0 (mod p) for the
    Gaussian integer c that maps to r under i -> i' and to s under
    i -> -i'.  Hence (p, 0), (-c, 1) is a basis.  Z[i] is Euclidean, so
    Lagrange reduction works over it (Napias 1996, "A generalization of
    the LLL-algorithm over Euclidean rings or orders").  It runs for the
    exact form H'(a, b) = |a|^2 + rho |b|^2, rho = 140/99, on the ints
    99 H' (_FORM), not for the trace form Tr(x * xbar) / 4 =
    H(a, b) = |a|^2 + sqrt(2) |b|^2: (sqrt(2) / rho)^2 = 9801/9800, so
    H' <= H <= (sqrt(2) / rho) H' <= (1 + 5.2e-5) H', all that the bounds
    below and in solve_delta need.  On return H'(u) <= H'(v), and
    mu = <v, u> / H'(u) has real and imaginary parts in [-1/2, 1/2].

    <x, y> = 99 x0 conj(y0) + 140 x1 conj(y1) is exact, so the entries
    are updated in place rather than recomputed (integral LLL, Cohen
    GTM 138, 2.6): v <- v - q u sends <v,u> to <v,u> - q H'(u) and H'(v)
    to H'(v) - 2 Re(conj(q) <v,u>) + |q|^2 H'(u).  q rounds each
    coordinate g/H'(u) of <v,u> / H'(u) to the nearest integer,
    (2g + H'(u)) // (2 H'(u)), ties up.  Lagrange's loop from (p, 0),
    (-c, 1) always first moves c's coordinates into (-p/2, p/2] and
    swaps, so this starts at u = (-c, 1), v = (p, 0) and then reduces v
    by u and u by v in turn instead of swapping.

    The loop updates only b: every lattice vector is m (-c, 1) + n (p, 0),
    so a ≡ -c b (mod p), and a is -c b centred mod p.  That is exact: the
    Gram determinant p^2 rho is H'(u) H'(v - mu u), and
    H'(u) >= rho H(u) / sqrt(2) >= rho p / sqrt(2) (H(u) >= p, see
    solve_delta), so H'(v) / 2 <= H'(v) - |mu|^2 H'(u) = H'(v - mu u) <=
    sqrt(2) p, and the a of u and of v has |a|^2 <= H'(v) <= 2 sqrt(2) p <
    3p < p^2 / 4 (p > 12)."""
    if roots is None and p.value % 8 == 1:
        roots = split_roots(p)
    elif roots is not None and roots.p != p.value:
        raise PreconditionViolation(f"roots of {roots.p} given for {p}")
    if roots is None or roots.r is None:
        raise NotSplitError(f"{p} does not split completely in the quartic field")
    pv = p.value
    r, s, i_img, h = roots.r, roots.s, roots.i_img, pv // 2
    cr = ((r + s) * (h + 1) + h) % pv - h  # h + 1 = 1/2 mod p
    ci = ((s - r) * i_img * (h + 1) + h) % pv - h  # 1/(2i') = -i'/2
    wa, wb = _FORM
    u1r, u1i, v1r, v1i = 1, 0, 0, 0
    hu = (cr * cr + ci * ci) * wa + wb
    hv = pv * pv * wa
    gr, gi = -cr * pv * wa, ci * pv * wa  # <v,u>
    while True:
        h2 = 2 * hu  # v <- v - q u, q = round(<v,u> / H'(u))
        qr, qi = (2 * gr + hu) // h2, (2 * gi + hu) // h2
        v1r, v1i = v1r - qr * u1r + qi * u1i, v1i - qr * u1i - qi * u1r
        hv += (qr * qr + qi * qi) * hu - 2 * (qr * gr + qi * gi)
        gr, gi = gr - qr * hu, gi - qi * hu
        if hv >= hu:
            return (cr, ci, u1r, u1i, v1r, v1i), (hu, hv, gr, gi)
        h2 = 2 * hv  # u <- u - q v, q = round(<u,v> / H'(v)), <u,v> = conj(<v,u>)
        qr, qi = (2 * gr + hv) // h2, (hv - 2 * gi) // h2
        u1r, u1i = u1r - qr * v1r + qi * v1i, u1i - qr * v1i - qi * v1r
        hu += (qr * qr + qi * qi) * hv - 2 * (qr * gr - qi * gi)
        gr, gi = gr - qr * hv, gi + qi * hv
        if hu >= hv:
            return (cr, ci, v1r, v1i, u1r, u1i), (hv, hu, gr, -gi)


_BOX = [(re, im) for re in range(-2, 3) for im in range(-2, 3)]
# (a.re, a.im, b.re, b.im) of the box search that follows u alone
_COEFFS = [a + b for b in _BOX for a in _BOX if any(a + b)]
# multiplications by 1 + alpha (relative norm -i) that take w*p to p
_ROTATIONS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _relative_norm(x0r: int, x0i: int, x1r: int, x1i: int) -> tuple[int, int]:
    """x0^2 - (1+i) x1^2 as (re, im), for x0 = x0r + x0i*i, x1 = x1r + x1i*i."""
    sr, si = x1r * x1r - x1i * x1i, 2 * x1r * x1i
    return x0r * x0r - x0i * x0i - sr + si, 2 * x0r * x0i - sr - si


def _times_unit(x0r: int, x0i: int, x1r: int, x1i: int) -> tuple[int, int, int, int]:
    """x * (1 + alpha) = (x0 + (1+i) x1) + (x0 + x1) alpha, for x = x0 + x1*alpha;
    it multiplies the relative norm by -i."""
    return x0r + x1r - x1i, x0i + x1r + x1i, x0r + x1r, x0i + x1i


def solve_delta(p: OddPrime, roots: SplitRoots | None = None) -> tuple[int, int, int, int]:
    """Certified delta = a + b*alpha with a^2 - (1+i) b^2 = p exactly, as
    (a.re, a.im, b.re, b.im), for a completely split p (else NotSplitError);
    roots, if given, must be split_roots(p); another prime's raise PreconditionViolation.

    Takes the reduced basis (u, v) of _reduce(p, roots) and returns the first
    a*u + b*v, with a, b in the Gaussian box |re|, |im| <= 2, whose absolute
    norm is p^2.  u alone is tried first, before v's a-coordinates are even
    computed: it is the generator at every split p below 10^6.  Its relative norm w*p (w a unit of
    Z[i]) is rotated to exactly p by (1+alpha)^m, and the sign is fixed
    by a.re > 0.  delta = a + b*alpha lies in the primes at r and s, so
    a + b*r ≡ 0 (mod p) under i -> i'.  Las Vegas: raises GeneratorNotFound,
    never returns an unverified answer.

    The box is complete.  Write x = a + b*alpha and, at the two complex
    places, x(beta) = a + b*beta and x(-beta) = a - b*beta with
    beta^2 = 1 + i, |beta|^2 = sqrt(2).  Then
    H(x) = (|x(beta)|^2 + |x(-beta)|^2) / 2 >= |x(beta) x(-beta)| =
    |a^2 - (1+i) b^2|, and:

    * H(u) >= p, because every nonzero element of the ideal has absolute
      norm >= p^2.
    * Some unit multiple of a generator g has H <= (1 + sqrt(2)) p.  Here
      |g(beta)| |g(-beta)| = p, and the unit 1 + alpha multiplies
      |g(beta)|^2 by |1+beta|^2 and |g(-beta)|^2 by |1-beta|^2 =
      1 / |1+beta|^2.  Pick the power with p <= |g(beta)|^2 <
      p |1+beta|^2; by convexity H is largest at an end of that range,
      where it is p (|1+beta|^2 + |1-beta|^2) / 2 = (1 + sqrt(2)) p.
    * _reduce reduces for H' = |a|^2 + rho |b|^2, rho = 140/99, with
      H' <= H <= (sqrt(2) / rho) H'.  Write v = mu*u + v* with v*
      orthogonal to u under H'.  Reduction gives |mu|^2 <= 1/2, so
      H'(v*) = H'(v) - |mu|^2 H'(u) >= H'(u) / 2, and
      H'(u) >= (rho / sqrt(2)) H(u) >= (rho / sqrt(2)) p.  If
      H(a*u + b*v) <= (1 + sqrt(2)) p, then so is
      H'(a*u + b*v) = |a + b*mu|^2 H'(u) + |b|^2 H'(v*), hence
      |b|^2 <= 2 (1 + sqrt(2)) sqrt(2) / rho < 4.829 < 5, so |b|^2 <= 4,
      and |a| <= sqrt((1 + sqrt(2)) sqrt(2) / rho) + 2 / sqrt(2) < 2.969,
      so |a|^2 <= 8.

    Both bounds need only rho <= sqrt(2) and sqrt(2) / rho close to 1 (it
    is below 1 + 5.2e-5); at rho = sqrt(2) itself they read 4.8284 and 2.9680.
    """
    (cr, ci, x1r, x1i, v1r, v1i), _ = _reduce(p, roots)
    pv = p.value
    h, target = pv // 2, pv * pv
    # u's a = -c b, each coordinate centred mod p (see _reduce)
    x0r, x0i = (h - cr * x1r + ci * x1i) % pv - h, (h - cr * x1i - ci * x1r) % pv - h
    nr, ni = _relative_norm(x0r, x0i, x1r, x1i)
    if nr * nr + ni * ni != target:  # u is no generator: search the box
        u0r, u0i, u1r, u1i = x0r, x0i, x1r, x1i
        v0r, v0i = (h - cr * v1r + ci * v1i) % pv - h, (h - cr * v1i - ci * v1r) % pv - h
        for ar, ai, br, bi in _COEFFS:
            # x = a*u + b*v = x0 + x1*alpha
            x0r = ar * u0r - ai * u0i + br * v0r - bi * v0i
            x0i = ar * u0i + ai * u0r + br * v0i + bi * v0r
            x1r = ar * u1r - ai * u1i + br * v1r - bi * v1i
            x1i = ar * u1i + ai * u1r + br * v1i + bi * v1r
            nr, ni = _relative_norm(x0r, x0i, x1r, x1i)
            if nr * nr + ni * ni == target:
                break
        else:
            raise GeneratorNotFound(f"no relative-norm-{pv} generator found")
    wr, rr = divmod(nr, pv)
    wi, ri = divmod(ni, pv)
    if rr or ri or wr * wr + wi * wi != 1:
        raise GeneratorNotFound("candidate norm is not a unit multiple of p")
    for _ in range(_ROTATIONS[wr, wi]):
        x0r, x0i, x1r, x1i = _times_unit(x0r, x0i, x1r, x1i)
    # a.re != 0: for a = k*i, Im(a^2 - (1+i) b^2) = 2 b.im^2 - (b.re + b.im)^2
    # vanishes only at b = 0, and -k^2 != p
    if x0r < 0:
        x0r, x0i, x1r, x1i = -x0r, -x0i, -x1r, -x1i
    if _relative_norm(x0r, x0i, x1r, x1i) != (pv, 0):
        raise GeneratorNotFound(f"rotated candidate does not have relative norm {pv}")
    return x0r, x0i, x1r, x1i
