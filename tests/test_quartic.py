import hashlib
import random
from math import gcd

import pytest
import sympy
from sympy.polys.domains import ZZ_I

from congprimes import quartic, verify
from congprimes.criteria import classify
from congprimes.errors import GeneratorNotFound, NotSplitError, PreconditionViolation
from congprimes.modmath import OddPrime, _PRIMORIAL, _certified, primes_in_range, split_roots
from congprimes.quartic import _reduce, _relative_norm, _times_unit, embed, solve_delta

# reduction rule oracle: alpha^4 = 2 alpha^2 - 2
def _poly_mul(a, b):
    prod = [0] * 7
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            prod[i + j] += ci * cj
    for k in (6, 5, 4):
        c = prod[k]
        prod[k] = 0
        prod[k - 2] += 2 * c
        prod[k - 4] -= 2 * c
    return prod[:4]


def _power(x):
    """Power-basis coefficients c0..c3 of x = a + b*alpha, x = (a.re, a.im,
    b.re, b.im): i = alpha^2 - 1 gives c = (a.re - a.im, b.re - b.im, a.im, b.im)."""
    ar, ai, br, bi = x
    return [ar - ai, br - bi, ai, bi]


def _coords(c):
    """Inverse of _power, using alpha^2 = 1 + i."""
    return (c[0] + c[2], c[2], c[1] + c[3], c[3])


ONE_PLUS_ALPHA = [1, 1, 0, 0]
EPSILON = _poly_mul([-1, 0, 1, 0], _poly_mul(ONE_PLUS_ALPHA, ONE_PLUS_ALPHA))  # i (1+alpha)^2


def _norm(z):
    return z.x * z.x + z.y * z.y


def _conj(z):
    return ZZ_I(z.x, -z.y)


def _rand(rng, bound=10**5):
    return tuple(rng.randrange(-bound, bound) for _ in range(4))


def test_unit_norms():
    # _times_unit multiplies by 1 + alpha, so the relative norm by -i, and
    # verify's epsilon = i (1+alpha)^2 leaves it unchanged; both as _poly_mul
    rng = random.Random(6)
    for _ in range(200):
        x = _rand(rng, 10**4)
        n = ZZ_I(*_relative_norm(*x))
        assert _times_unit(*x) == _coords(_poly_mul(_power(x), ONE_PLUS_ALPHA))
        assert ZZ_I(*_relative_norm(*_times_unit(*x))) == n * ZZ_I(0, -1)
        assert verify._times_epsilon(x) == _coords(_poly_mul(_power(x), EPSILON))
        assert _relative_norm(*verify._times_epsilon(x)) == _relative_norm(*x)


def test_embed_is_ring_map():
    # embed(a + b*alpha) is the power-basis value c0 + c1 r + c2 r^2 + c3 r^3
    # at every root r, and embed(x * (1+alpha)) = embed(x) * (1 + r)
    rng = random.Random(8)
    for p in (41, 113, 257):
        P = OddPrime(p)
        roots = split_roots(P).quartic()
        assert len(roots) == 4
        for r in roots:
            for _ in range(20):
                x = _rand(rng, 50)
                c = _power(x)
                assert embed(x, P, r) == (c[0] + c[1] * r + c[2] * r * r + c[3] * r**3) % p
                y = _coords(_poly_mul(c, ONE_PLUS_ALPHA))
                assert embed(y, P, r) == embed(x, P, r) * (1 + r) % p
            assert embed((0, 0, 1, 0), P, r) == r  # alpha
            assert embed((0, 1, 0, 0), P, r) == (r * r - 1) % p  # i


def test_embed_refuses_a_value_that_is_not_a_root():
    P = OddPrime(41)
    r = split_roots(P).r
    for bad in (5, r + 41, -r):  # not a root, and a root outside [0, p)
        with pytest.raises(PreconditionViolation, match="not a root"):
            embed((1, 0, 0, 0), P, bad)


def _at_most_zero(m, n):
    # m + n*sqrt(2) <= 0, decided exactly
    if m <= 0 and n <= 0:
        return True
    if m > 0 and n > 0:
        return False
    return m * m >= 2 * n * n if m <= 0 else 2 * n * n >= m * m


def _reduced(P, roots=None, reduce=_reduce):
    """_reduce's basis (or that of reduce, a stand-in for it) at the roots
    of P (split_roots(P) unless given) as the coordinates (u0, u1, v0, v1),
    each as re, im, with each a = -c b centred mod p as solve_delta takes
    it, and its Gram entries."""
    roots = roots or split_roots(P)
    (cr, ci, u1r, u1i, v1r, v1i), gram = reduce(P.value, roots.r, roots.s, roots.i_img)
    p, h = P.value, P.value // 2

    def a(br, bi):
        return (h - cr * br + ci * bi) % p - h, (h - cr * bi - ci * br) % p - h

    return (*a(u1r, u1i), u1r, u1i, *a(v1r, v1i), v1r, v1i), gram


def _basis(P, roots=None):
    """_reduce's basis (u, v) as pairs of sympy Gaussian integers."""
    (u0r, u0i, u1r, u1i, v0r, v0i, v1r, v1i), _ = _reduced(P, roots)
    return ((ZZ_I(u0r, u0i), ZZ_I(u1r, u1i)),
            (ZZ_I(v0r, v0i), ZZ_I(v1r, v1i)))


def test_ideal_basis_spans_the_ideal():
    count = 0
    for p in (41, 113, 257, 1153, 10009, 104729, 10**200 + 16737):
        P = OddPrime(p)
        roots = split_roots(P).quartic() if p % 8 == 1 else []
        if not roots:
            continue
        count += 1
        u, v = _basis(P)
        # both vectors vanish exactly at the primes with roots r and s
        for x in (u, v):
            g = (x[0].x, x[0].y, x[1].x, x[1].y)
            vanishing = {r for r in roots if embed(g, P, r) == 0}
            assert vanishing == {roots[0], roots[2]}
        # the Z[i]-determinant has norm p^2, the index of the ideal
        assert _norm(u[0] * v[1] - u[1] * v[0]) == p * p
        # reduced for H = |a|^2 + sqrt(2)|b|^2: H(u) <= H(v), and
        # 2|Re <v,u>|, 2|Im <v,u>| <= H(u)
        assert _at_most_zero(_norm(u[0]) - _norm(v[0]), _norm(u[1]) - _norm(v[1]))
        dot_a, dot_b = v[0] * _conj(u[0]), v[1] * _conj(u[1])
        for m, n in ((dot_a.x, dot_b.x), (dot_a.y, dot_b.y)):
            for sign in (1, -1):
                assert _at_most_zero(2 * sign * m - _norm(u[0]),
                                     2 * sign * n - _norm(u[1]))
    assert count >= 5


def _gaussian_lagrange(p, roots):
    """The Lagrange loop of _reduce written on vectors of sympy Gaussian
    integers, recomputing both inner products at every step; returns the
    basis and the inner product it reduces for."""
    pv = p.value
    r, s, i_img = roots.r, roots.s, roots.i_img
    c = ZZ_I((r + s) * (pv + 1) // 2 % pv, (r - s) * pow(2 * i_img, -1, pv) % pv)
    wa, wb = quartic._FORM

    def dot(x, y):
        return x[0] * _conj(y[0]) * wa + x[1] * _conj(y[1]) * wb

    u, v = (ZZ_I(pv), ZZ_I(0)), (-c, ZZ_I(1))
    hu = dot(u, u).x
    while True:
        q = divmod(dot(v, u), hu)[0]
        v = (v[0] - q * u[0], v[1] - q * u[1])
        hv = dot(v, v).x
        if hv >= hu:
            return (u, v), dot
        u, v, hu = v, u, hv


def test_ideal_basis_matches_the_gaussian_reduction():
    # the integer loop returns the same basis as the sympy ZZ_I loop, and
    # the Gram entries it carries equal the ones recomputed at the end
    count = 0
    for p in primes_in_range(3, 20000) + [10**200 + 16737, 10**200 + 28729]:
        if p % 8 != 1:
            continue
        P = OddPrime(p)
        roots = split_roots(P)
        if roots.r is None:
            continue
        (u, v), dot = _gaussian_lagrange(P, roots)
        coords, gram = _reduced(P, roots)
        assert coords == tuple(n for g in u + v for n in (g.x, g.y))
        uv = dot(v, u)
        assert gram == (dot(u, u).x, dot(v, v).x, uv.x, uv.y), p
        count += 1
    assert count == 273


def _swapping_reduce(p, roots):
    """_reduce as Lagrange's loop on ints from u = (p, 0), v = (-c, 1),
    c's coordinates in [0, p): reduce v by u, and swap u and v (which
    conjugates <v,u>) until H(v) >= H(u)."""
    pv = p.value
    r, s, i_img = roots.r, roots.s, roots.i_img
    cr = (r + s) * (pv + 1) // 2 % pv
    ci = (r - s) * pow(2 * i_img, -1, pv) % pv
    wa, wb = quartic._FORM
    u0r, u0i, u1r, u1i = pv, 0, 0, 0
    v0r, v0i, v1r, v1i = -cr, -ci, 1, 0
    hu = pv * pv * wa
    hv = (cr * cr + ci * ci) * wa + wb
    gr, gi = -cr * pv * wa, -ci * pv * wa
    while True:
        h2 = 2 * hu
        qr = (2 * gr + hu) // h2
        qi = (2 * gi + hu) // h2
        v0r, v0i = v0r - qr * u0r + qi * u0i, v0i - qr * u0i - qi * u0r
        v1r, v1i = v1r - qr * u1r + qi * u1i, v1i - qr * u1i - qi * u1r
        hv += (qr * qr + qi * qi) * hu - 2 * (qr * gr + qi * gi)
        gr -= qr * hu
        gi -= qi * hu
        if hv >= hu:
            return (u0r, u0i, u1r, u1i, v0r, v0i, v1r, v1i), (hu, hv, gr, gi)
        u0r, u0i, u1r, u1i, v0r, v0i, v1r, v1i = v0r, v0i, v1r, v1i, u0r, u0i, u1r, u1i
        hu, hv, gi = hv, hu, -gi


def _split_primes(digits, count, seed):
    """count completely split primes, each with a number of digits drawn
    from digits and the first one from its own seeded random start."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        d = rng.choice(digits)
        n = rng.randrange(10 ** (d - 1), 10**d) // 8 * 8 + 1
        while not (gcd(n, _PRIMORIAL) == 1 and sympy.isprime(n)
                   and split_roots(_certified(n)).r is not None):
            n += 8
        found.append(n)
    return found


def test_reduce_matches_the_swapping_loop():
    # _reduce starts after the swapping loop's first step and alternates
    # instead of swapping; basis and Gram entries must come out the same
    ps = primes_in_range(3, 20000) + [10**200 + 16737, 10**200 + 28729]
    count = 0
    for p in ps + _split_primes(range(50, 301), 24, seed=13):
        P = _certified(p)  # sieved, a known anchor, or passed sympy.isprime
        if p % 8 != 1 or (roots := split_roots(P)).r is None:
            continue
        assert _reduced(P, roots) == _swapping_reduce(P, roots), p
        count += 1
    assert count == 273 + 24


def test_delta_box_is_complete():
    # Every vector with H <= (1 + sqrt(2)) p among the coefficients
    # |re|, |im| <= 4 lies in the box |re|, |im| <= 2 that solve_delta
    # searches, and one of them generates the ideal.
    span = [(re, im) for re in range(-4, 5) for im in range(-4, 5)]

    def times(c, x):
        return tuple((c[0] * g.x - c[1] * g.y, c[0] * g.y + c[1] * g.x) for g in x)

    count = 0
    for p in primes_in_range(3, 20000):
        P = OddPrime(p)
        if p % 8 != 1 or split_roots(P).r is None:
            continue
        u, v = _basis(P)
        bs = [(c, times(c, v)) for c in span]
        generators = 0
        for ca, ((a1r, a1i), (a2r, a2i)) in ((c, times(c, u)) for c in span):
            for cb, ((b1r, b1i), (b2r, b2i)) in bs:
                x1r, x1i = a1r + b1r, a1i + b1i
                h1 = x1r * x1r + x1i * x1i
                if h1 > 3 * p:
                    continue
                x2r, x2i = a2r + b2r, a2i + b2i
                if not _at_most_zero(h1 - p, x2r * x2r + x2i * x2i - p):
                    continue
                assert max(map(abs, ca + cb)) <= 2, (p, ca, cb)
                x1, x2 = ZZ_I(x1r, x1i), ZZ_I(x2r, x2i)
                generators += _norm(x1 * x1 - ZZ_I(1, 1) * x2 * x2) == p * p
        assert generators, p
        count += 1
    assert count > 250


def _quartic_rotation(P, roots):
    """solve_delta on sympy Gaussian integers and power-basis records: the
    first generator of the box, rotated by (1+alpha)^m with _poly_mul to
    relative norm p, then the sign fixed (a.re > 0, ties broken
    lexicographically)."""
    pv = P.value
    u, v = _basis(P, roots)
    box = [ZZ_I(re, im) for re in range(-2, 3) for im in range(-2, 3)]
    pairs = [(ZZ_I(1), ZZ_I(0))] + [(a, b) for b in box for a in box if a or b]
    for a, b in pairs:
        x0, x1 = a * u[0] + b * v[0], a * u[1] + b * v[1]
        nr = x0 * x0 - ZZ_I(1, 1) * x1 * x1
        if _norm(nr) == pv * pv:
            break
    w, rem = divmod(nr, ZZ_I(pv))
    assert not rem and _norm(w) == 1
    m = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}[(w.x, w.y)]
    g = _power((x0.x, x0.y, x1.x, x1.y))
    for _ in range(m):
        g = _poly_mul(g, ONE_PLUS_ALPHA)
    t = _coords(g)
    a, b = ZZ_I(t[0], t[1]), ZZ_I(t[2], t[3])
    assert a * a - ZZ_I(1, 1) * b * b == ZZ_I(pv)
    if a.x < 0 or (a.x == 0 and tuple(-c for c in t) < t):
        a, b = -a, -b
    return (a, b), m


def test_solve_delta_matches_the_quartic_rotation():
    # the integer rotation and sign of solve_delta give the delta that
    # the power-basis multiplications give, for every rotation count
    rotations = set()
    for p in primes_in_range(3, 20000) + [10**200 + 16737, 10**200 + 28729]:
        if p % 8 != 1:
            continue
        P = OddPrime(p)
        roots = split_roots(P)
        if roots.r is None:
            continue
        (a, b), m = _quartic_rotation(P, roots)
        assert solve_delta(P, roots) == (a.x, a.y, b.x, b.y), p
        rotations.add(m)
    assert rotations == {0, 1, 2, 3}


# sha256 of "a.re,a.im,b.re,b.im\n" per completely split p below 2*10^4 and
# for both 200-digit anchors, as solve_delta returned them when it built
# its candidates as GaussianInt and QuarticInt records
DELTA_SHA256 = "bf65417a98a53a7e640f17cee24fe29e7633c966681b9219e23881ad6b975a1f"


def test_delta_coordinates_are_pinned():
    text = []
    for p in primes_in_range(3, 20000) + [10**200 + 16737, 10**200 + 28729]:
        P = OddPrime(p)
        if p % 8 == 1 and (roots := split_roots(P)).r is not None:
            delta = solve_delta(P, roots)
            assert type(delta) is tuple and _relative_norm(*delta) == (p, 0)
            text.append(",".join(map(str, delta)) + "\n")
    assert len(text) == 273
    assert hashlib.sha256("".join(text).encode()).hexdigest() == DELTA_SHA256


# the same lines per completely split p below 2*10^5 and for both anchors, as
# solve_delta returned them when _reduce carried every coordinate of u and v
DELTA_2E5_SHA256 = "b9bcd626d2a682e88d4205692fc0cacf6ea05334a70cce1eae333bdaa749b864"


def test_reduced_a_is_centred_and_delta_below_2e5_is_pinned():
    # solve_delta takes each a of _reduce's basis as -c b centred mod p,
    # which is exact only while every reduced a, as the swapping loop
    # carries it, has its coordinates in (-p/2, p/2]
    text = []
    for p in primes_in_range(3, 200_000) + [10**200 + 16737, 10**200 + 28729]:
        P = _certified(p)
        if p % 8 != 1 or (roots := split_roots(P)).r is None:
            continue
        want = _swapping_reduce(P, roots)
        (u0r, u0i, _, _, v0r, v0i, _, _), _ = want
        assert all(-p < 2 * a <= p for a in (u0r, u0i, v0r, v0i)), p
        assert _reduced(P, roots) == want, p
        text.append(",".join(map(str, solve_delta(P, roots))) + "\n")
    assert len(text) == 2222
    assert hashlib.sha256("".join(text).encode()).hexdigest() == DELTA_2E5_SHA256


# the same lines per completely split p below 10^6, as solve_delta returned
# them when _reduce took the SplitRoots record and checked it itself
DELTA_1E6_SHA256 = "eda3ff33377f47bf048b2b34ab8d05a6f00486af66e1cc5d9ea2c8a51cd3d835"


def test_delta_below_10_6_is_pinned():
    text = []
    for p in primes_in_range(3, 10**6):
        P = _certified(p)  # sieved
        if p % 8 == 1 and (roots := split_roots(P)).r is not None:
            text.append(",".join(map(str, solve_delta(P, roots))) + "\n")
    assert len(text) == 9766
    assert hashlib.sha256("".join(text).encode()).hexdigest() == DELTA_1E6_SHA256


def test_box_search_past_u_certifies_delta(monkeypatch):
    # u alone generates the ideal at every split p below 10^6, so only a
    # basis given in the other order reaches the box search past it: there,
    # solve_delta's delta must still have relative norm exactly p and vanish
    # at the roots r and s, and classify must read the same symbols
    ps = [p for p in primes_in_range(3, 20000)
          if p % 8 == 1 and split_roots(_certified(p)).r is not None]
    ps += [10**200 + 16737, 10**200 + 28729]
    want = {p: classify(_certified(p)).symbols for p in ps}
    real = quartic._reduce

    def swapped(p, r, s, i_img):
        (cr, ci, u1r, u1i, v1r, v1i), (hu, hv, gr, gi) = real(p, r, s, i_img)
        return (cr, ci, v1r, v1i, u1r, u1i), (hv, hu, gr, -gi)

    monkeypatch.setattr(quartic, "_reduce", swapped)
    searched = 0
    for p in ps:
        P = _certified(p)  # sieved, or a 200-digit anchor
        roots = split_roots(P)
        nr, ni = _relative_norm(*_reduced(P, roots)[0][4:])  # v: the swapped basis's first
        searched += nr * nr + ni * ni != p * p
        delta = solve_delta(P, roots)
        assert _relative_norm(*delta) == (p, 0), p
        assert embed(delta, P, roots.r) == embed(delta, P, roots.s) == 0, p
        assert classify(P).symbols == want[p], p
    assert searched > len(ps) // 2


def test_box_search_needs_coefficients_of_2_for_the_basis_u_plus_2v_and_v(monkeypatch):
    # handed the basis (u + 2v, v), solve_delta finds the generator u only at a
    # coefficient of -2; at the primes where brute force finds no generator
    # with every coordinate in [-1, 1], the radius-2 box must still certify
    # delta.  Past p = 102 each coordinate of u + 2v's a, at most
    # 3 sqrt(2 sqrt(2) p) (see _reduce), is below p/2, so the centred a that
    # solve_delta takes is exactly u + 2v's.
    ps = [p for p in primes_in_range(103, 20000)
          if p % 8 == 1 and split_roots(_certified(p)).r is not None]
    ps += [10**200 + 16737, 10**200 + 28729]
    want = {p: classify(_certified(p)).symbols for p in ps}
    real = quartic._reduce

    def shifted(p, r, s, i_img):
        (cr, ci, u1r, u1i, v1r, v1i), gram = real(p, r, s, i_img)
        return (cr, ci, u1r + 2 * v1r, u1i + 2 * v1i, v1r, v1i), gram

    monkeypatch.setattr(quartic, "_reduce", shifted)
    unit = [ZZ_I(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1)]
    checked = 0
    for p in ps:
        P = _certified(p)  # sieved, or a 200-digit anchor
        roots = split_roots(P)
        u0r, u0i, u1r, u1i, v0r, v0i, v1r, v1i = _reduced(P, roots, real)[0]
        x = _reduced(P, roots, shifted)[0]
        assert x == (u0r + 2 * v0r, u0i + 2 * v0i, u1r + 2 * v1r, u1i + 2 * v1i,
                     v0r, v0i, v1r, v1i), p
        x0, x1, y0, y1 = (ZZ_I(x[j], x[j + 1]) for j in (0, 2, 4, 6))
        if any(_norm((a * x0 + b * y0) ** 2 - ZZ_I(1, 1) * (a * x1 + b * y1) ** 2) == p * p
               for a in unit for b in unit):
            continue
        checked += 1
        delta = solve_delta(P, roots)
        assert _relative_norm(*delta) == (p, 0), p
        assert embed(delta, P, roots.r) == embed(delta, P, roots.s) == 0, p
        assert classify(P).symbols == want[p], p
    assert checked > len(ps) // 4  # 90 of the 272


def test_delta_refuses_a_candidate_whose_norm_is_not_exactly_p(monkeypatch):
    # with the unit rotation skipped, a generator of relative norm w*p, w != 1,
    # is refused by solve_delta's own check of the relative norm
    split = [P for P in map(OddPrime, primes_in_range(3, 3000))
             if P.value % 8 == 1 and split_roots(P).r is not None]
    want = {P: solve_delta(P) for P in split}
    monkeypatch.setattr(quartic, "_ROTATIONS", dict.fromkeys(quartic._ROTATIONS, 0))
    refused = 0
    for P in split:
        try:
            assert solve_delta(P) == want[P], P
        except GeneratorNotFound as exc:
            refused += 1
            assert "relative norm" in str(exc)
    assert 0 < refused < len(split)


def test_solve_delta_certificates_small_range():
    count = 0
    for p in primes_in_range(3, 3000):
        P = OddPrime(p)
        if p % 8 != 1 or split_roots(P).r is None:
            continue
        ar, ai, br, bi = solve_delta(P)
        a, b = ZZ_I(ar, ai), ZZ_I(br, bi)
        assert a * a - ZZ_I(1, 1) * b * b == ZZ_I(p)
        assert _norm(ZZ_I(*_relative_norm(ar, ai, br, bi))) == p * p
        count += 1
    assert count > 30


def test_solve_delta_requires_split():
    with pytest.raises(NotSplitError):
        solve_delta(OddPrime(17))


@pytest.mark.parametrize("other", [17, 113, 137, 257, 337])
def test_roots_of_another_prime_are_refused(monkeypatch, other):
    # roots of another prime are the caller's error, not a failed lattice
    # search or a p that does not split; solve_delta is the one check of
    # the roots, so _reduce, which takes their ints as given, never runs
    # on refused roots or at a p that does not split
    calls = []
    monkeypatch.setattr(quartic, "_reduce", lambda *args: calls.append(args) or _reduce(*args))
    P, roots = OddPrime(41), split_roots(OddPrime(other))
    with pytest.raises(PreconditionViolation, match=f"^roots of {other} given for 41$"):
        solve_delta(P, roots)
    for Q, given in ((OddPrime(17), None), (OddPrime(17), split_roots(OddPrime(17))),
                     (OddPrime(43), None)):
        with pytest.raises(NotSplitError):
            solve_delta(Q, given)
    assert calls == []
    own = split_roots(P)
    assert solve_delta(P, own) == solve_delta(P) == (7, -4, 2, -6)
    assert calls == [(41, own.r, own.s, own.i_img)] * 2


def test_solve_delta_returns_the_four_coordinates():
    # delta = (7 + 2i) + (-4 - 6i) alpha: (7 + 2i)^2 - (1+i)(-4 - 6i)^2 = 113
    assert solve_delta(OddPrime(113)) == (7, 2, -4, -6)


def test_delta_sign_canonical():
    for p in (41, 113, 257, 353):
        assert solve_delta(OddPrime(p))[0] > 0  # a.re


def test_solve_delta_200_digit():
    ar, ai, br, bi = solve_delta(OddPrime(10**200 + 28729))
    a, b = ZZ_I(ar, ai), ZZ_I(br, bi)
    assert a * a - ZZ_I(1, 1) * b * b == ZZ_I(10**200 + 28729)
