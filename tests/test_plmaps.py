from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from brackops.plmaps import (PLMap, monotone_reparam, identity_map,
                             pl_compose, pl_invert, pl_convex_combination,
                             average_of_steps, pl_to_obj)
from brackops.cacti import cactus_map, scaling_map
from brackops import randomgen as R
from pl_reference import RefMap, interpolate, ref_compose, same

F = Fraction


def test_validation():
    with pytest.raises(ValueError):
        PLMap.of((0, F(1, 2)), (0, 1))              # must end at 1
    with pytest.raises(ValueError):
        PLMap.of((0, F(1, 2), F(1, 2), 1), (0, 0, 1, 1))  # strictly increasing x
    with pytest.raises(ValueError):
        PLMap.of((0, F(1, 2), 1), (0, 1, F(1, 2)))  # decreasing values
    with pytest.raises(ValueError):
        monotone_reparam((0, F(1, 2), 1), (0, F(1, 2), F(3, 4)))  # endpoint


@pytest.mark.parametrize("bad", [0.5, "1/2", True, None])
def test_a_rational_that_is_not_an_int_or_fraction_is_refused(bad):
    # the rule of trees.as_fraction: a float, a string or a bool is no
    # rational given in code
    f = PLMap.of((0, F(1, 2), 1), (0, F(1, 4), 1))
    with pytest.raises(ValueError, match="^arguments must be ints or Fr"):
        f(bad)
    with pytest.raises(ValueError, match="^breakpoints must be ints or Fr"):
        PLMap.of((0, bad, 1), (0, F(1, 4), 1))
    with pytest.raises(ValueError, match="^values must be ints or Fr"):
        PLMap.of((0, F(1, 2), 1), (0, bad, 1))
    with pytest.raises(ValueError, match="^coefficients must be ints or Fr"):
        pl_convex_combination([bad, F(1, 2)], [f, identity_map()])


def test_canonical_form_merges_collinear():
    f = PLMap.of((0, F(1, 4), F(1, 2), 1), (0, F(1, 4), F(1, 2), 1))
    assert f == identity_map()
    assert len(f.breakpoints) == 2
    # three collinear interior points with unequal gaps, then a kink
    g = PLMap.of((0, F(1, 6), F(1, 4), F(1, 2), F(3, 4), 1),
                 (0, F(1, 12), F(1, 8), F(1, 4), F(3, 8), 1))
    assert g.breakpoints == (0, F(3, 4), 1)
    assert g.values == (0, F(3, 8), 1)


def test_evaluation():
    f = PLMap.of((0, F(1, 2), 1), (0, F(1, 4), 1))
    assert f(0) == 0 and f(1) == 1
    assert f(F(1, 2)) == F(1, 4)
    assert f(F(3, 4)) == F(5, 8)


def test_compose_identity():
    f = monotone_reparam((0, F(1, 3), 1), (0, F(2, 3), 1))
    assert pl_compose(f, identity_map()) == f
    assert pl_compose(identity_map(), f) == f


def test_invert_roundtrip_fixed():
    f = monotone_reparam((0, F(1, 3), F(1, 2), 1), (0, F(1, 4), F(3, 4), 1))
    assert pl_compose(f, pl_invert(f)) == identity_map()
    assert pl_compose(pl_invert(f), f) == identity_map()


@given(st.integers(0, 10 ** 6))
def test_invert_roundtrip_random(seed):
    rng = R.rng_from_seed(seed)
    f = R.random_reparam(rng, points=3)
    assert pl_compose(f, pl_invert(f)) == identity_map()


@given(st.integers(0, 10 ** 6))
def test_compose_associative_random(seed):
    rng = R.rng_from_seed(seed)
    f, g, h = (R.random_reparam(rng, points=2) for _ in range(3))
    assert pl_compose(pl_compose(f, g), h) == pl_compose(f, pl_compose(g, h))


def test_compose_is_exact_pointwise():
    rng = R.rng_from_seed(7)
    f = R.random_reparam(rng, points=3)
    g = R.random_reparam(rng, points=3)
    fg = pl_compose(f, g)
    for r in range(21):
        t = F(r, 20)
        assert fg(t) == f(g(t))


def test_convex_combination():
    f = monotone_reparam((0, F(1, 2), 1), (0, F(1, 4), 1))
    g = monotone_reparam((0, F(1, 2), 1), (0, F(3, 4), 1))
    m = pl_convex_combination([F(1, 2), F(1, 2)], [f, g])
    assert m == identity_map()
    with pytest.raises(ValueError):
        pl_convex_combination([F(1, 2), F(1, 4)], [f, g])  # not convex


def test_average_of_steps_of_identity_partition():
    f = PLMap.of((0, F(1, 2), 1), (0, 1, 1))
    g = PLMap.of((0, F(1, 2), 1), (0, 0, 1))
    assert average_of_steps([f, g]) == identity_map()


def test_serialization_roundtrip():
    f = monotone_reparam((0, F(2, 7), 1), (0, F(5, 9), 1))
    assert pl_to_obj(f)["x"] == ["0/1", "2/7", "1/1"]


# Independent oracle for the exact kernels: linear interpolation written
# out here over the canonical breakpoint/value tuples.  Denominators are
# not powers of two, so the common denominator of a map's breakpoints
# has several prime factors.

DENOMINATORS = st.sampled_from([7, 9, 11, 13, 24])


@st.composite
def pl_maps(draw):
    """A weakly increasing map; some of its segments are forced flat, so
    that step maps like those of a cactus occur."""
    xd, yd = draw(DENOMINATORS), draw(DENOMINATORS)
    inner = draw(st.lists(st.integers(1, xd - 1), max_size=4, unique=True))
    xs = [0] + sorted(inner) + [xd]
    n = len(xs)
    ys = sorted(draw(st.lists(st.integers(0, yd), min_size=n, max_size=n)))
    flats = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    for k, flat in enumerate(flats):
        if flat:
            ys[k + 1] = ys[k]
    return PLMap.of([F(x, xd) for x in xs], [F(y, yd) for y in ys])


interior_points = st.builds(lambda q, p: F(p % (q - 1) + 1, q),
                            st.sampled_from([2, 5, 7, 13, 24, 97, 1000]),
                            st.integers(0, 10 ** 6))


def with_midpoints(points):
    pts = sorted(set(points))
    return pts + [(s + t) / 2 for s, t in zip(pts, pts[1:])]


@given(pl_maps(), st.lists(interior_points, max_size=6))
def test_evaluation_matches_interpolation(f, extra):
    for t in [F(0), F(1)] + list(f.breakpoints) + extra:
        value = f(t)
        assert type(value) is Fraction
        assert value == interpolate(f, t)
    assert f(0) == f.values[0] and f(1) == f.values[-1]
    for outside in (F(-1, 3), F(4, 3)):
        with pytest.raises(ValueError, match="argument outside"):
            f(outside)


@given(pl_maps(), pl_maps())
def test_compose_matches_interpolation(a, b):
    # the second inner map takes a's breakpoints as values, so that b
    # passes through a's breakpoints at its own breakpoints
    ax = a.breakpoints
    n = len(b.breakpoints)
    on_ax = PLMap.of(b.breakpoints, sorted(ax[j % len(ax)] for j in range(n)))
    for inner in (b, on_ax):
        c = pl_compose(a, inner)
        for t in with_midpoints(ax + inner.breakpoints + c.breakpoints):
            assert interpolate(c, t) == interpolate(a, interpolate(inner, t))


@given(pl_maps(), pl_maps(), pl_maps(), st.integers(0, 12), st.integers(0, 12))
def test_convex_combination_matches_interpolation(f, g, h, i, j):
    coeffs = [F(min(i, j), 12), F(abs(i - j), 12), F(12 - max(i, j), 12)]
    m = pl_convex_combination(coeffs, [f, g, h])
    for t in with_midpoints(f.breakpoints + g.breakpoints + h.breakpoints
                            + m.breakpoints):
        assert interpolate(m, t) == sum(
            c * interpolate(p, t) for c, p in zip(coeffs, [f, g, h]))


# ---------------------------------------------------------------------------
# The Fraction reference for the integer kernels: pl_reference's RefMap
# and composite, and the inverse, convex combination and cactus maps.

def ref_invert(f):
    v = f.values
    if not (all(s < t for s, t in zip(v, v[1:])) and v[0] == 0 and v[-1] == 1):
        raise ValueError("only strictly monotone endpoint-fixing maps invert")
    return RefMap(f.values, f.breakpoints)


def ref_convex_combination(coeffs, maps):
    coeffs = [F(c) for c in coeffs]
    if len(coeffs) != len(maps) or not maps:
        raise ValueError("coefficient/map length mismatch")
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        raise ValueError("coefficients must be nonnegative and sum to 1")
    pts = sorted(set(x for m in maps for x in m.breakpoints))
    return RefMap(pts, [sum(c * m(t) for c, m in zip(coeffs, maps))
                        for t in pts])


def ref_cactus_map(x):
    pts = [F(0)] + [b for _, b, _ in x.arcs]
    out = []
    for lab in range(1, x.k + 1):
        ys = [F(0)]
        for a, b, l in x.arcs:
            ys.append(ys[-1] + (x.k * (b - a) if l == lab else 0))
        out.append(RefMap(pts, ys))
    return out


def ref_scaling_map(x, m):
    if len(m) != x.k:
        raise ValueError("need one multiplier per lobe")
    if any(v <= 0 for v in m):
        raise ValueError("multipliers must be >= 1 (zero breaks monotonicity)")
    ys = [F(0)]
    for a, b, lab in x.arcs:
        ys.append(ys[-1] + (b - a) * x.k * F(m[lab - 1], sum(m)))
    return RefMap([F(0)] + [b for _, b, _ in x.arcs], ys)


def same_outcome(op, ref_op, *args):
    """op and ref_op both give equal maps (or lists of maps), or both
    raise a ValueError with the same message."""
    try:
        want = ref_op(*[a[1] for a in args])
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            op(*[a[0] for a in args])
        assert str(got.value) == str(exc)
        return None
    got = op(*[a[0] for a in args])
    if isinstance(got, list):
        assert len(got) == len(want) and all(map(same, got, want))
    else:
        assert same(got, want)
    return got, want


REFUSED_POINTS = [
    ((0, 1), (0,)),                                  # lengths differ
    ((0,), (0,)),                                    # one point
    ((0, F(1, 2)), (0, 1)),                          # ends at 1/2
    ((F(1, 3), 1), (0, 1)),                          # starts at 1/3
    ((0, F(1, 2), F(1, 2), 1), (0, 0, 1, 1)),        # repeated breakpoint
    ((0, F(2, 3), F(1, 3), 1), (0, 0, 1, 1)),        # decreasing breakpoints
    ((0, F(1, 2), 1), (0, 1, F(1, 2))),              # decreasing values
    ((0, 1), (F(-1, 2), 1)),                         # value below 0
    ((0, 1), (0, F(4, 3))),                          # value above 1
]


def raw_points(rng):
    """Unreduced points of a weakly increasing map: denominators with
    several prime factors, some segments flat, some points collinear."""
    xd, yd = rng.choice([6, 7, 12, 24, 35]), rng.choice([5, 9, 12, 24, 30])
    inner = rng.sample(range(1, xd), min(xd - 1, rng.randint(0, 4)))
    xs = [0] + sorted(inner) + [xd]
    ys = sorted(rng.randint(0, yd) for _ in xs)
    for k in range(1, len(ys)):
        if rng.random() < 0.3:
            ys[k] = ys[k - 1]
    if rng.random() < 0.5:
        ys[0], ys[-1] = 0, yd
    if rng.random() < 0.3:
        # a midpoint lies on the line through its neighbours
        k = rng.randrange(len(xs) - 1)
        xs, ys = [2 * x for x in xs], [2 * y for y in ys]
        xs.insert(k + 1, (xs[k] + xs[k + 1]) // 2)
        ys.insert(k + 1, (ys[k] + ys[k + 1]) // 2)
        xd, yd = 2 * xd, 2 * yd
    return [F(x, xd) for x in xs], [F(y, yd) for y in ys]


def random_pair(rng):
    xs, ys = raw_points(rng)
    return PLMap.of(xs, ys), RefMap(xs, ys)


# the identity, and a map equal to it given through collinear points
IDENTITIES = [(identity_map(), RefMap((0, 1), (0, 1))),
              (PLMap.of(*[(0, F(1, 3), F(3, 4), 1)] * 2),
               RefMap(*[(0, F(1, 3), F(3, 4), 1)] * 2))]


def test_integer_kernels_match_the_fraction_reference():
    for xs, ys in REFUSED_POINTS:
        same_outcome(lambda p: PLMap.of(*p), lambda p: RefMap(*p),
                     ((xs, ys), (xs, ys)))
    rng = R.rng_from_seed(41)
    for _ in range(1500):
        a, b, c = (random_pair(rng) for _ in range(3))
        for f in (a, b, c):
            assert same(*f)
        same_outcome(pl_compose, ref_compose, a, b)
        same_outcome(pl_compose, ref_compose, b, a)
        inverted = same_outcome(pl_invert, ref_invert, a)
        if inverted is not None:
            same_outcome(pl_compose, ref_compose, a,
                         (pl_invert(a[0]), ref_invert(a[1])))
        ident = rng.choice(IDENTITIES)
        same_outcome(pl_compose, ref_compose, ident, a)
        same_outcome(pl_compose, ref_compose, a, ident)
        same_outcome(pl_compose, ref_compose, ident, ident)
        i, j = sorted(rng.randint(0, 12) for _ in range(2))
        coeffs = [F(i, 12), F(j - i, 12), F(12 - j, 12)]
        if rng.random() < 0.2:
            coeffs[rng.randint(0, 2)] += rng.choice([F(-1, 2), F(1, 7)])
        if rng.random() < 0.05:
            coeffs.pop()
        same_outcome(pl_convex_combination, ref_convex_combination,
                     (coeffs, coeffs), tuple(map(list, zip(a, b, c))))
        # equal maps, one of them another object
        twin = PLMap.of(a[0].breakpoints, a[0].values)
        same_outcome(pl_convex_combination, ref_convex_combination,
                     (coeffs, coeffs), ([a[0], twin, a[0]], [a[1]] * 3))
        k = rng.randint(1, 5)
        x = R.random_cactus(k, rng)
        same_outcome(cactus_map, ref_cactus_map, (x, x))
        m = [rng.randint(1, 4) for _ in range(k)]
        if rng.random() < 0.3:
            m = [m[0]] * k  # every lobe keeps its length
        if rng.random() < 0.1:
            m[rng.randint(0, k - 1)] = 0
        if rng.random() < 0.05:
            m.append(1)
        same_outcome(scaling_map, ref_scaling_map, (x, x), (m, m))


def test_equal_points_over_other_denominators_are_equal_maps():
    rng = R.rng_from_seed(42)
    for _ in range(500):
        f = PLMap.of(*raw_points(rng))
        s, t = rng.randint(2, 30), rng.randint(2, 30)
        g = PLMap([x * s for x in f.nx], f.dx * s, [y * t for y in f.ny],
                  f.dy * t)
        assert g == f and hash(g) == hash(f)
        assert (g.nx, g.dx, g.ny, g.dy) == (f.nx, f.dx, f.ny, f.dy)


def test_readers_are_reduced_fraction_tuples():
    rng = R.rng_from_seed(43)
    for _ in range(500):
        f = PLMap.of(*raw_points(rng))
        assert gcd(f.dx, *f.nx) == 1 and gcd(f.dy, *f.ny) == 1
        for reader, nums, den in ((f.breakpoints, f.nx, f.dx),
                                  (f.values, f.ny, f.dy)):
            assert type(reader) is tuple
            assert all(type(z) is Fraction for z in reader)
            assert reader == tuple(F(n, den) for n in nums)
        assert f.dx == lcm(*[x.denominator for x in f.breakpoints])
        assert f.dy == lcm(*[y.denominator for y in f.values])
