from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brackops.plmaps import (PLMap, monotone_reparam, identity_map,
                             pl_compose, pl_invert, pl_convex_combination,
                             average_of_steps, pl_to_obj)
from brackops import randomgen as R

F = Fraction


def test_validation():
    with pytest.raises(ValueError):
        PLMap((0, F(1, 2)), (0, 1))              # must end at 1
    with pytest.raises(ValueError):
        PLMap((0, F(1, 2), F(1, 2), 1), (0, 0, 1, 1))  # strictly increasing x
    with pytest.raises(ValueError):
        PLMap((0, F(1, 2), 1), (0, 1, F(1, 2)))  # decreasing values
    with pytest.raises(ValueError):
        monotone_reparam((0, F(1, 2), 1), (0, F(1, 2), F(3, 4)))  # endpoint


def test_canonical_form_merges_collinear():
    f = PLMap((0, F(1, 4), F(1, 2), 1), (0, F(1, 4), F(1, 2), 1))
    assert f == identity_map()
    assert len(f.breakpoints) == 2
    # three collinear interior points with unequal gaps, then a kink
    g = PLMap((0, F(1, 6), F(1, 4), F(1, 2), F(3, 4), 1),
              (0, F(1, 12), F(1, 8), F(1, 4), F(3, 8), 1))
    assert g.breakpoints == (0, F(3, 4), 1)
    assert g.values == (0, F(3, 8), 1)


def test_evaluation():
    f = PLMap((0, F(1, 2), 1), (0, F(1, 4), 1))
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
    f = PLMap((0, F(1, 2), 1), (0, 1, 1))
    g = PLMap((0, F(1, 2), 1), (0, 0, 1))
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
    return PLMap([F(x, xd) for x in xs], [F(y, yd) for y in ys])


interior_points = st.builds(lambda q, p: F(p % (q - 1) + 1, q),
                            st.sampled_from([2, 5, 7, 13, 24, 97, 1000]),
                            st.integers(0, 10 ** 6))


def interpolate(f, t):
    "f(t) from the first segment of f that holds t."
    xs, ys = f.breakpoints, f.values
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x0 <= t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    raise AssertionError("%s outside [0,1]" % t)


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
    on_ax = PLMap(b.breakpoints, sorted(ax[j % len(ax)] for j in range(n)))
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
