"""Exact piecewise-linear self-maps of [0,1] with rational breakpoints.

Canonical form merges collinear segments, so two maps are equal iff
their breakpoint/value arrays are equal.  Strictly increasing maps
fixing the endpoints form the reparametrization space used by the
cactus modules."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .trees import frac_to_str

ZERO = Fraction(0)
ONE = Fraction(1)


def _numerators(zs):
    """The Fractions zs as integers over their least common denominator:
    (numerators, denominator)."""
    d = lcm(*[z.denominator for z in zs])
    return [z.numerator * (d // z.denominator) for z in zs], d


def _lines(xs, ys):
    """Per segment of the graph through the points (xs[k], ys[k]), xs
    strictly increasing: integers (A, B, C), C > 0, such that the
    segment's line takes the value (A*p + B*q)/(C*q) at p/q."""
    nx, d = _numerators(xs)
    ny, e = _numerators(ys)
    out = []
    for x0, x1, y0, y1 in zip(nx, nx[1:], ny, ny[1:]):
        w, h = x1 - x0, y1 - y0
        a, b, c = h * d, y0 * w - h * x0, w * e
        g = gcd(a, b, c)
        out.append((a // g, b // g, c // g))
    return out


class PLMap:
    """Weakly increasing piecewise-linear map on [0,1], canonical form.

    Point evaluation reads a segment table built on the first call: the
    breakpoints as integers over their common denominator, and each
    segment's line as three integers (see _lines)."""

    __slots__ = ("breakpoints", "values", "_table")

    def __init__(self, breakpoints, values):
        xs = [x if type(x) is Fraction else Fraction(x) for x in breakpoints]
        ys = [y if type(y) is Fraction else Fraction(y) for y in values]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching breakpoint/value arrays of length >= 2")
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        nx, ny = _numerators(xs)[0], _numerators(ys)[0]
        dx = [b - a for a, b in zip(nx, nx[1:])]
        dy = [b - a for a, b in zip(ny, ny[1:])]
        if min(dx) <= 0:
            raise ValueError("breakpoints must be strictly increasing")
        if min(dy) < 0:
            raise ValueError("values must be weakly increasing")
        if ys[0] < 0 or ys[-1] > 1:
            raise ValueError("values must lie in [0,1]")
        # canonical form: drop interior points where the slope does not
        # change; dx > 0, so comparing slopes is comparing cross products
        keep = ([0] + [k for k in range(1, len(dx))
                       if dy[k - 1] * dx[k] != dy[k] * dx[k - 1]]
                + [len(dx)])
        self.breakpoints = tuple([xs[k] for k in keep])
        self.values = tuple([ys[k] for k in keep])

    def _segment_table(self):
        nx, d = _numerators(self.breakpoints)
        return d, tuple(nx), tuple(_lines(self.breakpoints, self.values))

    def __call__(self, t):
        if type(t) is not Fraction:
            t = Fraction(t)
        p, q = t.numerator, t.denominator
        if not 0 <= p <= q:
            raise ValueError("argument outside [0,1]")
        try:
            d, nx, lines = self._table
        except AttributeError:
            d, nx, lines = self._table = self._segment_table()
        # the segment [nx[j]/d, nx[j+1]/d] holding p/q
        j = bisect_left(nx, -(-p * d // q), 1, len(nx)) - 1
        a, b, c = lines[j]
        return Fraction(a * p + b * q, c * q)

    def is_strictly_monotone(self):
        v = self.values
        return all(a < b for a, b in zip(v, v[1:]))

    def fixes_endpoints(self):
        return self.values[0] == 0 and self.values[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, PLMap) and self.breakpoints == other.breakpoints
                and self.values == other.values)

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        pts = ", ".join("(%s,%s)" % (x, y)
                        for x, y in zip(self.breakpoints, self.values))
        return "PLMap[%s]" % pts


def _sweep(f, ts):
    """f at each of the weakly increasing Fractions ts in [0,1], in one
    pass over its segments; at one of its breakpoints, f's own value."""
    xs, ys = f.breakpoints, f.values
    out = []
    k, line = 0, None
    for t in ts:
        while t > xs[k + 1]:
            k, line = k + 1, None
        if t == xs[k]:
            out.append(ys[k])
        elif t == xs[k + 1]:
            out.append(ys[k + 1])
        else:
            if line is None:
                line = _lines(xs[k:k + 2], ys[k:k + 2])[0]
            a, b, c = line
            p, q = t.numerator, t.denominator
            out.append(Fraction(a * p + b * q, c * q))
    return out


def monotone_reparam(breakpoints, values):
    "A strictly increasing PLMap fixing 0 and 1."
    f = PLMap(breakpoints, values)
    if not f.is_strictly_monotone():
        raise ValueError("map is not strictly monotone")
    if not f.fixes_endpoints():
        raise ValueError("map does not fix the endpoints")
    return f


def identity_map():
    return PLMap((ZERO, ONE), (ZERO, ONE))


def pl_compose(a, b):
    "Exact composite a o b, in one pass over the segments of each map."
    # the composite breaks at b's breakpoints and at the preimages under b
    # of a's breakpoints; b's value at each of them is known exactly
    bx, by = b.breakpoints, b.values
    pts, bvals = [bx[0]], [by[0]]
    k = 0
    for y in a.breakpoints:
        if y <= by[0]:
            continue
        if y >= by[-1]:
            break
        while by[k + 1] < y:
            k += 1
            pts.append(bx[k])
            bvals.append(by[k])
        if y < by[k + 1]:
            # b rises through y strictly inside segment k
            pts.append(bx[k] + (bx[k + 1] - bx[k]) * (y - by[k]) / (by[k + 1] - by[k]))
            bvals.append(y)
    pts += bx[k + 1:]
    bvals += by[k + 1:]
    return PLMap(pts, _sweep(a, bvals))


def pl_invert(f):
    "Inverse of a strictly monotone endpoint-fixing map."
    if not (f.is_strictly_monotone() and f.fixes_endpoints()):
        raise ValueError("only strictly monotone endpoint-fixing maps invert")
    return PLMap(f.values, f.breakpoints)


def pl_convex_combination(coeffs, maps):
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != len(maps) or not maps:
        raise ValueError("coefficient/map length mismatch")
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        raise ValueError("coefficients must be nonnegative and sum to 1")
    pts = sorted(set(x for m in maps for x in m.breakpoints))
    columns = [_sweep(m, pts) for m in maps]
    vals = [sum(c * v for c, v in zip(coeffs, row)) for row in zip(*columns)]
    return PLMap(pts, vals)


def average_of_steps(maps):
    "Pointwise average of a list of maps."
    return pl_convex_combination([Fraction(1, len(maps))] * len(maps), maps)


def pl_to_obj(f):
    return {"x": [frac_to_str(x) for x in f.breakpoints],
            "y": [frac_to_str(y) for y in f.values]}
