"""Exact piecewise-linear self-maps of [0,1] with rational breakpoints.

Canonical form merges collinear segments, so two maps are equal iff
their breakpoint/value arrays are equal.  Strictly increasing maps
fixing the endpoints form the reparametrization space used by the
cactus modules."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .trees import frac_to_str

ZERO = Fraction(0)
ONE = Fraction(1)


class PLMap:
    """Weakly increasing piecewise-linear map on [0,1], canonical form.

    Next to its Fraction breakpoints and values it keeps the integers
    they were validated as: breakpoint k is nx[k]/dx and value k is
    ny[k]/dy, where dx and dy are the lcms of the given breakpoints' and
    values' denominators.  Point evaluation reads these integers."""

    __slots__ = ("breakpoints", "values", "nx", "dx", "ny", "dy")

    def __init__(self, breakpoints, values):
        xs = [x if type(x) is Fraction else Fraction(x) for x in breakpoints]
        ys = [y if type(y) is Fraction else Fraction(y) for y in values]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching breakpoint/value arrays of length >= 2")
        dx = lcm(*[x.denominator for x in xs])
        dy = lcm(*[y.denominator for y in ys])
        nx = [x.numerator * (dx // x.denominator) for x in xs]
        ny = [y.numerator * (dy // y.denominator) for y in ys]
        if nx[0] != 0 or nx[-1] != dx:
            raise ValueError("breakpoints must start at 0 and end at 1")
        sx = [b - a for a, b in zip(nx, nx[1:])]
        sy = [b - a for a, b in zip(ny, ny[1:])]
        if min(sx) <= 0:
            raise ValueError("breakpoints must be strictly increasing")
        if min(sy) < 0:
            raise ValueError("values must be weakly increasing")
        if ny[0] < 0 or ny[-1] > dy:
            raise ValueError("values must lie in [0,1]")
        # canonical form: drop interior points where the slope does not
        # change; sx > 0, so comparing slopes is comparing cross products
        keep = ([0] + [k for k in range(1, len(sx))
                       if sy[k - 1] * sx[k] != sy[k] * sx[k - 1]]
                + [len(sx)])
        self.breakpoints = tuple([xs[k] for k in keep])
        self.values = tuple([ys[k] for k in keep])
        self.nx = tuple([nx[k] for k in keep])
        self.ny = tuple([ny[k] for k in keep])
        self.dx, self.dy = dx, dy

    def __call__(self, t):
        if type(t) is not Fraction:
            t = Fraction(t)
        p, q = t.numerator, t.denominator
        if not 0 <= p <= q:
            raise ValueError("argument outside [0,1]")
        nx, dx, ny = self.nx, self.dx, self.ny
        # the segment [nx[j]/dx, nx[j+1]/dx] holding p/q
        j = bisect_left(nx, -(-p * dx // q), 1, len(nx)) - 1
        w = nx[j + 1] - nx[j]
        num = ny[j] * w * q + (ny[j + 1] - ny[j]) * (p * dx - nx[j] * q)
        return Fraction(num, self.dy * w * q)

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
    return PLMap(pts, [a(v) for v in bvals])


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
    vals = [sum(c * m(t) for c, m in zip(coeffs, maps)) for t in pts]
    return PLMap(pts, vals)


def average_of_steps(maps):
    "Pointwise average of a list of maps."
    return pl_convex_combination([Fraction(1, len(maps))] * len(maps), maps)


def pl_to_obj(f):
    return {"x": [frac_to_str(x) for x in f.breakpoints],
            "y": [frac_to_str(y) for y in f.values]}
