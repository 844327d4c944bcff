"""Exact piecewise-linear self-maps of [0,1] with rational breakpoints.

Canonical form merges collinear segments, so two maps are equal iff
their breakpoint/value arrays are equal.  Strictly increasing maps
fixing the endpoints form the reparametrization space used by the
cactus modules."""

from __future__ import annotations

from fractions import Fraction

from .trees import frac_to_str

ZERO = Fraction(0)
ONE = Fraction(1)


class PLMap:
    "Weakly increasing piecewise-linear map on [0,1], canonical form."

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        xs = [Fraction(x) for x in breakpoints]
        ys = [Fraction(y) for y in values]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching breakpoint/value arrays of length >= 2")
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a > b for a, b in zip(ys, ys[1:])):
            raise ValueError("values must be weakly increasing")
        if ys[0] < 0 or ys[-1] > 1:
            raise ValueError("values must lie in [0,1]")
        # canonical form: drop interior points where the slope does not change
        cx, cy = [xs[0]], [ys[0]]
        for k in range(1, len(xs) - 1):
            s_in = (ys[k] - cy[-1]) / (xs[k] - cx[-1])
            s_out = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
            if s_in != s_out:
                cx.append(xs[k])
                cy.append(ys[k])
        cx.append(xs[-1])
        cy.append(ys[-1])
        self.breakpoints = tuple(cx)
        self.values = tuple(cy)

    def __call__(self, t):
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("argument outside [0,1]")
        xs, ys = self.breakpoints, self.values
        # binary search would be overkill at these sizes
        for k in range(len(xs) - 1):
            if t <= xs[k + 1]:
                return ys[k] + (ys[k + 1] - ys[k]) * (t - xs[k]) / (xs[k + 1] - xs[k])
        return ys[-1]

    def slopes(self):
        xs, ys = self.breakpoints, self.values
        return tuple((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
                     for k in range(len(xs) - 1))

    def is_strictly_monotone(self):
        return all(s > 0 for s in self.slopes())

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
    "Exact composite a o b."
    xs = set(b.breakpoints)
    # pull back a's breakpoints: for each interior value y of a, the
    # preimage under b is a (possibly degenerate) interval; its endpoints
    # are breakpoints of the composite
    bx, by = b.breakpoints, b.values
    for y in a.breakpoints:
        if y <= by[0] or y >= by[-1]:
            continue
        for k in range(len(bx) - 1):
            y0, y1 = by[k], by[k + 1]
            if y0 <= y <= y1:
                if y1 > y0:
                    xs.add(bx[k] + (bx[k + 1] - bx[k]) * (y - y0) / (y1 - y0))
                else:
                    xs.add(bx[k])
                    xs.add(bx[k + 1])
    pts = sorted(xs)
    return PLMap(pts, [a(min(max(b(t), ZERO), ONE)) for t in pts])


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


def pl_from_obj(obj):
    return PLMap([Fraction(x) for x in obj["x"]],
                 [Fraction(y) for y in obj["y"]])
