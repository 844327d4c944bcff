"""Exact piecewise-linear self-maps of [0,1] with rational breakpoints.

A map is held as integers: numerators over one reduced denominator for
its breakpoints and one for its values, in canonical form (collinear
points dropped), so two maps are equal iff these fields are equal.
Composition, inversion and convex combination run on these integers;
a Fraction is made only for a reader.  Strictly increasing maps fixing
the endpoints form the reparametrization space used by the cactus
modules.

The identity is neutral and costs nothing: composing with a map equal
to IDENTITY returns the other map, and a convex combination of equal
maps returns that map, each after its input checks.  Most maps on the
cactus action path are identities, and these are the objects the
general path would build, so no output changes."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .trees import as_fraction, frac_to_str


class PLMap:
    """Weakly increasing piecewise-linear map on [0,1], canonical form:
    breakpoint k is nx[k]/dx and value k is ny[k]/dy, no interior point
    lies on the line through its neighbours, and gcd(dx, *nx) =
    gcd(dy, *ny) = 1.  PLMap(nx, dx, ny, dy) checks and canonicalizes
    any integer points; PLMap.of reads ints and Fractions."""

    __slots__ = ("nx", "dx", "ny", "dy")

    def __init__(self, nx, dx, ny, dy):
        if len(nx) != len(ny) or len(nx) < 2:
            raise ValueError("need matching breakpoint/value arrays of length >= 2")
        if nx[0] != 0 or nx[-1] != dx:
            raise ValueError("breakpoints must start at 0 and end at 1")
        sx = [b - a for a, b in zip(nx, nx[1:])]
        sy = [b - a for a, b in zip(ny, ny[1:])]
        if min(sx) <= 0:
            raise ValueError("breakpoints must be strictly increasing")
        if min(sy) < 0:
            raise ValueError("values must be weakly increasing")
        if ny[0] < 0 or ny[-1] > dy or dy < 1:
            raise ValueError("values must lie in [0,1]")
        # canonical form: drop interior points where the slope does not
        # change (sx > 0, so comparing slopes is comparing cross
        # products), then divide out the common factors
        keep = [k for k in range(1, len(sx))
                if sy[k - 1] * sx[k] != sy[k] * sx[k - 1]]
        if len(keep) < len(sx) - 1:
            keep = [0, *keep, len(sx)]
            nx, ny = [nx[k] for k in keep], [ny[k] for k in keep]
        g, h = gcd(*nx), gcd(dy, *ny)
        self.nx = tuple([x // g for x in nx]) if g > 1 else tuple(nx)
        self.ny = tuple([y // h for y in ny]) if h > 1 else tuple(ny)
        self.dx, self.dy = dx // g, dy // h

    @classmethod
    def of(cls, xs, ys):
        "The map through the points (xs[k], ys[k]): ints or Fractions."
        return cls(*_over([as_fraction(x, "breakpoints").as_integer_ratio()
                           for x in xs]),
                   *_over([as_fraction(y, "values").as_integer_ratio()
                           for y in ys]))

    @property
    def breakpoints(self):
        "The breakpoints as Fractions, made on each read."
        return tuple([Fraction(x, self.dx) for x in self.nx])

    @property
    def values(self):
        "The values as Fractions, made on each read."
        return tuple([Fraction(y, self.dy) for y in self.ny])

    def at(self, p, q):
        """The value at p/q (q > 0) as an unreduced (numerator,
        denominator) pair, from the segment [nx[j]/dx, nx[j+1]/dx]
        holding p/q."""
        if not 0 <= p <= q:
            raise ValueError("argument outside [0,1]")
        nx, dx, ny = self.nx, self.dx, self.ny
        j = bisect_left(nx, -(-p * dx // q), 1, len(nx)) - 1
        w = nx[j + 1] - nx[j]
        return (ny[j] * w * q + (ny[j + 1] - ny[j]) * (p * dx - nx[j] * q),
                self.dy * w * q)

    def __call__(self, t):
        if type(t) is not Fraction:
            t = as_fraction(t, "arguments")
        return Fraction(*self.at(t.numerator, t.denominator))

    def is_strictly_monotone(self):
        v = self.ny
        return all(a < b for a, b in zip(v, v[1:]))

    def fixes_endpoints(self):
        return self.ny[0] == 0 and self.ny[-1] == self.dy

    def __eq__(self, other):
        return isinstance(other, PLMap) and (
            (self.nx, self.dx, self.ny, self.dy)
            == (other.nx, other.dx, other.ny, other.dy))

    def __hash__(self):
        return hash((self.nx, self.dx, self.ny, self.dy))

    def __repr__(self):
        pts = ", ".join("(%s,%s)" % (x, y)
                        for x, y in zip(self.breakpoints, self.values))
        return "PLMap[%s]" % pts


def _over(pairs):
    "The numerators of (numerator, denominator) pairs over their lcm, and it."
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def monotone_reparam(breakpoints, values):
    "A strictly increasing PLMap fixing 0 and 1."
    f = PLMap.of(breakpoints, values)
    if not f.is_strictly_monotone():
        raise ValueError("map is not strictly monotone")
    if not f.fixes_endpoints():
        raise ValueError("map does not fix the endpoints")
    return f


IDENTITY = PLMap((0, 1), 1, (0, 1), 1)  # a map is the identity iff == IDENTITY


def identity_map():
    return IDENTITY


def pl_compose(a, b):
    "Exact composite a o b, in one pass over the segments of each map."
    if a == IDENTITY:
        return b
    if b == IDENTITY:
        return a
    # the composite breaks at b's breakpoints, where it is a at b's value,
    # and at the preimages under b of a's breakpoints, where it is a's
    # value there; a's breakpoint y/adx and b's value v/bdy compare as
    # y*bdy and v*adx
    bx, bdx, by, bdy = b.nx, b.dx, b.ny, b.dy
    adx, ady, ay = a.dx, a.dy, a.ny
    vs = [v * adx for v in by]
    pts, vals = [(bx[0], bdx)], [a.at(by[0], bdy)]
    k = 0
    for j, y in enumerate(a.nx):
        y *= bdy
        if y <= vs[0]:
            continue
        if y >= vs[-1]:
            break
        while vs[k + 1] < y:
            k += 1
            pts.append((bx[k], bdx))
            vals.append(a.at(by[k], bdy))
        if y < vs[k + 1]:
            # b rises through y strictly inside segment k
            r = vs[k + 1] - vs[k]
            pts.append((bx[k] * r + (bx[k + 1] - bx[k]) * (y - vs[k]), bdx * r))
            vals.append((ay[j], ady))
    pts += [(x, bdx) for x in bx[k + 1:]]
    vals += [a.at(v, bdy) for v in by[k + 1:]]
    return PLMap(*_over(pts), *_over(vals))


def pl_invert(f):
    "Inverse of a strictly monotone endpoint-fixing map."
    if not (f.is_strictly_monotone() and f.fixes_endpoints()):
        raise ValueError("only strictly monotone endpoint-fixing maps invert")
    return PLMap(f.ny, f.dy, f.nx, f.dx)


def pl_convex_combination(coeffs, maps):
    cs, cd = _over([as_fraction(c, "coefficients").as_integer_ratio()
                    for c in coeffs])
    if len(cs) != len(maps) or not maps:
        raise ValueError("coefficient/map length mismatch")
    if min(cs) < 0 or sum(cs) != cd:
        raise ValueError("coefficients must be nonnegative and sum to 1")
    if maps.count(maps[0]) == len(maps):
        return maps[0]  # the coefficients sum to 1
    # every breakpoint over the lcm d of the maps' dx; at each the
    # combination is the sum of the terms c*m(t) over their lcm
    d = lcm(*[m.dx for m in maps])
    pts = sorted({x * (d // m.dx) for m in maps for x in m.nx})
    vals = []
    for p in pts:
        terms = [m.at(p, d) for m in maps]
        e = lcm(*[q for _, q in terms])
        vals.append((sum([c * n * (e // q) for c, (n, q) in zip(cs, terms)]),
                     cd * e))
    return PLMap(pts, d, *_over(vals))


def average_of_steps(maps):
    "Pointwise average of a list of maps."
    return pl_convex_combination([Fraction(1, len(maps))] * len(maps), maps)


def pl_to_obj(f):
    return {"x": [frac_to_str(x) for x in f.breakpoints],
            "y": [frac_to_str(y) for y in f.values]}
