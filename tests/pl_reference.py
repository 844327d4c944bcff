"""A Fraction reference for PLMap: maps held as Fraction breakpoints
and values, checked, canonicalized, evaluated and composed with
Fraction arithmetic only."""

from fractions import Fraction as F


def interpolate(f, t):
    "f(t) from the first segment of f that holds t."
    xs, ys = f.breakpoints, f.values
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x0 <= t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    raise AssertionError("%s outside [0,1]" % t)


class RefMap:
    def __init__(self, xs, ys):
        xs, ys = [F(x) for x in xs], [F(y) for y in ys]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching breakpoint/value arrays of length >= 2")
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(s >= t for s, t in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(s > t for s, t in zip(ys, ys[1:])):
            raise ValueError("values must be weakly increasing")
        if ys[0] < 0 or ys[-1] > 1:
            raise ValueError("values must lie in [0,1]")
        slopes = [(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
                  for k in range(len(xs) - 1)]
        keep = ([0] + [k for k in range(1, len(slopes))
                       if slopes[k - 1] != slopes[k]] + [len(slopes)])
        self.breakpoints = tuple(xs[k] for k in keep)
        self.values = tuple(ys[k] for k in keep)

    def __call__(self, t):
        return interpolate(self, t)


def ref_compose(a, b):
    "b's breakpoints and the preimages of a's inside b's rising segments."
    xs, ys = b.breakpoints, b.values
    pts = set(xs)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        for y in a.breakpoints:
            if y0 < y < y1:
                pts.add(x0 + (x1 - x0) * (y - y0) / (y1 - y0))
    pts = sorted(pts)
    return RefMap(pts, [a(b(t)) for t in pts])


def same(f, ref):
    return f.breakpoints == ref.breakpoints and f.values == ref.values
