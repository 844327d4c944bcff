"""Normalized cacti: partitions of the circle [0,1]/~ into k labelled
closed 1-manifolds of length 1/k each, subject to non-interleaving.

The circle is cut at 0, so a cactus is an ordered list of arcs with
rational endpoints.  Composition is implemented twice: once on
(cactus, reparametrization) pairs via the two-step normal form of the
coendomorphism composite, and once directly on cacti by the
scale-and-subdivide rule; the rescaling identity ties the two together.
"""

from __future__ import annotations

from fractions import Fraction

from .trees import frac_to_str
from .plmaps import (
    PLMap, _sweep, identity_map, monotone_reparam, pl_compose, pl_invert,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class CactusError(ValueError):
    pass


class Cactus:
    "k labelled lobes as consecutive arcs covering [0,1]; canonical form."

    __slots__ = ("k", "arcs")

    def __init__(self, k, arcs):
        k = int(k)
        if k < 1:
            raise CactusError("lobe count must be >= 1 (the empty cactus is EMPTY_CACTUS)")
        merged = []
        for a, b, lab in arcs:
            a, b, lab = Fraction(a), Fraction(b), int(lab)
            if b <= a:
                continue
            if merged and merged[-1][2] == lab and merged[-1][1] == a:
                merged[-1] = (merged[-1][0], b, lab)
            else:
                merged.append((a, b, lab))
        self.k = k
        self.arcs = tuple(merged)
        self._validate()

    def _validate(self):
        if not self.arcs:
            raise CactusError("no arcs")
        if self.arcs[0][0] != 0 or self.arcs[-1][1] != 1:
            raise CactusError("arcs must cover [0,1]")
        for (a0, b0, _), (a1, b1, _) in zip(self.arcs, self.arcs[1:]):
            if b0 != a1:
                raise CactusError("arcs must be consecutive")
        totals = {}
        for a, b, lab in self.arcs:
            if not 1 <= lab <= self.k:
                raise CactusError("label %d outside 1..%d" % (lab, self.k))
            totals[lab] = totals.get(lab, ZERO) + (b - a)
        want = Fraction(1, self.k)
        for lab in range(1, self.k + 1):
            if totals.get(lab, ZERO) != want:
                raise CactusError("lobe %d has length %s, expected %s"
                                  % (lab, totals.get(lab, ZERO), want))
        self._check_interleaving()

    def _check_interleaving(self):
        """Refuse two lobes whose labels read i..j..i..j along the circle,
        in one pass over the arcs: the lobes on the stack are open, and
        coming back to one closes the lobes opened after it, which may
        not come back."""
        labels = [lab for _, _, lab in self.arcs]
        stack, seen, closed_by = [], set(), {}
        for lab in labels:
            if lab in closed_by:
                i, j = sorted((closed_by[lab], lab))
                raise CactusError(
                    "lobes %d and %d interleave (pattern %s)"
                    % (i, j, [l for l in labels if l in (i, j)]))
            if lab in seen:
                while stack[-1] != lab:
                    closed_by[stack.pop()] = lab
            else:
                stack.append(lab)
                seen.add(lab)

    def lobe_arcs(self, lab):
        return [(a, b) for a, b, l in self.arcs if l == lab]

    def __eq__(self, other):
        return (isinstance(other, Cactus) and self.k == other.k
                and self.arcs == other.arcs)

    def __hash__(self):
        return hash((self.k, self.arcs))

    def __repr__(self):
        return "Cactus(%d, %s)" % (
            self.k, [(str(a), str(b), l) for a, b, l in self.arcs])


class _EmptyCactus:
    "The 0-ary point; carries no arcs and supports no composition."

    k = 0
    arcs = ()

    def __repr__(self):
        return "EMPTY_CACTUS"


EMPTY_CACTUS = _EmptyCactus()


def unit_cactus():
    return Cactus(1, [(ZERO, ONE, 1)])


_UNIT = unit_cactus()  # the inert lobes of a single insertion


class MSElement:
    "A cactus with a strictly monotone endpoint-fixing reparametrization."

    __slots__ = ("cactus", "reparam")

    def __init__(self, cactus, reparam):
        if not (reparam.is_strictly_monotone() and reparam.fixes_endpoints()):
            raise ValueError("reparametrization must be strictly monotone and fix 0,1")
        self.cactus = cactus
        self.reparam = reparam

    def __eq__(self, other):
        return (isinstance(other, MSElement) and self.cactus == other.cactus
                and self.reparam == other.reparam)

    def __repr__(self):
        return "MSElement(%r, %r)" % (self.cactus, self.reparam)


def ms_unit():
    return MSElement(unit_cactus(), identity_map())


# ---------------------------------------------------------------------------
# Cactus maps and the coendomorphism picture.

def cactus_map(x):
    """The k slope-k step maps: component j at time t is k times the
    length of lobe j seen in [0,t]."""
    out = []
    for lab in range(1, x.k + 1):
        xs, ys = [ZERO], [ZERO]
        for a, b, l in x.arcs:
            xs.append(b)
            ys.append(ys[-1] + (b - a) * x.k if l == lab else ys[-1])
        out.append(PLMap(xs, ys))
    return out


def cactus_from_maps(maps):
    "Inverse of cactus_map; rejects maps that are not of step shape."
    k = len(maps)
    if k < 1:
        raise CactusError("need at least one map")
    pts = sorted(set(t for m in maps for t in m.breakpoints))
    arcs = []
    for a, b in zip(pts, pts[1:]):
        owner = None
        for j, m in enumerate(maps):
            slope = (m(b) - m(a)) / (b - a)
            if slope == k:
                if owner is not None:
                    raise CactusError("two maps rise on the same interval")
                owner = j + 1
            elif slope != 0:
                raise CactusError("slope %s is neither 0 nor %d" % (slope, k))
        if owner is None:
            raise CactusError("no map rises on [%s,%s]" % (a, b))
        arcs.append((a, b, owner))
    return Cactus(k, arcs)


def coend_compose(maps_a, i, maps_b):
    "Composite tuple (f_1..f_{i-1}, g_1 f_i, .., g_j f_i, f_{i+1}..f_k)."
    fi = maps_a[i - 1]
    return (list(maps_a[:i - 1]) + [pl_compose(g, fi) for g in maps_b]
            + list(maps_a[i:]))


def phi(elem):
    "The embedding: (x, f) -> the tuple of composites c_x^j o f."
    return [pl_compose(c, elem.reparam) for c in cactus_map(elem.cactus)]


def cactus_metric(x, y):
    if x.k != y.k:
        raise CactusError("lobe counts differ")
    if x.k == 0:
        return ZERO  # EMPTY_CACTUS is the one 0-lobe point
    overlap = ZERO
    for lab in range(1, x.k + 1):
        for a, b in x.lobe_arcs(lab):
            for c, d in y.lobe_arcs(lab):
                lo, hi = max(a, c), min(b, d)
                if hi > lo:
                    overlap += hi - lo
    return 1 - overlap


# ---------------------------------------------------------------------------
# Scaling maps.

def _scaled_ends(x, m):
    """The values of scaling_map(x, m) at 0 and at the end of each arc:
    the cumulative sums of the arc lengths, lobe j scaled by
    k*m[j-1]/sum(m)."""
    if len(m) != x.k:
        raise ValueError("need one multiplier per lobe")
    if any(v <= 0 for v in m):
        raise ValueError("multipliers must be >= 1 (zero breaks monotonicity)")
    total = sum(m)
    ends = [ZERO]
    for a, b, lab in x.arcs:
        ends.append(ends[-1] + (b - a) * x.k * m[lab - 1] / total)
    return ends


def scaling_map(x, m):
    """The reparametrization that scales lobe j by k*m[j-1]/sum(m);
    strictly monotone only when every multiplier is positive."""
    return monotone_reparam([ZERO] + [b for _, b, _ in x.arcs],
                            _scaled_ends(x, m))


def relabel_cactus(x, perm):
    "perm[old-1] = new label (1-based); a bijection on 1..k."
    if sorted(perm) != list(range(1, x.k + 1)):
        raise ValueError("not a permutation of 1..%d" % x.k)
    return Cactus(x.k, [(a, b, perm[lab - 1]) for a, b, lab in x.arcs])


# ---------------------------------------------------------------------------
# Composition.

def _with_units(x, i, y):
    "One cactus per lobe of x: y in lobe i, the unit cactus elsewhere."
    if not 1 <= i <= x.k:
        raise IndexError("slot %d out of range" % i)
    ys = [_UNIT] * x.k
    ys[i - 1] = y
    return ys


def _insert(x, i, y):
    """Insert y in lobe i of x: simultaneous insertion with the unit
    cactus in every other lobe.  Returns (z, h) where h is the scaling
    reparametrization."""
    ys = _with_units(x, i, y)
    return gamma_cact1(x, ys), scaling_map(x, [c.k for c in ys])


def cact1_compose(x, i, y):
    "The cactus of _insert(x, i, y), without its scaling map."
    return gamma_cact1(x, _with_units(x, i, y))


def ms_compose(a, i, b):
    """Two-step composition: first push b's reparametrization through
    lobe i of a's cactus (resizing that lobe's arcs), then insert b's
    cactus; the result's reparametrization is the accumulated change of
    coordinates."""
    x, f = a.cactus, a.reparam
    y, g = b.cactus, b.reparam
    k = x.k
    if not 1 <= i <= k:
        raise IndexError("slot %d out of range" % i)
    # step one: new arc lengths for lobe i, the rest untouched
    ends = [ZERO]  # k times the length of lobe i before each of its arcs
    for a0, b0, lab in x.arcs:
        if lab == i:
            ends.append(ends[-1] + (b0 - a0) * k)
    g_ends = _sweep(g, ends)
    spans = zip(ends, ends[1:], g_ends, g_ends[1:])
    new_arcs = []
    gt_x, gt_y = [ZERO], [ZERO]  # graph of the identification map
    pos = ZERO
    for a0, b0, lab in x.arcs:
        if lab == i:
            ca, cb, gca, gcb = next(spans)
            # interior gradient of g contributes breakpoints
            for p, gp in zip(g.breakpoints, g.values):
                if ca <= p <= cb:
                    t = a0 + (p - ca) / k
                    val = pos + (gp - gca) / k
                    if t > gt_x[-1]:
                        gt_x.append(t)
                        gt_y.append(val)
            newlen = (gcb - gca) / k
        else:
            newlen = b0 - a0
        pos += newlen
        new_arcs.append((pos - newlen, pos, lab))
        if b0 > gt_x[-1]:
            gt_x.append(b0)
            gt_y.append(pos)
    xt = Cactus(k, new_arcs)
    gtilde = monotone_reparam(gt_x, gt_y)
    z, h = _insert(xt, i, y)
    return MSElement(z, pl_compose(h, pl_compose(gtilde, f)))


def gamma_cact1(x, ys):
    """Simultaneous insertion of one cactus per lobe, the
    scale-and-subdivide rule: lobe j is scaled by k*m_j/n and each of its
    arcs is cut along the arcs of ys[j-1] it traverses."""
    k = x.k
    if len(ys) != k:
        raise ValueError("need one cactus per lobe")
    m = [y.k for y in ys]
    n = sum(m)
    offset = [sum(m[:r]) for r in range(k)]
    # seen[j-1]: k times the length of lobe j in the arcs already passed,
    # the value of lobe j's step map at the current arc's left end
    seen = [ZERO] * k
    arcs = []
    for (a, b, lab), ga in zip(x.arcs, _scaled_ends(x, m)):
        ca = seen[lab - 1]
        cb = seen[lab - 1] = ca + (b - a) * k
        for p, q, ly in ys[lab - 1].arcs:
            lo, hi = max(p, ca), min(q, cb)
            if hi > lo:
                arcs.append((ga + (lo - ca) * m[lab - 1] / n,
                             ga + (hi - ca) * m[lab - 1] / n,
                             offset[lab - 1] + ly))
    return Cactus(n, arcs)


def gamma_ms(a, bs):
    "Simultaneous composition, realized by folding from the last slot."
    if len(bs) != a.cactus.k:
        raise ValueError("need one element per lobe")
    out = a
    for i in range(len(bs), 0, -1):
        out = ms_compose(out, i, bs[i - 1])
    return out


def rescaling_identity_check(x, ys):
    """Composing (x, inverse scaling map) with the (y_i, id) must land on
    (simultaneous cactus composition, id), exactly."""
    m = [y.k for y in ys]
    g = scaling_map(x, m)
    lhs = gamma_ms(MSElement(x, pl_invert(g)),
                   [MSElement(y, identity_map()) for y in ys])
    return lhs == MSElement(gamma_cact1(x, ys), identity_map())


# ---------------------------------------------------------------------------
# Serialization.

def cactus_to_obj(x):
    if x is EMPTY_CACTUS:
        return {"k": 0, "arcs": []}
    return {"k": x.k,
            "arcs": [[frac_to_str(a), frac_to_str(b), lab]
                     for a, b, lab in x.arcs]}


def cactus_from_obj(obj):
    if obj["k"] == 0:
        if obj.get("arcs", []) != []:
            raise CactusError("the 0-lobe cactus has no arcs")
        return EMPTY_CACTUS
    return Cactus(obj["k"],
                  [(Fraction(a), Fraction(b), lab) for a, b, lab in obj["arcs"]])
