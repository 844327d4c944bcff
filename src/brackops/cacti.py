"""Normalized cacti: partitions of the circle [0,1]/~ into k labelled
closed 1-manifolds of length 1/k each, subject to non-interleaving.

The circle is cut at 0, so a cactus is an ordered list of arcs.  Their
endpoints are held as integer cuts over one common denominator, which
the cactus and scaling maps hand to PLMap as they are; a Fraction is
made only for a reader: in Cactus.arcs, in repr, JSON and error
messages.  Composition is implemented twice: once on (cactus,
reparametrization) pairs via the two-step normal form of the
coendomorphism composite, and once directly on cacti by the
scale-and-subdivide rule; the rescaling identity ties the two together.

Units are neutral and cost nothing.  A 1-lobe normalized cactus is the
unit, so inserting one in every lobe returns the cactus itself; equal
multipliers scale every lobe by 1, so their scaling map is the
identity; and an identity reparametrization resizes no arc, so
composing with it is a plain insertion.  Each of these returns, after
the input checks, what the general path would build.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .trees import as_labelling, frac_from_obj, frac_to_str, int_from_obj
from .plmaps import IDENTITY, PLMap, identity_map, pl_compose, pl_invert

ZERO = Fraction(0)
ONE = Fraction(1)


class CactusError(ValueError):
    pass


class Cactus:
    """k labelled lobes as consecutive arcs covering [0,1]: arc r runs
    from cuts[r]/den to cuts[r+1]/den in lobe labels[r].  Canonical form:
    adjacent arcs of one lobe are merged and gcd(den, *cuts) = 1, so two
    cacti are equal iff their fields are."""

    __slots__ = ("k", "den", "cuts", "labels")

    def __init__(self, k, arcs):
        """From an int lobe count and (start, end, label) triples with
        int or Fraction ends and int labels; empty arcs are dropped.  A
        bool, a float or a string is refused as a count, a label or an
        end."""
        arcs = list(arcs)
        for n in (k, *[lab for _, _, lab in arcs]):
            if type(n) is not int:
                raise CactusError("lobe count and labels must be ints, got %r"
                                  % (n,))
        for z in [z for a, b, _ in arcs for z in (a, b)]:
            if type(z) not in (int, Fraction):
                raise CactusError("arc ends must be ints or Fractions, got %r"
                                  % (z,))
        den = lcm(*[z.denominator for a, b, _ in arcs for z in (a, b)])
        self._set(k, den, [
            (a.numerator * (den // a.denominator),
             b.numerator * (den // b.denominator), lab) for a, b, lab in arcs])

    def _set(self, k, den, arcs):
        """Check and store the integer (start, end, label) arcs over den:
        they cover [0, den] in order, every lobe has length den/k and no
        two lobes interleave."""
        if k < 1:
            raise CactusError("lobe count must be >= 1 (the empty cactus is EMPTY_CACTUS)")
        merged = []
        for a, b, lab in arcs:
            if b <= a:
                continue
            if merged and merged[-1][2] == lab and merged[-1][1] == a:
                merged[-1] = (merged[-1][0], b, lab)
            else:
                merged.append((a, b, lab))
        if not merged:
            raise CactusError("no arcs")
        if merged[0][0] != 0 or merged[-1][1] != den:
            raise CactusError("arcs must cover [0,1]")
        cuts = [0]
        for a, b, _ in merged:
            if a != cuts[-1]:
                raise CactusError("arcs must be consecutive")
            cuts.append(b)
        labels = [lab for _, _, lab in merged]
        totals = {}
        for a, b, lab in merged:
            if not 1 <= lab <= k:
                raise CactusError("label %d outside 1..%d" % (lab, k))
            totals[lab] = totals.get(lab, 0) + b - a
        # with fewer labels than lobes, one of 1..len(totals)+1 is missing,
        # so the first lobe of the wrong length is found among them
        for lab in range(1, min(k, len(totals) + 1) + 1):
            total = totals.get(lab, 0)
            if total * k != den:
                raise CactusError("lobe %d has length %s, expected %s"
                                  % (lab, Fraction(total, den), Fraction(1, k)))
        _check_interleaving(labels)
        g = gcd(*cuts)
        self.k = k
        self.den = den // g
        self.cuts = tuple([c // g for c in cuts])
        self.labels = tuple(labels)

    @property
    def arcs(self):
        "The arcs as (start, end, label) with Fraction ends, made on each read."
        d, c = self.den, self.cuts
        return tuple([(Fraction(c[r], d), Fraction(c[r + 1], d), lab)
                      for r, lab in enumerate(self.labels)])

    def __eq__(self, other):
        return (isinstance(other, Cactus) and self.k == other.k
                and self.den == other.den and self.cuts == other.cuts
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.k, self.den, self.cuts, self.labels))

    def __repr__(self):
        return "Cactus(%d, %s)" % (
            self.k, [(str(a), str(b), l) for a, b, l in self.arcs])


def _from_arcs(k, den, arcs):
    "The cactus of integer (start, end, label) arcs over den, checked."
    x = Cactus.__new__(Cactus)
    x._set(k, den, arcs)
    return x


def _check_interleaving(labels):
    """Refuse two lobes whose labels read i..j..i..j along the circle, in
    one pass over the arcs' labels: the lobes on the stack are open, and
    coming back to one closes the lobes opened after it, which may not
    come back."""
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


class _EmptyCactus:
    "The 0-ary point; carries no arcs and supports no composition."

    k = 0
    den = 1
    cuts = (0,)
    labels = ()
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
    k, d, cuts = x.k, x.den, x.cuts
    out = []
    for lab in range(1, k + 1):
        ys = [0]
        for r, l in enumerate(x.labels):
            ys.append(ys[-1] + (cuts[r + 1] - cuts[r]) * k if l == lab
                      else ys[-1])
        out.append(PLMap(cuts, d, ys, d))
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
    """1 minus the length on which the two cacti have the same lobe, in
    one sweep over both arc lists on their common denominator."""
    if x.k != y.k:
        raise CactusError("lobe counts differ")
    if x.k == 0:
        return ZERO  # EMPTY_CACTUS is the one 0-lobe point
    d = lcm(x.den, y.den)
    xc = [c * (d // x.den) for c in x.cuts]
    yc = [c * (d // y.den) for c in y.cuts]
    xl, yl = x.labels, y.labels
    overlap = r = q = 0
    while r < len(xl):  # both lists end at d, so r and q run out together
        xe, ye = xc[r + 1], yc[q + 1]
        if xl[r] == yl[q]:
            overlap += min(xe, ye) - max(xc[r], yc[q])
        r, q = r + (xe <= ye), q + (ye <= xe)
    return Fraction(d - overlap, d)


# ---------------------------------------------------------------------------
# Scaling maps.

def _check_multipliers(x, m):
    "Refuse m unless it has one positive multiplier per lobe of x."
    if len(m) != x.k:
        raise ValueError("need one multiplier per lobe")
    if any(v <= 0 for v in m):
        raise ValueError("multipliers must be >= 1 (zero breaks monotonicity)")


def _scaled_ends(x, m):
    """The values of scaling_map(x, m) at 0 and at the end of each arc,
    as integers over x.den * sum(m): the cumulative sums of the arc
    lengths, lobe j scaled by k*m[j-1]/sum(m).  m has passed
    _check_multipliers."""
    k, cuts = x.k, x.cuts
    ends = [0]
    for r, lab in enumerate(x.labels):
        ends.append(ends[-1] + (cuts[r + 1] - cuts[r]) * k * m[lab - 1])
    return ends


def scaling_map(x, m):
    """The reparametrization that scales lobe j by k*m[j-1]/sum(m);
    strictly monotone only when every multiplier is positive."""
    _check_multipliers(x, m)
    if len(set(m)) == 1:
        return IDENTITY  # lobe j is scaled by k*c/(k*c) = 1
    return PLMap(x.cuts, x.den, _scaled_ends(x, m), x.den * sum(m))


def relabel_cactus(x, perm):
    "perm[old-1] = new label (1-based); a bijection on 1..k."
    perm = as_labelling(perm, x.k, "not a permutation of 1..%d" % x.k, 1)
    c = x.cuts
    return _from_arcs(x.k, x.den, [(c[r], c[r + 1], perm[lab - 1])
                                   for r, lab in enumerate(x.labels)])


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
    if g == IDENTITY:
        # step one resizes nothing: xt is x and gtilde the identity
        z, h = _insert(x, i, y)
        return MSElement(z, pl_compose(h, f))
    # step one: new arc lengths for lobe i, the rest untouched
    d, cuts, labels = x.den, x.cuts, x.labels
    ends = [0]  # k times the length of lobe i before each of its arcs, over d
    for r, lab in enumerate(labels):
        if lab == i:
            ends.append(ends[-1] + (cuts[r + 1] - cuts[r]) * k)
    g_ends = [g.at(e, d) for e in ends]
    # one denominator w for x, g's graph and g at the ends; the factor k
    # makes every division by k below exact
    w = k * lcm(d, g.dx, g.dy, *[q for _, q in g_ends])
    s = w // d
    gx = [x * (w // g.dx) for x in g.nx]
    gy = [y * (w // g.dy) for y in g.ny]
    ge = [p * (w // q) for p, q in g_ends]
    arcs = []
    gt_x, gt_y = [0], [0]  # graph of the identification map, over w
    pos = j = 0
    q = 1  # g's first breakpoint above the current arc's start
    for r, lab in enumerate(labels):
        a0, b0 = cuts[r] * s, cuts[r + 1] * s
        if lab == i:
            ca, cb = ends[j] * s, ends[j + 1] * s
            gca, gcb = ge[j], ge[j + 1]
            j += 1
            # interior breakpoints of g are breakpoints of the graph
            while gx[q] <= ca:
                q += 1
            while gx[q] < cb:
                gt_x.append(a0 + (gx[q] - ca) // k)
                gt_y.append(pos + (gy[q] - gca) // k)
                q += 1
            newlen = (gcb - gca) // k
        else:
            newlen = b0 - a0
        arcs.append((pos, pos + newlen, lab))
        pos += newlen
        gt_x.append(b0)
        gt_y.append(pos)
    xt = _from_arcs(k, w, arcs)
    gtilde = PLMap(gt_x, w, gt_y, w)  # strictly increasing, as g is
    z, h = _insert(xt, i, y)
    return MSElement(z, pl_compose(h, pl_compose(gtilde, f)))


def gamma_cact1(x, ys):
    """Simultaneous insertion of one cactus per lobe, the
    scale-and-subdivide rule: lobe j is scaled by k*m_j/n and each of its
    arcs is cut along the arcs of ys[j-1] it traverses.  x and the ys are
    read on their common denominator l, the result is cut over l*n."""
    k = x.k
    if len(ys) != k:
        raise ValueError("need one cactus per lobe")
    m = [y.k for y in ys]
    _check_multipliers(x, m)
    if set(m) == {1}:
        return x  # a 1-lobe normalized cactus is the unit
    ends = _scaled_ends(x, m)  # over x.den * n
    n = sum(m)
    offset = [sum(m[:r]) for r in range(k)]
    l = lcm(x.den, *[y.den for y in ys])
    s = l // x.den
    ycuts = [[c * (l // y.den) for c in y.cuts] for y in ys]
    cuts = x.cuts
    # seen[j-1]: k times the length of lobe j in the arcs already passed,
    # over l, the value of lobe j's step map at the current arc's left end
    seen = [0] * k
    arcs = []
    for r, lab in enumerate(x.labels):
        j = lab - 1
        ca = seen[j]
        cb = seen[j] = ca + (cuts[r + 1] - cuts[r]) * s * k
        ga, mj, yc = ends[r] * s, m[j], ycuts[j]
        for p, ly in enumerate(ys[j].labels):
            lo, hi = max(yc[p], ca), min(yc[p + 1], cb)
            if hi > lo:
                arcs.append((ga + (lo - ca) * mj, ga + (hi - ca) * mj,
                             offset[j] + ly))
    return _from_arcs(n, l * n, arcs)


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
    k = int_from_obj(obj["k"])
    if k == 0:
        if obj.get("arcs", []) != []:
            raise CactusError("the 0-lobe cactus has no arcs")
        return EMPTY_CACTUS
    return Cactus(k, [(frac_from_obj(a), frac_from_obj(b), int_from_obj(lab))
                      for a, b, lab in obj["arcs"]])
