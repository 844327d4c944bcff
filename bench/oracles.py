"""Independent checks on the outputs of brackops, written without calling
brackops.  Each function returns a description of the first problem it
finds, or None when the output passes.  The benchmark runs them outside
the timed span of a case."""

from fractions import Fraction
from math import comb, factorial

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Closed-form counts.

def little_schroeder(n):
    """Little Schroeder numbers 1, 1, 3, 11, 45, ... (n = 0, 1, 2, ...):
    the partial bracketings of n + 1 letters."""
    s = [1, 1]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[n]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def ordered_bell(n):
    "Ordered set partitions of n elements: 1, 1, 3, 13, 75, 541, ..."
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[n]


def bracketing_count(family, n, maximal):
    """Closed-form number of bracketings of caterpillar(n) or star(n).
    A caterpillar's bracketings are the faces of an associahedron: all of
    them are counted by the little Schroeder numbers and the maximal ones
    by the Catalan numbers.  A star's are the chains of proper nonempty
    sets of arms: all of them are ordered set partitions, the maximal
    ones permutations."""
    if family == "caterpillar":
        return catalan(n - 1) if maximal else little_schroeder(n - 1)
    if family == "star":
        return factorial(n) if maximal else ordered_bell(n)
    raise ValueError("no closed form for %r" % (family,))


def bracketing_count_problem(family, n, maximal, bracketings):
    want = bracketing_count(family, n, maximal)
    sets = [frozenset(b.brackets) for b in bracketings]
    if len(sets) != want:
        return "%s(%d): %d bracketings, closed form gives %d" % (
            family, n, len(sets), want)
    if len(set(sets)) != len(sets):
        return "%s(%d): a bracketing is listed twice" % (family, n)
    if maximal:
        size = n - 2 if family == "caterpillar" else n - 1
        for s in sets:
            if len(s) != size:
                return "%s(%d): a maximal bracketing has %d brackets, not %d" % (
                    family, n, len(s), size)
    return None


# ---------------------------------------------------------------------------
# Tree sizes, read off the recursive representation.

def tree_size(tree):
    "(vertices, leaves) of a planar tree; the vertexless tree is (0, 1)."
    if tree.is_eta:
        return 0, 1
    vertices, leaves = 1, 0
    for child in tree.children:
        if child.is_eta:
            leaves += 1
        else:
            v, l = tree_size(child)
            vertices += v
            leaves += l
    return vertices, leaves


def tree_arities(tree):
    "Vertex arities in depth-first order, root first."
    if tree.is_eta:
        return []
    out = [len(tree.children)]
    for child in tree.children:
        out.extend(tree_arities(child))
    return out


def composite_problem(a, i, b, ab):
    """Sizes of the composite a o_i b of bracketed labelled trees:
    vertices and slots add up less the substituted vertex, and the leaves
    of b replace the inputs of slot i."""
    va, la = tree_size(a.base.tree)
    vb, lb = tree_size(b.base.tree)
    v, l = tree_size(ab.base.tree)
    m = tree_arities(a.base.tree)[a.base.sigma[i - 1]]
    if v != va + vb - 1:
        return "composite has %d vertices, want %d + %d - 1" % (v, va, vb)
    if len(ab.base.sigma) != len(a.base.sigma) + len(b.base.sigma) - 1:
        return "composite has %d slots" % len(ab.base.sigma)
    if l != la + lb - m or len(ab.base.tau) != l:
        return "composite has %d leaves, want %d + %d - %d" % (l, la, lb, m)
    return None


def psi_inverse_problem(x, w):
    """psi_inverse(x) has one shape vertex per bracket of x plus the root,
    and its edge lengths are the bracket weights."""
    weights = sorted(wt for _, wt in x.weighted.weights)
    v, _ = tree_size(w.shape)
    if v != len(weights) + 1:
        return "shape has %d vertices for %d brackets" % (v, len(weights))
    if sorted(w.lengths) != weights:
        return "lengths %s are not the weights %s" % (
            [str(t) for t in sorted(w.lengths)], [str(t) for t in weights])
    if len(w.leaf_order) != len(x.base.sigma):
        return "%d inputs for %d slots" % (len(w.leaf_order), len(x.base.sigma))
    return None


# ---------------------------------------------------------------------------
# Normalized cacti and their step maps.

def cactus_problem(x, k=None):
    """Arcs cover [0,1] in order, each lobe has total length 1/k, and no
    two lobes interleave around the circle."""
    if k is not None and x.k != k:
        return "%d lobes, want %d" % (x.k, k)
    arcs = list(x.arcs)
    if not arcs or arcs[0][0] != 0 or arcs[-1][1] != 1:
        return "arcs do not start at 0 and end at 1"
    for (a0, b0, _), (a1, _, _) in zip(arcs, arcs[1:]):
        if b0 != a1:
            return "gap or overlap at %s" % b0
    length = {}
    for a, b, lab in arcs:
        if not a < b:
            return "empty arc at %s" % a
        length[lab] = length.get(lab, ZERO) + (b - a)
    if sorted(length) != list(range(1, x.k + 1)):
        return "labels %s are not 1..%d" % (sorted(length), x.k)
    for lab, total in length.items():
        if total != Fraction(1, x.k):
            return "lobe %d has length %s, not 1/%d" % (lab, total, x.k)
    # walking around the circle, two lobes interleave when their labels
    # alternate more than twice (the pattern i..j..i..j)
    labels = [lab for _, _, lab in arcs]
    for i in range(1, x.k + 1):
        for j in range(i + 1, x.k + 1):
            runs = []
            for lab in labels:
                if lab in (i, j) and (not runs or runs[-1] != lab):
                    runs.append(lab)
            if len(runs) > 1 and runs[0] == runs[-1]:
                runs.pop()
            if len(runs) > 2:
                return "lobes %d and %d interleave" % (i, j)
    return None


def pl_value(breakpoints, values, t):
    "A piecewise-linear map given by its breakpoints, evaluated at t."
    for x0, x1, y0, y1 in zip(breakpoints, breakpoints[1:], values, values[1:]):
        if t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    return values[-1]


def step_value(x, j, s):
    "k times the length of lobe j seen in [0, s]."
    seen = ZERO
    for a, b, lab in x.arcs:
        if lab == j and a < s:
            seen += min(b, s) - a
    return x.k * seen


def step_map_problem(elem, ts, values):
    """values[j-1][r] must be the j-th step map of elem's cactus, taken
    after elem's reparametrization, at ts[r]."""
    x, f = elem.cactus, elem.reparam
    if len(values) != x.k:
        return "%d step maps for %d lobes" % (len(values), x.k)
    for r, t in enumerate(ts):
        s = pl_value(f.breakpoints, f.values, t)
        for j in range(1, x.k + 1):
            want = step_value(x, j, s)
            if values[j - 1][r] != want:
                return "step map %d at %s is %s, arc lengths give %s" % (
                    j, t, values[j - 1][r], want)
    return None


def is_identity_map(f):
    return tuple(f.breakpoints) == (ZERO, ONE) and tuple(f.values) == (ZERO, ONE)


# ---------------------------------------------------------------------------
# Tree-category morphisms.

def image_union(morphisms):
    """Vertex images of the composite of plain tree morphisms
    [innermost, ..., outermost], as unions of the factors' images."""
    images = [frozenset(s) for s in morphisms[0].vertex_images]
    for g in morphisms[1:]:
        images = [frozenset(u for v in img for u in g.vertex_images[v])
                  for img in images]
    return images


def thickened_problem(m, images):
    """m's vertex images must be `images`, and each bracket family must be
    large proper nested subsets of its image with weights in (0,1]."""
    if [frozenset(s) for s in m.base.vertex_images] != images:
        return "vertex images differ from the unions of the factors"
    for img, family in zip(images, m.brackets):
        sets = [s for s, _ in family]
        for s, w in family:
            if not (len(s) >= 2 and s < img and 0 < w <= 1):
                return "bracket %s (weight %s) on image %s" % (
                    sorted(s), w, sorted(img))
        for p in range(len(sets)):
            for q in range(p + 1, len(sets)):
                inter = sets[p] & sets[q]
                if inter and inter != sets[p] and inter != sets[q]:
                    return "brackets %s and %s overlap" % (
                        sorted(sets[p]), sorted(sets[q]))
    return None
