"""Bracketings of a planar tree: nested families of large proper
subtrees, the inclusion poset, its order complex, and weighted
bracketings with their chain form (`chain_levels`)."""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .trees import (
    as_fraction, enumerate_subtrees, frac_from_obj, frac_to_str, index,
    int_from_obj, set_roots, vset_key, vsets_nested,
)

ONE = Fraction(1)  # the full weight


def check_brackets(tree, sets, within):
    """Refuse a bracket family: each set must have at least 2 vertices,
    be a proper subset of `within` (a connected vertex set of the tree)
    and be connected, and every two sets must be nested.  Sets are
    checked in the order given."""
    if not sets:
        return
    parent = index(tree).parent
    for b in sets:
        if len(b) < 2:
            raise ValueError("bracket %s is not large" % sorted(b))
        if not b < within:
            raise ValueError("bracket %s is not proper" % sorted(b))
        if len(set_roots(parent, b)) != 1:
            raise ValueError("bracket %s is not a subtree" % sorted(b))
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if not vsets_nested(a, b):
                raise ValueError("brackets %s and %s are not nested"
                                 % (sorted(a), sorted(b)))


def canonical_weights(weights):
    """The (frozenset, Fraction) items of a dict or of (set, weight)
    pairs in canonical order of their sets, with weight 0 dropped;
    refuses a weight that is not an int or a Fraction, one outside [0,1]
    and a set given twice."""
    pairs = []
    for vset, w in (weights.items() if isinstance(weights, dict) else weights):
        w = as_fraction(w, "weights")
        p, q = w.as_integer_ratio()
        if p == 0:
            continue
        if not 0 < p <= q:
            raise ValueError("weight %s outside (0,1]" % w)
        pairs.append((frozenset(vset), w))
    items = in_canonical_order(pairs)
    # a repeated set sorts next to itself
    if any(a[0] == b[0] for a, b in zip(items, items[1:])):
        raise ValueError("duplicate bracket")
    return items


def in_canonical_order(pairs):
    """(frozenset, weight) pairs as a tuple sorted by `vset_key` of their
    sets: the one canonical order of a bracket family, which
    canonical_weights puts outside input in and the derived constructors
    put derived families in."""
    keyed = sorted([(vset_key(v), v, w) for v, w in pairs], key=itemgetter(0))
    return tuple([(v, w) for _, v, w in keyed])


def _all_vertices(tree):
    return frozenset(range(tree.vertex_count))


class Bracketing:
    "A set of nested, large (>= 2 vertices), proper subtrees of a tree."

    __slots__ = ("tree", "brackets")

    def __init__(self, tree, brackets=()):
        brackets = [frozenset(b) for b in brackets]
        check_brackets(tree, brackets, _all_vertices(tree))
        self.tree = tree
        self.brackets = frozenset(brackets)

    def sorted_brackets(self):
        return sorted(self.brackets, key=vset_key)

    def __eq__(self, other):
        return (isinstance(other, Bracketing) and self.tree == other.tree
                and self.brackets == other.brackets)

    def __hash__(self):
        return hash((self.tree, self.brackets))

    def __repr__(self):
        return "Bracketing(%s)" % [sorted(b) for b in self.sorted_brackets()]


class WeightedBracketing:
    """A bracketing with a rational weight in (0,1] per bracket.  Normal
    form: weight-0 brackets are dropped at construction time."""

    __slots__ = ("tree", "weights")

    def __init__(self, tree, weights):
        items = canonical_weights(weights)
        check_brackets(tree, [v for v, _ in items], _all_vertices(tree))
        self.tree = tree
        self.weights = items

    def __eq__(self, other):
        return (isinstance(other, WeightedBracketing)
                and self.tree == other.tree and self.weights == other.weights)

    def __hash__(self):
        return hash((self.tree, self.weights))

    def __repr__(self):
        return "WeightedBracketing(%s)" % (
            [(sorted(v), str(w)) for v, w in self.weights],)


def _weighted_in_order(tree, merged):
    """The weighted bracketing of a dict {vertex set: weight in (0,1]}
    that a library operation derived from already checked values: put
    in canonical order, not checked again."""
    wb = object.__new__(WeightedBracketing)
    wb.tree = tree
    wb.weights = in_canonical_order(merged.items())
    return wb


def merge_brackets(items, size):
    """The (vertex set, weight) items whose set has at least 2 and fewer
    than `size` vertices, as a dict; a repeated set keeps its larger
    weight."""
    out = {}
    for vset, w in items:
        if 2 <= len(vset) < size and (vset not in out or out[vset] < w):
            out[vset] = w
    return out


def enumerate_bracketings(tree):
    """All bracketings of the tree, sorted canonically: by bracket count,
    then by the canonical keys of their sorted brackets; the empty
    bracketing is always first."""
    n = tree.vertex_count
    # enumerate_subtrees lists the candidates in canonical order, so the
    # depth-first walk meets each bracket count's bracketings in order
    subs = [s.vertex_set for s in enumerate_subtrees(tree, 2)
            if len(s.vertex_set) < n]
    by_count = []
    _extend(tree, by_count, [], subs)
    return [b for level in by_count for b in level]


def _extend(tree, by_count, chosen, rest):
    "File `chosen` by its bracket count, then its extensions from `rest`."
    if len(chosen) == len(by_count):
        by_count.append([])
    by_count[len(chosen)].append(Bracketing(tree, chosen))
    for pos, cand in enumerate(rest):
        nxt = [r for r in rest[pos + 1:] if vsets_nested(cand, r)]
        _extend(tree, by_count, chosen + [cand], nxt)


def maximal_bracketings(tree):
    """Bracketings not strictly contained in any other: the top rank of
    the enumeration, in its order.  The bracketings are the tubings of
    the line graph of the inner edges, a connected graph, so they form
    the face poset of a simple polytope, its graph associahedron
    (Carr-Devadoss 2006): every maximal one has the same bracket count,
    nv - 2 (none below 2 vertices)."""
    all_b = enumerate_bracketings(tree)
    top = len(all_b[-1].brackets)
    return [b for b in all_b if len(b.brackets) == top]


def check_enumeration_limit(tree, limit):
    "Refuse a tree whose bracketings are too many to enumerate."
    if tree.vertex_count > limit:
        raise ValueError("tree exceeds the enumeration limit (%d vertices)" % limit)


def nerve_statistics(tree):
    """f-vector and Euler characteristic of the order complex of the
    bracketing poset: f[r] counts chains of r+1 distinct bracketings;
    chi = sum (-1)^r f[r].  Contractibility shows up as chi == 1.  A
    tree of more than 7 vertices is refused."""
    check_enumeration_limit(tree, 7)
    elems = enumerate_bracketings(tree)
    width = len(elems[-1].brackets) + 1
    # chains[j][r] counts the chains of r+1 bracketings with top elems[j];
    # a strict subset has fewer brackets, so it is enumerated earlier
    chains = []
    for b in elems:
        row = [1] + [0] * (width - 1)
        for a, below in zip(elems, chains):
            if a.brackets < b.brackets:
                for r in range(1, width):
                    row[r] += below[r - 1]
        chains.append(row)
    fvec = [sum(col) for col in zip(*chains)]
    chi = sum((-1) ** r * f for r, f in enumerate(fvec))
    return tuple(fvec), chi


def chain_levels(items):
    """The chain form of (bracket, weight) items: the distinct weights in
    descending order, with 1 prepended when missing, and for each value
    the canonically sorted brackets of weight >= it.  Weight-0 items are
    kept; they fall into the last level, of value 0."""
    values = sorted({w for _, w in items}, reverse=True)
    if not values or values[0] != 1:
        values = [ONE] + values
    levels = [sorted((frozenset(b) for b, w in items if w >= val),
                     key=vset_key)
              for val in values]
    return values, levels


# ---------------------------------------------------------------------------
# Serialization.

def bracketing_to_obj(b):
    return [sorted(v) for v in b.sorted_brackets()]


def weighted_to_obj(w):
    return [{"vertices": sorted(v), "w": frac_to_str(wt)} for v, wt in w.weights]


def weighted_from_obj(tree, obj):
    return WeightedBracketing(
        tree, [(frozenset(map(int_from_obj, d["vertices"])),
                frac_from_obj(d["w"])) for d in obj])
