"""Trees of trees with edge lengths: the resolution of the labelled-tree
operad by decorated shapes, its strict quotient, and the isomorphism
onto bracketed trees.

A WTree is a shape (planar tree) whose vertices carry operad elements
and whose internal edges carry rational lengths in [0,1]; a bijection
assigns global input indices to the shape's leaves.  The map psi reads
off one bracket per non-root shape vertex, from any WTree; it takes the
same value on both sides of every relation of the strict quotient W0
(a zero-length edge collapses, a unary or nullary vertex merges into
its neighbour).  psi_inverse rebuilds the shape as the nesting forest of
the brackets, and the W0 normal form of w is psi_inverse(psi(w)): one
representative per bracketed tree."""

from __future__ import annotations

from . import trees as T
from .bracketings import ONE, WeightedBracketing, merge_brackets
from .operads import (
    BOElement, OElement, _labelled, eta_element, o_from_obj, o_to_obj,
)


class WTree:
    """shape: planar tree with >= 1 vertex; decorations[v] for each shape
    vertex (DFS id); lengths[v-1] for each non-root shape vertex = length
    of its outgoing edge; leaf_order[i] = planar leaf position of global
    input i+1."""

    __slots__ = ("shape", "leaf_order", "lengths", "decorations")

    def __init__(self, shape, leaf_order, lengths, decorations):
        if shape.is_eta:
            raise ValueError("shape must have at least one vertex")
        idx = T.index(shape)
        n = shape.vertex_count
        decorations = tuple(decorations)
        lengths = tuple([T.as_fraction(x, "lengths") for x in lengths])
        if len(decorations) != n:
            raise ValueError("need one decoration per shape vertex")
        if len(lengths) != n - 1:
            raise ValueError("need one length per non-root shape vertex")
        for x in lengths:
            p, q = x.as_integer_ratio()
            if not 0 <= p <= q:
                raise ValueError("lengths must lie in [0,1]")
        leaf_order = T.as_labelling(
            leaf_order, shape.leaf_count,
            "leaf_order is not a bijection onto the leaves")
        for v in range(n):
            deco = decorations[v]
            if deco.arity != idx.arity(v):
                raise ValueError(
                    "vertex %d has arity %d but its decoration has %d slots"
                    % (v, idx.arity(v), deco.arity))
            for s, (kind, ref) in enumerate(idx.child_entries[v]):
                if kind == "out":
                    want = deco.slot_arity(s + 1)
                    got = decorations[ref].leaf_count
                    if want != got:
                        raise ValueError(
                            "color mismatch on edge %d-%d: slot wants %d, child has %d"
                            % (v, ref, want, got))
        self.shape = shape
        self.leaf_order = leaf_order
        self.lengths = lengths
        self.decorations = decorations

    @property
    def out_color(self):
        return self.decorations[0].leaf_count

    def input_colors(self):
        "Color (arity) of each global input, in input order."
        idx = T.index(self.shape)
        cols = []
        for pos in self.leaf_order:
            v, s = idx.leaf_at[pos]
            cols.append(self.decorations[v].slot_arity(s + 1))
        return cols

    def __eq__(self, other):
        return (isinstance(other, WTree) and self.shape == other.shape
                and self.leaf_order == other.leaf_order
                and self.lengths == other.lengths
                and self.decorations == other.decorations)

    def __hash__(self):
        return hash((self.shape, self.leaf_order, self.lengths, self.decorations))

    def __repr__(self):
        return ("WTree(shape=%r, leaf_order=%s, lengths=%s, decorations=%s)"
                % (self.shape, self.leaf_order,
                   [str(x) for x in self.lengths], list(self.decorations)))


# ---------------------------------------------------------------------------
# The W composite.

def normalize_W(w):
    "The W0 normal form: the representative psi_inverse picks for psi(w)."
    return psi_inverse(psi(w))


def compose_W(a, i, b):
    "Graft b onto global input i of a; the new edge has length 1."
    if not 1 <= i <= len(a.leaf_order):
        raise IndexError("input %d out of range" % i)
    if a.input_colors()[i - 1] != b.out_color:
        raise ValueError("color mismatch: input %d wants %d, argument offers %d"
                         % (i, a.input_colors()[i - 1], b.out_color))
    target = a.leaf_order[i - 1]
    decos, lengths = [], []
    shape = _graft(a, T.index(a.shape).child_entries, target, b, 0, decos,
                   lengths)
    # b's inputs take i..i+kb-1 and its leaves replace a's leaf at
    # target; a's later inputs and leaves move up by kb-1
    kb = len(b.leaf_order)
    shifted = [p + kb - 1 if p > target else p for p in a.leaf_order]
    leaf_order = (shifted[:i - 1] + [target + q for q in b.leaf_order]
                  + shifted[i:])
    return normalize_W(WTree(shape, leaf_order, lengths[1:], decos))


def _graft(a, entries, target, b, v, decos, lengths):
    """a's shape vertex v and everything above it, with b's shape on a's
    leaf `target`; decorations and lengths go to the lists in DFS order
    (None for a's root)."""
    decos.append(a.decorations[v])
    lengths.append(a.lengths[v - 1] if v else None)
    children = []
    for kind, ref in entries[v]:
        if kind == "out":
            children.append(_graft(a, entries, target, b, ref, decos,
                                   lengths))
        elif ref == target:
            decos.extend(b.decorations)
            lengths.append(ONE)
            lengths.extend(b.lengths)
            children.append(b.shape)
        else:
            children.append(T.ETA)
    return T.PlanarTree(children)


# ---------------------------------------------------------------------------
# Projection and the bracketing isomorphism.

def project_with_provenance(w):
    """Total composite of the decorations, spliced in one walk; returns
    (OElement, the shape vertex each composite vertex came from, in the
    composite's DFS order)."""
    idx = T.index(w.shape)
    decos = w.decorations
    pieces = []
    for v, deco in enumerate(decos):
        # the shape child at slot s + 1 replaces the vertex of that slot,
        # its leaves taking the vertex's inputs by the child's tau
        pieces.append((deco.tree, {
            deco.sigma[s]: (ref, decos[ref].tau)
            for s, (kind, ref) in enumerate(idx.child_entries[v])
            if kind == "out"}))
    tree, labels, leaves = T.splice(pieces)
    new = {label: u for u, label in enumerate(labels)}
    # the composite's slots are the shape's leaves, in w's input order
    sigma = []
    for pos in w.leaf_order:
        v, s = idx.leaf_at[pos]
        sigma.append(new[v, decos[v].sigma[s]])
    tau = tuple([leaves[p] for p in decos[0].tau])
    return _labelled(tree, tuple(sigma), tau), [v for v, _ in labels]


def psi(w):
    """One bracket per non-root shape vertex: the composite's vertices
    that come from decorations at or above it, weighted by its edge
    length.  Coinciding brackets keep the larger weight."""
    base, prov = project_with_provenance(w)
    idx = T.index(w.shape)
    above = [[] for _ in range(w.shape.vertex_count)]
    for u, pv in enumerate(prov):
        above[pv].append(u)
    items = []
    # a child's DFS id exceeds its parent's: children are done first
    for v in range(len(above) - 1, 0, -1):
        items.append((frozenset(above[v]), w.lengths[v - 1]))
        above[idx.parent[v]].extend(above[v])
    return BOElement(base, WeightedBracketing(
        base.tree, merge_brackets(items, base.arity)))


def psi_inverse(x):
    """Rebuild the shape as the nesting forest of the brackets, each
    vertex's children in its region's DFS order: every decoration has the
    identity sigma, and every one above the root the identity tau."""
    tree = x.base.tree
    if tree.is_eta:
        return WTree(T.corolla(0), (), (), (eta_element(),))
    out = decos, lengths, leaf_pos = [], [], {}
    shape = _build(tree, out, range(len(x.base.sigma)), x.weighted.weights,
                   None, x.base.tau)
    return WTree(shape, [leaf_pos[v] for v in x.base.sigma], lengths[1:],
                 decos)


def _build(tree, out, region, inner, weight, tau):
    """The shape at and above a bracket's vertex (the whole tree's at the
    root); out is psi_inverse's decorations and lengths, which grow in DFS
    order, and the planar position of the leaf at each base vertex."""
    decos, lengths, leaf_pos = out
    # the maximal brackets strictly inside the region, by their roots
    maximal = {min(vset): (vset, wt) for vset, wt in inner
               if not any(vset < other for other, _ in inner)}
    qt, old, _ = T.region(tree, region,
                          [vset for vset, _ in maximal.values()])
    # slot s + 1 of OElement(qt) is vertex s, which child s fills
    decos.append(OElement(qt, tau=tau))
    lengths.append(weight)
    children = []
    for u in old:
        if u in maximal:
            vset, wt = maximal[u]
            children.append(_build(tree, out, vset, [
                (s, w2) for s, w2 in inner if s < vset], wt, None))
        else:
            leaf_pos[u] = len(leaf_pos)
            children.append(T.ETA)
    return T.PlanarTree(children)


# ---------------------------------------------------------------------------
# Serialization.

def w_to_obj(w):
    return {"shape": T.tree_to_obj(w.shape),
            "leaf_order": [p + 1 for p in w.leaf_order],
            "lengths": [T.frac_to_str(x) for x in w.lengths],
            "decorations": [o_to_obj(d) for d in w.decorations]}


def w_from_obj(obj):
    return WTree(T.tree_from_obj(obj["shape"]),
                 [T.int_from_obj(p) - 1 for p in obj["leaf_order"]],
                 [T.frac_from_obj(x) for x in obj["lengths"]],
                 [o_from_obj(d) for d in obj["decorations"]])
