"""Mutable nests: the tree model the surgery once used, kept as an
independent reference for the tests.  A nest opens a tree into labelled
nodes that code splices in place and then closes; the labels carry each
vertex's and leaf's provenance through the operation.  The nest-based
psi_inverse, compose_W and augment below are the earlier versions of
the ones in brackops, which build their trees in one walk instead."""

from fractions import Fraction

from brackops import trees as T
from brackops.bracketings import Bracketing
from brackops.operads import OElement, eta_element
from brackops.trees import ETA, PlanarTree
from brackops.wconstruction import WTree, psi


class Nest:
    "A mutable tree node: `children` is a list of nodes, or None on a leaf."

    __slots__ = ("label", "children")

    def __init__(self, label, children=None):
        self.label = label
        self.children = children


def open_nest(tree, vertex, leaf):
    """The tree as a nest whose vertex v is labelled vertex(v) and whose
    leaf at planar position p is labelled leaf(p).  Returns the root, the
    vertex nodes in DFS order and the (parent node, slot) of each leaf in
    planar order; the vertexless tree is a lone leaf with parent None."""
    verts = []
    leaves = []

    def rec(node):
        me = Nest(vertex(len(verts)), [])
        verts.append(me)
        for s, ch in enumerate(node.children):
            if ch.is_eta:
                me.children.append(Nest(leaf(len(leaves))))
                leaves.append((me, s))
            else:
                me.children.append(rec(ch))
        return me

    if tree.is_eta:
        return Nest(leaf(0)), verts, [(None, None)]
    return rec(tree), verts, leaves


def close_nest(root):
    """(tree, vertex nodes in DFS order, leaf nodes in planar order) of a
    nest."""
    verts = []
    leaves = []

    def rec(node):
        if node.children is None:
            leaves.append(node)
            return ETA
        verts.append(node)
        return PlanarTree(tuple(rec(c) for c in node.children))

    return rec(root), verts, leaves


# ---------------------------------------------------------------------------
# W trees as nests.

class _N:
    """Nest label of a shape vertex: its decoration and the length of its
    outgoing edge (None at the root)."""

    __slots__ = ("deco", "length")

    def __init__(self, deco, length):
        self.deco = deco
        self.length = length


def _to_nest(w, relabel=lambda label: label):
    """Open w as a nest (open_nest) with _N vertex labels; the leaf
    receiving global input i is labelled relabel(i).  Returns the root
    and the (parent node, slot) of each leaf in planar order."""
    lengths = (None,) + w.lengths
    label_at = [None] * len(w.leaf_order)
    for i, pos in enumerate(w.leaf_order):
        label_at[pos] = relabel(i)
    root, _, leaves = open_nest(
        w.shape, lambda v: _N(w.decorations[v], lengths[v]),
        label_at.__getitem__)
    return root, leaves


def _from_nest(root):
    shape, verts, leaves = close_nest(root)
    leaf_order = [None] * len(leaves)
    for pos, leaf in enumerate(leaves):
        leaf_order[leaf.label] = pos
    return WTree(shape, leaf_order, [n.label.length for n in verts[1:]],
                 [n.label.deco for n in verts])


def nest_psi_inverse(x):
    """Reference for psi_inverse: build the forest as a nest, each node's
    children in its region's DFS order."""
    tree = x.base.tree
    if tree.is_eta:
        return _from_nest(Nest(_N(eta_element(), None), []))
    label_of_vertex = {v: i for i, v in enumerate(x.base.sigma)}

    def build(region, inner, weight, tau):
        # the maximal brackets strictly inside the region, by their roots
        maximal = {min(vset): (vset, wt) for vset, wt in inner
                   if not any(vset < other for other, _ in inner)}
        qt, old, _ = T.region(tree, region,
                              [vset for vset, _ in maximal.values()])
        slots = []
        for u in old:
            if u in maximal:
                vset, wt = maximal[u]
                slots.append(build(vset, [(s, w2) for s, w2 in inner
                                          if s < vset], wt, None))
            else:
                slots.append(Nest(label_of_vertex[u]))
        deco = OElement(qt, tau=tau)
        return Nest(_N(deco, weight), slots)

    return _from_nest(build(range(len(x.base.sigma)), x.weighted.weights,
                            None, x.base.tau))


def nest_compose_W(a, i, b):
    """Reference for compose_W: open both as nests, hang b on a's leaf,
    close and normalize through nest_psi_inverse."""
    kb = len(b.leaf_order)
    # a's inputs after i shift up by kb-1; b's inputs sit at i..i+kb-1
    na, leaves = _to_nest(a, lambda lab: lab if lab < i else lab + kb - 1)
    nb = _to_nest(b, lambda lab: lab + i - 1)[0]
    nb.label.length = Fraction(1)
    parent, slot = leaves[a.leaf_order[i - 1]]
    parent.children[slot] = nb
    return nest_psi_inverse(psi(_from_nest(na)))


def nest_augment(base, brackets):
    """Reference for augment: wrap each bracket's root node in a unary
    node, in canonical order, so the smaller brackets end inside."""
    sets = Bracketing(base.tree, brackets).sorted_brackets()
    root, verts, _ = open_nest(base.tree, lambda v: ("vertex", v),
                               lambda p: None)
    # smaller brackets wrap first, so the largest ends nearest the root
    for j, b in enumerate(sets):
        node = verts[T.subtree_root(base.tree, b)]
        inner = Nest(node.label, node.children)
        node.label, node.children = ("bracket", j), [inner]
    tree, new_verts, _ = close_nest(root)
    new = {node.label: u for u, node in enumerate(new_verts)}
    sigma2 = tuple(new["vertex", v] for v in base.sigma) \
        + tuple(new["bracket", j] for j in range(len(sets)))
    return OElement(tree, sigma2, base.tau), sets
