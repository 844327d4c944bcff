"""Trees of trees with edge lengths: the resolution of the labelled-tree
operad by decorated shapes, its strict quotient, and the isomorphism
onto bracketed trees.

A WTree is a shape (planar tree) whose vertices carry operad elements
and whose internal edges carry rational lengths in [0,1]; a bijection
assigns global input indices to the shape's leaves.  Normalization
collapses zero-length edges (composing decorations) and, in the strict
mode "W0", eliminates unary and nullary shape vertices entirely.  The
map psi reads off one bracket per non-root shape vertex; psi_inverse
rebuilds the shape as the nesting forest of the brackets."""

from __future__ import annotations

import json
from fractions import Fraction

from . import trees as T
from .bracketings import WeightedBracketing
from .operads import (
    BOElement, OElement, compose_O, compose_O_with_maps, eta_element,
    o_from_obj, o_to_obj, o_unit, sigma_act_O,
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
        n = idx.num_vertices()
        decorations = tuple(decorations)
        lengths = tuple(Fraction(x) for x in lengths)
        leaf_order = tuple(leaf_order)
        if len(decorations) != n:
            raise ValueError("need one decoration per shape vertex")
        if len(lengths) != n - 1:
            raise ValueError("need one length per non-root shape vertex")
        if any(not 0 <= x <= 1 for x in lengths):
            raise ValueError("lengths must lie in [0,1]")
        if sorted(leaf_order) != list(range(len(idx.leaf_at))):
            raise ValueError("leaf_order is not a bijection onto the leaves")
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
# Surgery on the shape, opened as a trees.Nest.

class _N:
    """Nest label of a shape vertex: its decoration and the length of its
    outgoing edge (None at the root)."""

    __slots__ = ("deco", "length")

    def __init__(self, deco, length):
        self.deco = deco
        self.length = length


def _to_nest(w, relabel=lambda label: label):
    """Open w as a nest (trees.open_nest) with _N vertex labels; the leaf
    receiving global input i is labelled relabel(i).  Returns the root
    and the (parent node, slot) of each leaf in planar order."""
    lengths = (None,) + w.lengths
    label_at = [None] * len(w.leaf_order)
    for i, pos in enumerate(w.leaf_order):
        label_at[pos] = relabel(i)
    root, _, leaves = T.open_nest(
        w.shape, lambda v: _N(w.decorations[v], lengths[v]),
        label_at.__getitem__)
    return root, leaves


def _from_nest(root):
    shape, verts, leaves = T.close_nest(root)
    leaf_order = [None] * len(leaves)
    for pos, leaf in enumerate(leaves):
        leaf_order[leaf.label] = pos
    return WTree(shape, leaf_order, [n.label.length for n in verts[1:]],
                 [n.label.deco for n in verts])


def _merge_child(parent, slot):
    "Compose the vertex child at `slot` into the parent (edge collapse)."
    child = parent.children[slot]
    parent.label.deco = compose_O(parent.label.deco, slot + 1,
                                  child.label.deco)
    parent.children[slot:slot + 1] = child.children


def _slide_unary(parent, slot):
    "Compose a unary vertex child downward into the parent."
    child = parent.children[slot]
    parent.label.deco = compose_O(parent.label.deco, slot + 1,
                                  child.label.deco)
    grand = child.children[0]
    if (grand.children is not None and grand.label.length is not None
            and child.label.length is not None):
        grand.label.length = max(grand.label.length, child.label.length)
    parent.children[slot] = grand


def _remove_nullary(parent, slot):
    "Compose a childless vertex into the parent, deleting the slot."
    parent.label.deco = compose_O(parent.label.deco, slot + 1, eta_element())
    del parent.children[slot]


def _moves(root, mode):
    "All applicable rewrites, each as (name, apply-thunk)."
    out = []

    def scan(node):
        for s, c in enumerate(node.children):
            if c.children is None:
                continue
            if c.label.length == 0:
                out.append(("collapse", lambda n=node, s=s: _merge_child(n, s)))
            elif mode == "W0" and len(c.children) == 0:
                out.append(("nullary", lambda n=node, s=s: _remove_nullary(n, s)))
            elif len(c.children) == 1 and (
                    mode == "W0"
                    or c.label.deco == o_unit(c.label.deco.leaf_count)):
                out.append(("unary", lambda n=node, s=s: _slide_unary(n, s)))
            scan(c)

    scan(root)
    return out


def _root_move(root, mode):
    "Rewrite applying at the root vertex, if any (returns new root or None)."
    if len(root.children) == 1 and root.children[0].children is not None:
        child = root.children[0]
        deco = root.label.deco
        if child.label.length == 0 or mode == "W0" or (
                deco == o_unit(deco.leaf_count)):
            return T.Nest(_N(compose_O(deco, 1, child.label.deco), None),
                          child.children)
    return None


def _canon(node):
    "Sort children canonically, adjusting the decoration; returns the key."
    keys = []
    for c in node.children:
        if c.children is None:
            keys.append((0, c.label))
        else:
            sub = _canon(c)
            keys.append((1, c.label.length, _deco_key(c.label.deco)) + (sub,))
    order = sorted(range(len(keys)), key=lambda s: keys[s])
    if order != list(range(len(keys))):
        node.children = [node.children[s] for s in order]
        node.label.deco = sigma_act_O(order, node.label.deco)
    return tuple(sorted(keys))


def _deco_key(deco):
    return (T.tree_to_json(deco.tree), deco.sigma, deco.tau)


def normalize_W(w, mode="W0", rng=None):
    """Fixed point of the rewrite rules, then canonical child order.
    With `rng`, applicable rewrites are applied in random order (used to
    test confluence); the result must not depend on it."""
    if mode not in ("W", "W0"):
        raise ValueError("mode must be 'W' or 'W0'")
    root = _to_nest(w)[0]
    while True:
        new_root = _root_move(root, mode)
        if new_root is not None:
            root = new_root
            continue
        moves = _moves(root, mode)
        if not moves:
            break
        if rng is None:
            moves[0][1]()
        else:
            moves[rng.randrange(len(moves))][1]()
    _canon(root)
    return _from_nest(root)


def is_normal(w, mode="W0"):
    return normalize_W(w, mode) == w


def compose_W(a, i, b, mode="W0"):
    "Graft b onto global input i of a; the new edge has length 1."
    if not 1 <= i <= len(a.leaf_order):
        raise IndexError("input %d out of range" % i)
    if a.input_colors()[i - 1] != b.out_color:
        raise ValueError("color mismatch: input %d wants %d, argument offers %d"
                         % (i, a.input_colors()[i - 1], b.out_color))
    kb = len(b.leaf_order)
    # a's inputs after i shift up by kb-1; b's inputs sit at i..i+kb-1
    na, leaves = _to_nest(a, lambda lab: lab if lab < i else lab + kb - 1)
    nb = _to_nest(b, lambda lab: lab + i - 1)[0]
    nb.label.length = Fraction(1)
    parent, slot = leaves[a.leaf_order[i - 1]]
    parent.children[slot] = nb
    return normalize_W(_from_nest(na), mode)


# ---------------------------------------------------------------------------
# Projection and the bracketing isomorphism.

def project_with_provenance(w):
    """Total composite of the decorations; returns (OElement, map from
    the composite's vertex ids to the shape vertex they came from)."""

    def value(v):
        deco = w.decorations[v]
        return deco, {u: v for u in range(deco.arity)}

    def graft(a, s, b):
        (acc, prov), (bval, bprov) = a, b
        acc, ma, mb = compose_O_with_maps(acc, s, bval)
        return acc, ({ma[u]: pv for u, pv in prov.items() if u in ma}
                     | {mb[u]: pv for u, pv in bprov.items()})

    acc, prov = T.fold(T.index(w.shape), value, graft)
    if w.leaf_order:
        acc = sigma_act_O(w.leaf_order, acc)
    return acc, prov


def project_to_O(w):
    return project_with_provenance(w)[0]


def psi(w):
    """One bracket per non-root shape vertex: the composite of all
    decorations at or above it, weighted by its edge length."""
    if not is_normal(w, "W0"):
        raise ValueError("psi requires a W0-normal input")
    base, prov = project_with_provenance(w)
    idx = T.index(w.shape)
    weights = {}
    for v in range(1, idx.num_vertices()):
        desc = set(idx.descendants(v))
        vset = frozenset(u for u, pv in prov.items() if pv in desc)
        weights[vset] = w.lengths[v - 1]
    return BOElement(base, WeightedBracketing(base.tree, weights))


def psi_inverse(x):
    "Rebuild the shape as the nesting forest of the brackets."
    tree = x.base.tree
    if tree.is_eta:
        return _from_nest(T.Nest(_N(eta_element(), None), []))
    label_of_vertex = {v: i for i, v in enumerate(x.base.sigma)}
    items = sorted(x.weighted.weights, key=lambda it: (len(it[0]), sorted(it[0])))

    def build(region, inner, weight, tau):
        # maximal brackets strictly inside the region
        maximal = []
        for vset, wt in inner:
            if not any(vset < other for other, _ in inner):
                maximal.append((vset, wt))
        rt, rmap = T.restrict_with_map(tree, region)
        qt, qmap = T.collapse_with_map(rt, [frozenset(rmap[u] for u in vset)
                                            for vset, _ in maximal])
        to_q = {u: qmap[rmap[u]] for u in region}
        m = T.num_vertices(qt)
        slots = [None] * m
        for vset, wt in maximal:
            q = to_q[next(iter(vset))]
            sub_inner = [(s, w2) for s, w2 in inner if s < vset]
            slots[q] = build(vset, sub_inner, wt, None)
        for u in region:
            if slots[to_q[u]] is None:
                slots[to_q[u]] = T.Nest(label_of_vertex[u])
        if tau is None:
            tau = tuple(range(T.num_leaves(qt)))
        deco = OElement(qt, tuple(range(m)), tau)
        return T.Nest(_N(deco, weight), slots)

    region = frozenset(range(T.num_vertices(tree)))
    root = build(region, [(vset, wt) for vset, wt in items], None, x.base.tau)
    _canon(root)
    return _from_nest(root)


# ---------------------------------------------------------------------------
# Serialization.

def w_to_obj(w):
    return {"shape": T.tree_to_obj(w.shape),
            "leaf_order": [p + 1 for p in w.leaf_order],
            "lengths": [T.frac_to_str(x) for x in w.lengths],
            "decorations": [o_to_obj(d) for d in w.decorations]}


def w_from_obj(obj):
    return WTree(T.tree_from_obj(obj["shape"]),
                 [p - 1 for p in obj["leaf_order"]],
                 [Fraction(x) for x in obj["lengths"]],
                 [o_from_obj(d) for d in obj["decorations"]])


def w_to_json(w):
    return json.dumps(w_to_obj(w), sort_keys=True, separators=(",", ":"))


def w_from_json(text):
    return w_from_obj(json.loads(text))
