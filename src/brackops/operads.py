"""The colored operad of labelled planar trees and its bracketed
refinement.

An element is a planar tree together with a labelling sigma of its
vertices (the operation's input slots) and a labelling tau of its
leaves.  Composition at slot i substitutes the second tree into the
vertex labelled i, permuting that vertex's inputs according to the
second labelling's tau.  The bracketed variant additionally carries a
weighted bracketing which is transported along substitution; composing
with a large tree records it as a new bracket of weight 1."""

from __future__ import annotations

from fractions import Fraction

from . import trees as T
from .bracketings import (
    WeightedBracketing, _weighted_in_order, merge_brackets,
    weighted_from_obj, weighted_to_obj,
)
from .trees import ETA, corolla


class OElement:
    """(tree, sigma, tau): sigma[i] is the vertex (DFS id) labelled i+1,
    tau[j] is the planar leaf position labelled j+1.  An omitted
    labelling is the identity: DFS order, planar order."""

    __slots__ = ("tree", "sigma", "tau")

    def __init__(self, tree, sigma=None, tau=None):
        nv, nl = tree.vertex_count, tree.leaf_count
        sigma = tuple(range(nv)) if sigma is None else T.as_labelling(
            sigma, nv, "sigma is not a vertex labelling")
        tau = tuple(range(nl)) if tau is None else T.as_labelling(
            tau, nl, "tau is not a leaf labelling")
        self.tree = tree
        self.sigma = sigma
        self.tau = tau

    @property
    def arity(self):
        "Number of input slots (= vertices)."
        return len(self.sigma)

    @property
    def leaf_count(self):
        return len(self.tau)

    def slot_arity(self, i):
        "Arity of the vertex at slot i (1-based)."
        if not 1 <= i <= len(self.sigma):
            raise IndexError("slot %d out of range" % i)
        return T.index(self.tree).arity(self.sigma[i - 1])

    def leaf_labels(self):
        "tau inverted: the 0-based label of the leaf at each planar position."
        labels = [0] * len(self.tau)
        for j, p in enumerate(self.tau):
            labels[p] = j
        return labels

    def __eq__(self, other):
        return (isinstance(other, OElement) and self.tree == other.tree
                and self.sigma == other.sigma and self.tau == other.tau)

    def __hash__(self):
        return hash((self.tree, self.sigma, self.tau))

    def __repr__(self):
        return "OElement(%r, sigma=%s, tau=%s)" % (self.tree, self.sigma, self.tau)


def _labelled(tree, sigma, tau):
    """The element of labelling tuples that a library operation derived
    from already checked elements: not checked again."""
    a = object.__new__(OElement)
    a.tree = tree
    a.sigma = sigma
    a.tau = tau
    return a


def o_unit(n):
    "The corolla with the canonical left-to-right labellings."
    return OElement(corolla(n))


def eta_element():
    "The vertexless tree: the unique 0-slot element with one leaf."
    return OElement(ETA)


# ---------------------------------------------------------------------------
# Evaluation along a labelled tree: input i sits at the vertex of slot
# i+1, the inputs compose at planar slots, and the caller relabels the
# result's planar inputs by leaf_labels().

def check_inputs(base, arities):
    "One input per slot of base, each of its vertex's arity."
    if base.tree.is_eta:
        if arities:
            raise ValueError("the vertexless tree takes no inputs")
        return
    if len(arities) != base.arity:
        raise ValueError("need one input per slot")
    idx = T.index(base.tree)
    for i, k in enumerate(arities):
        if k != idx.arity(base.sigma[i]):
            raise ValueError("input %d has arity %d, vertex wants %d"
                             % (i + 1, k, idx.arity(base.sigma[i])))


def fold_inputs(base, inputs, compose):
    """Compose the inputs along a tree with vertices: compose(acc, s, x)
    inserts x at planar slot s of acc."""
    deco = dict(zip(base.sigma, inputs))
    return T.fold(T.index(base.tree), deco.__getitem__, compose)


def compose_O_with_maps(a, i, b):
    """compose_O together with the vertex translation maps
    (result, map a-vertex -> new id, map b-vertex -> new id)."""
    m = a.slot_arity(i)
    if m != b.leaf_count:
        raise ValueError("arity mismatch: slot has arity %d, argument has %d leaves"
                         % (m, b.leaf_count))
    res = T._substitute(a.tree, a.sigma[i - 1], b.tree, b.tau)
    # the host's slots before i, the guest's, then the host's after i
    host, guest = res.vmap_host, res.vmap_guest
    sigma = tuple([host[u] for u in a.sigma[:i - 1]]
                  + [guest[u] for u in b.sigma]
                  + [host[u] for u in a.sigma[i:]])
    tau = tuple([res.leafmap_host[p] for p in a.tau])
    return _labelled(res.tree, sigma, tau), host, guest


def compose_O(a, i, b):
    return compose_O_with_maps(a, i, b)[0]


def sigma_act_O(perm, a):
    """Precompose the slot labelling: new slot i draws on old slot
    perm[i]+1 (perm is 0-based)."""
    perm = T.as_labelling(perm, a.arity, "not a permutation of the slots")
    return OElement(a.tree, tuple(a.sigma[p] for p in perm), a.tau)


class BOElement:
    "An OElement with a weighted bracketing on its tree."

    __slots__ = ("base", "weighted")

    def __init__(self, base, weighted=None):
        if weighted is None:
            weighted = WeightedBracketing(base.tree, {})
        if weighted.tree != base.tree:
            raise ValueError("bracketing lives on a different tree")
        self.base = base
        self.weighted = weighted

    @property
    def arity(self):
        return self.base.arity

    @property
    def leaf_count(self):
        return self.base.leaf_count

    def slot_arity(self, i):
        return self.base.slot_arity(i)

    def __eq__(self, other):
        return (isinstance(other, BOElement) and self.base == other.base
                and self.weighted == other.weighted)

    def __hash__(self):
        return hash((self.base, self.weighted))

    def __repr__(self):
        return "BOElement(%r, %r)" % (self.base, self.weighted)


def unit_BO(n):
    return BOElement(o_unit(n))


def eta_BO():
    return BOElement(eta_element())


def bo_element(tree, sigma, tau, weights=()):
    return BOElement(OElement(tree, sigma, tau),
                     WeightedBracketing(tree, dict(weights)))


def compose_BO(a, i, b):
    """Compose the underlying labelled trees and transport the brackets:
    a bracket containing the substituted vertex absorbs the whole of the
    second tree (and is discarded if the vertexless tree shrinks it
    below two vertices); the second factor's brackets are carried over;
    if the second tree has at least two vertices it becomes a new
    bracket of weight 1.  Set collisions keep the larger weight."""
    base, vmap_a, vmap_b = compose_O_with_maps(a.base, i, b.base)
    v = a.base.sigma[i - 1]
    guest = frozenset(vmap_b.values())
    items = [(frozenset(vmap_a[u] for u in vset if u != v)
              | (guest if v in vset else frozenset()), w)
             for vset, w in a.weighted.weights]
    items += [(frozenset(vmap_b[u] for u in vset), w)
              for vset, w in b.weighted.weights]
    items.append((guest, Fraction(1)))
    return BOElement(base, _weighted_in_order(
        base.tree, merge_brackets(items, base.arity)))


def sigma_act_BO(perm, a):
    return BOElement(sigma_act_O(perm, a.base), a.weighted)


# ---------------------------------------------------------------------------
# Serialization.

def o_to_obj(a):
    return {"tree": T.tree_to_obj(a.tree),
            "sigma": [v + 1 for v in a.sigma],
            "tau": [p + 1 for p in a.tau]}


def o_from_obj(obj):
    tree = T.tree_from_obj(obj["tree"])
    return OElement(tree, [T.int_from_obj(v) - 1 for v in obj["sigma"]],
                    [T.int_from_obj(p) - 1 for p in obj["tau"]])


def bo_to_obj(a):
    obj = o_to_obj(a.base)
    obj["brackets"] = weighted_to_obj(a.weighted)
    return obj


def bo_from_obj(obj):
    base = o_from_obj(obj)
    return BOElement(base, weighted_from_obj(base.tree, obj.get("brackets", [])))
