"""The action of bracketed labelled trees on normalized cacti.

A bracketed labelled tree acts on a tuple of cacti by composing them
along the tree, with two kinds of reparametrizations thrown in: one
scaling map per input (driven by the edge multiplicities xi) and one
scaling map per bracket (computed by recursion on the bracket's own
sub-action).  Weighted brackets enter through a convex combination of
the per-level scaling maps."""

from __future__ import annotations

from . import trees as T
from .bracketings import Bracketing, chain_levels
from .operads import OElement, check_inputs, fold_inputs
from .cacti import (MSElement, ms_unit, ms_compose, scaling_map,
                    relabel_cactus)
from .plmaps import identity_map, pl_compose, pl_invert, pl_convex_combination


# ---------------------------------------------------------------------------
# Edge multiplicities.

def xi_map(tree, brackets, vset):
    """One natural number per edge leaving the connected vertex set (a
    vertex {v} or a bracket): 1 for an edge leaving the smallest bracket
    strictly around the set (or a plain leaf), the leaf count of the
    largest bracket hanging off the edge, or else the child's arity."""
    idx = T.index(tree)
    around = [b for b in brackets if b > vset]
    S = min(around, key=len) if around \
        else frozenset(range(idx.num_vertices()))
    out = []
    # a connected set's root has its least DFS id
    for kind, ref in T.exit_edges(idx, vset, min(vset)):
        if kind == "leaf" or ref not in S:
            out.append(1)
        else:
            # the brackets rooted at ref: they hold it but not its parent
            rooted = [b for b in brackets if b < S and ref in b
                      and idx.parent[ref] not in b]
            if rooted:
                out.append(T.subtree_leaf_count(tree, max(rooted, key=len)))
            else:
                out.append(idx.arity(ref))
    return tuple(out)


# ---------------------------------------------------------------------------
# Tree-shaped composition of MS elements.

def lambda_MS(elem, inputs):
    """Compose MS elements along a labelled tree (input i sits at the
    vertex of slot i+1) and relabel the lobes by the leaf labelling."""
    check_inputs(elem, [x.cactus.k for x in inputs])
    if elem.tree.is_eta:
        return ms_unit()
    acc = fold_inputs(elem, inputs, ms_compose)
    # lobe at planar position p gets the label of the leaf living there
    perm = [j + 1 for j in elem.leaf_labels()]
    return MSElement(relabel_cactus(acc.cactus, perm), acc.reparam)


# ---------------------------------------------------------------------------
# The weighted action, folded along the element's own tree.

def _ms_action(base, weight_items, cacti, subs=None):
    """The MS element of a weighted action, whose cactus is the action,
    and (brackets in canonical order, per-input maps g, per-bracket maps
    h).  g is the convex combination of the input's per-level maps; h is
    one interpolated sub-action, rescaled level by level (identity on the
    levels the bracket is absent from).  h precomposes the input at the
    bracket's root vertex, smaller brackets first: a unit cactus carrying
    h composed in front of an MS element would only precompose its
    reparametrization with h.  subs holds the sub-action of each bracket,
    keyed by its vertex set; when it is not given, each is computed once,
    smaller brackets first."""
    values, levels = chain_levels(weight_items)
    # level l weighs t_l - t_{l+1} (t past the end 0): convex coefficients
    coeffs = [s - t for s, t in zip(values, values[1:] + [0])]
    gs = [pl_convex_combination(
        coeffs, [scaling_map(cacti[i], xi_map(base.tree, lv, {base.sigma[i]}))
                 for lv in levels])
        for i in range(base.arity)]
    brackets = levels[-1]  # every bracket, in canonical order
    if subs is None:
        subs = {}
        for b in brackets:
            subs[b] = _sub_action(base, weight_items, cacti, b, subs)
    slot_of = {v: i for i, v in enumerate(base.sigma)}
    fs = list(gs)
    hs = []
    for b in brackets:
        y = subs[b]
        unwind = pl_invert(y.reparam)
        # undo the sub-action's reparametrization, then rescale
        h = pl_convex_combination(coeffs, [
            pl_compose(unwind, scaling_map(y.cactus, xi_map(base.tree, lv, b)))
            if b in lv else identity_map() for lv in levels])
        hs.append(h)
        i = slot_of[T.subtree_root(base.tree, b)]
        fs[i] = pl_compose(fs[i], h)
    ms = lambda_MS(base, [MSElement(x, f) for x, f in zip(cacti, fs)])
    return ms, (brackets, gs, hs)


def _sub_action(base, weight_items, cacti, b, subs):
    """The (weighted) MS element of the restriction of the action to b,
    given in subs the sub-action of every bracket inside b.  The region of
    a bracket inside b is its region inside b's region, with the same
    vertex order, so those sub-actions carry over renumbered."""
    rt, old, _ = T.region(base.tree, b)
    new = {u: j for j, u in enumerate(old)}
    inner = [(frozenset(new[u] for u in c), w)
             for c, w in weight_items if c < b]
    inner_subs = {frozenset(new[u] for u in c): y
                  for c, y in subs.items() if c < b}
    sub_elem = OElement(rt)
    pos_of = {base.sigma[i]: i for i in range(base.arity)}
    sub_cacti = [cacti[pos_of[u]] for u in old]
    return _ms_action(sub_elem, inner, sub_cacti, inner_subs)[0]


# ---------------------------------------------------------------------------
# The full weighted action.

def lam(element, inputs):
    "The action: compose the inputs along the bracketed labelled tree."
    return lam_traced(element, inputs)[0]


def lam_traced(element, inputs):
    """One evaluation of the action, with its intermediates: (result, the
    MS element whose cactus it is, (brackets in canonical order, per-input
    maps, per-bracket maps)).  A vertex of arity 0 has no input edge to
    scale, so a tree with one is refused."""
    check_inputs(element.base, [x.k for x in inputs])
    idx = T.index(element.base.tree)
    for v in range(idx.num_vertices()):
        if idx.arity(v) == 0:
            raise ValueError("vertex %d has arity 0; the cactus action "
                             "needs an input at every vertex" % v)
    ms, trace = _ms_action(element.base, element.weighted.weights, inputs)
    return ms.cactus, ms, trace


# ---------------------------------------------------------------------------
# The augmented tree: a reference for the action.

def augment(base, brackets):
    """The labelled tree with one extra unary vertex on the root edge of
    each bracket, and the brackets in canonical order; the new vertices
    take the last slots, in that order.  Not on the action's path: the
    tests compose unit cacti along it as a reference for the action, and
    the benchmark's tracer wraps it by name."""
    sets = Bracketing(base.tree, brackets).sorted_brackets()
    idx = T.index(base.tree)
    n = idx.num_vertices()
    wraps = [[] for _ in range(n)]
    for j, b in enumerate(sets):
        # a later bracket rooted at the same vertex is larger: it wraps
        # the earlier ones
        wraps[T.subtree_root(base.tree, b)].insert(0, n + j)
    order = []  # in DFS order, each new vertex: v, or n + j for bracket j

    def walk(v):
        order.extend(wraps[v] + [v])
        node = T.PlanarTree(T.ETA if kind == "leaf" else walk(ref)
                            for kind, ref in idx.child_entries[v])
        for _ in wraps[v]:
            node = T.PlanarTree((node,))
        return node

    tree = walk(0)
    new = [0] * len(order)
    for u, label in enumerate(order):
        new[label] = u
    sigma2 = [new[v] for v in base.sigma] + new[n:]
    return OElement(tree, sigma2, base.tau), sets
