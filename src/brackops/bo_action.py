"""The action of bracketed labelled trees on normalized cacti.

A bracketed labelled tree acts on a tuple of cacti by composing them
along the tree, with two kinds of reparametrizations thrown in: one
scaling map per input (driven by the edge multiplicities xi) and one
scaling map per bracket (computed from the bracket's own sub-action,
in one pass over the brackets, smallest first).  Weighted brackets
enter through a convex combination of the per-level scaling maps."""

from __future__ import annotations

from . import trees as T
from .bracketings import Bracketing, chain_levels
from .operads import OElement, check_inputs, fold_inputs
from .cacti import (MSElement, ms_unit, ms_compose, scaling_map,
                    relabel_cactus)
from .plmaps import identity_map, pl_compose, pl_invert, pl_convex_combination


# ---------------------------------------------------------------------------
# Edge multiplicities.

def xi_map(tree, brackets, vset, within):
    """One natural number per edge leaving the connected vertex set (a
    vertex {v} or a bracket) inside the region `within`, a connected set
    that holds it and every bracket: 1 for an edge leaving the smallest
    bracket strictly around the set (or the region, or a plain leaf),
    the leaf count of the largest bracket hanging off the edge, or else
    the child's arity."""
    idx = T.index(tree)
    around = [b for b in brackets if b > vset]
    S = min(around, key=len) if around else within
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
                out.append(len(T.exit_edges(idx, max(rooted, key=len), ref)))
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
# The weighted action, in one pass over its regions.

def _ms_action(base, weight_items, cacti):
    """The MS element of a weighted action, whose cactus is the action,
    and (brackets in canonical order, per-input maps g, per-bracket maps
    h), in one pass over the regions: the brackets, smallest first, then
    the whole tree.  On a region the chain levels are those of the
    brackets strictly inside it; g is the convex combination of an
    input's per-level maps, and h is an inner bracket's sub-action,
    interpolated and rescaled level by level (identity on the levels the
    bracket is absent from).  h precomposes the input at the bracket's
    root vertex, smaller brackets first: a unit cactus carrying h
    composed in front of an MS element would only precompose its
    reparametrization with h."""
    tree = base.tree
    x_at = dict(zip(base.sigma, cacti))  # the input at each vertex
    whole = frozenset(x_at)
    subs = {}  # bracket done so far -> (its sub-action, that reparam inverted)
    # a bracket's inner brackets are smaller: their sub-actions come first
    for S in sorted([b for b, _ in weight_items], key=len) + [whole]:
        values, levels = chain_levels([(b, w) for b, w in weight_items
                                       if b < S])
        # level l weighs t_l - t_{l+1} (t past the end 0): convex
        # coefficients
        coeffs = [s - t for s, t in zip(values, values[1:] + [0])]
        f = {v: pl_convex_combination(coeffs, [
                 scaling_map(x_at[v], xi_map(tree, lv, {v}, S))
                 for lv in levels])
             for v in S}
        g = dict(f)
        hs = []
        for b in levels[-1]:
            y, unwind = subs[b]
            # undo the sub-action's reparametrization, then rescale
            h = pl_convex_combination(coeffs, [
                pl_compose(unwind, scaling_map(y.cactus,
                                               xi_map(tree, lv, b, S)))
                if b in lv else identity_map() for lv in levels])
            hs.append(h)
            # a connected set's root has its least DFS id
            f[min(b)] = pl_compose(f[min(b)], h)
        if S is not whole:
            # fold along the region's tree, each vertex read through old
            rt, old, _ = T.region(tree, S)
            y = T.fold(T.index(rt), lambda j: MSElement(
                x_at[old[j]], f[old[j]]), ms_compose)
            subs[S] = y, pl_invert(y.reparam)
    ms = lambda_MS(base, [MSElement(x, f[v])
                          for x, v in zip(cacti, base.sigma)])
    return ms, (levels[-1], [g[v] for v in base.sigma], hs)


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
    for v in range(element.base.tree.vertex_count):
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
    n = base.tree.vertex_count
    wraps = [[] for _ in range(n)]
    for j, b in enumerate(sets):
        # a later bracket rooted at the same vertex is larger: it wraps
        # the earlier ones
        wraps[min(b)].insert(0, n + j)
    order = []  # in DFS order, each new vertex: v, or n + j for bracket j
    tree = _wrap(idx.child_entries, wraps, order, 0)
    new = [0] * len(order)
    for u, label in enumerate(order):
        new[label] = u
    sigma2 = [new[v] for v in base.sigma] + new[n:]
    return OElement(tree, sigma2, base.tau), sets


def _wrap(entries, wraps, order, v):
    """The augmented tree above vertex v, each of its wrapping vertices
    below it; order grows by the label of each new vertex in DFS order."""
    order.extend(wraps[v] + [v])
    node = T.PlanarTree(T.ETA if kind == "leaf" else
                        _wrap(entries, wraps, order, ref)
                        for kind, ref in entries[v])
    for _ in wraps[v]:
        node = T.PlanarTree((node,))
    return node
