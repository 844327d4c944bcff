"""The earlier weighted action, kept as an independent reference for the
tests.  Each bracket's sub-action is computed by a second function,
_sub_action, which rebuilds the bracket's region as a tree of its own,
renumbers the inner brackets and the finished sub-actions into its
vertex ids, and calls _ms_action on it again; _ms_action's `subs`
decides whether it computes the sub-actions itself or is handed them.
xi_map falls back to the whole tree when no bracket is around the set.
brackops.bo_action._ms_action does all of this in one pass over the
regions, in the tree's own vertex ids."""

from brackops import trees as T
from brackops.bo_action import lambda_MS
from brackops.bracketings import chain_levels
from brackops.cacti import MSElement, scaling_map
from brackops.operads import OElement
from brackops.plmaps import (identity_map, pl_compose, pl_invert,
                             pl_convex_combination)


def xi_map(tree, brackets, vset):
    """One natural number per edge leaving the connected vertex set (a
    vertex {v} or a bracket): 1 for an edge leaving the smallest bracket
    strictly around the set (or a plain leaf), the leaf count of the
    largest bracket hanging off the edge, or else the child's arity."""
    idx = T.index(tree)
    around = [b for b in brackets if b > vset]
    S = min(around, key=len) if around \
        else frozenset(range(tree.vertex_count))
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
                # a bracket's leaves: its input edges less those inside it
                b = max(rooted, key=len)
                out.append(sum(map(idx.arity, b)) - len(b) + 1)
            else:
                out.append(idx.arity(ref))
    return tuple(out)


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
