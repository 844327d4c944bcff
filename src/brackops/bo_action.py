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
from .operads import OElement
from .cacti import (MSElement, unit_cactus, ms_unit, ms_compose,
                    scaling_map, relabel_cactus, renormalize)
from .plmaps import identity_map, pl_compose, pl_invert, pl_convex_combination


def _canon_sets(brackets):
    if isinstance(brackets, Bracketing):
        brackets = brackets.brackets
    sets = [frozenset(b) for b in brackets]
    sets.sort(key=lambda b: (len(b), sorted(b)))
    return sets


# ---------------------------------------------------------------------------
# Edge multiplicities.

def xi_map(tree, brackets, v):
    """One natural number per input edge of v: 1 for an edge leaving the
    smallest bracket around v (or a plain leaf), the leaf count of the
    largest bracket hanging off the edge, or else the child's arity."""
    idx = T.index(tree)
    sets = _canon_sets(brackets)
    containing = [b for b in sets if v in b]
    whole = frozenset(range(idx.num_vertices()))
    S = min(containing, key=len) if containing else whole
    out = []
    for kind, ref in idx.child_entries[v]:
        if kind == "leaf" or ref not in S:
            out.append(1)
        else:
            rooted = [b for b in sets
                      if b < S and T.subtree_root(tree, b) == ref]
            if rooted:
                out.append(T.subtree_leaf_count(tree, max(rooted, key=len)))
            else:
                out.append(idx.arity(ref))
    return tuple(out)


# ---------------------------------------------------------------------------
# Tree-shaped composition of MS elements.

def lambda_MS(elem, inputs, order="last-first"):
    """Compose MS elements along a labelled tree (input i sits at the
    vertex of slot i+1) and relabel the lobes by the leaf labelling.
    The fold order is immaterial by the operad axioms; both orders are
    implemented so that can be verified."""
    if elem.tree.is_eta:
        if inputs:
            raise ValueError("the vertexless tree takes no inputs")
        return ms_unit()
    if len(inputs) != elem.arity:
        raise ValueError("need one input per slot")
    idx = T.index(elem.tree)
    for i, x in enumerate(inputs):
        if x.cactus.k != idx.arity(elem.sigma[i]):
            raise ValueError("input %d has %d lobes, vertex wants %d"
                             % (i + 1, x.cactus.k, idx.arity(elem.sigma[i])))
    deco = {elem.sigma[i]: inputs[i] for i in range(elem.arity)}

    def rec_asc(v):
        acc = deco[v]
        pos = 1
        for kind, ref in idx.child_entries[v]:
            if kind == "out":
                sub = rec_asc(ref)
                acc = ms_compose(acc, pos, sub)
                pos += sub.cactus.k
            else:
                pos += 1
        return acc

    if order == "last-first":
        acc = T.fold(idx, deco.__getitem__, ms_compose)
    else:
        acc = rec_asc(0)
    # lobe at planar position p gets the label of the leaf living there
    tauinv = [0] * len(elem.tau)
    for j, p in enumerate(elem.tau):
        tauinv[p] = j
    perm = [tauinv[p] + 1 for p in range(len(elem.tau))]
    return MSElement(relabel_cactus(acc.cactus, perm), acc.reparam)


# ---------------------------------------------------------------------------
# The augmented tree.

class AugmentedTree:
    """The labelled tree with one extra unary vertex on the root edge of
    each bracket; the new vertices take the last slots, in canonical
    bracket order."""

    __slots__ = ("element", "brackets", "vertex_map", "bracket_map")

    def __init__(self, element, brackets, vertex_map, bracket_map):
        self.element = element
        self.brackets = brackets
        self.vertex_map = vertex_map
        self.bracket_map = bracket_map


def augment(base, brackets):
    "Build the augmented labelled tree for a bracket set on base.tree."
    sets = _canon_sets(brackets)
    Bracketing(base.tree, sets)  # validates nesting
    # tree vertices are labelled (0, id), bracket vertices (1, j)
    root, verts, _ = T.open_nest(base.tree, lambda v: (0, v), lambda p: None)
    # smaller brackets wrap first, so the largest ends nearest the root
    for j in sorted(range(len(sets)), key=lambda j: len(sets[j])):
        node = verts[T.subtree_root(base.tree, sets[j])]
        inner = T.Nest(node.label, node.children)
        node.label, node.children = (1, j), [inner]
    tree2, nodes, _ = T.close_nest(root)
    vmap, bmap = maps = {}, {}
    for nid, node in enumerate(nodes):
        side, ref = node.label
        maps[side][ref] = nid
    sigma2 = tuple(vmap[v] for v in base.sigma) \
        + tuple(bmap[j] for j in range(len(sets)))
    elem = OElement(tree2, sigma2, base.tau)
    return AugmentedTree(elem, sets, vmap, bmap)


# ---------------------------------------------------------------------------
# Scaling maps.

def _assembly(base, weight_items, cacti):
    """Augmented tree plus interpolated scaling maps: per input the convex
    combination of the per-level maps; per bracket one recursively
    interpolated sub-action, rescaled level by level (identity on the
    levels the bracket is absent from)."""
    values, levels = chain_levels(weight_items)
    # level l weighs t_l - t_{l+1} (t past the end 0): convex coefficients
    coeffs = [s - t for s, t in zip(values, values[1:] + [0])]
    gs = [pl_convex_combination(
        coeffs, [scaling_map(cacti[i], xi_map(base.tree, lv, base.sigma[i]))
                 for lv in levels])
        for i in range(base.arity)]
    aug = augment(base, levels[-1])
    hs = []
    for b in aug.brackets:
        y = _sub_action(base, weight_items, cacti, b)
        unwind = pl_invert(y.reparam)
        ct, cmap = T.collapse_with_map(base.tree, [b])
        terms = []
        for lv in levels:
            if b not in lv:
                terms.append(identity_map())
                continue
            outer = []
            for c in lv:
                if c <= b:
                    continue
                img = frozenset(cmap[u] for u in c)
                if len(img) >= 2:
                    outer.append(img)
            xs = xi_map(ct, outer, cmap[next(iter(b))])
            # undo the sub-action's reparametrization, then rescale
            terms.append(pl_compose(unwind, scaling_map(y.cactus, xs)))
        hs.append(pl_convex_combination(coeffs, terms))
    return aug, gs, hs


def _sub_action(base, weight_items, cacti, b):
    "The (weighted) MS element of the restriction of the action to b."
    rt, old, exits = T.region(base.tree, b)
    new = {u: j for j, u in enumerate(old)}
    inner = [(frozenset(new[u] for u in c), w)
             for c, w in weight_items if c < b]
    sub_elem = OElement(rt, tuple(range(len(old))), tuple(range(len(exits))))
    pos_of = {base.sigma[i]: i for i in range(base.arity)}
    sub_cacti = [cacti[pos_of[u]] for u in old]
    return _ms_action(sub_elem, inner, sub_cacti)


def _ms_action(base, weight_items, cacti):
    "The un-renormalized MS element of a weighted action."
    if base.tree.is_eta:
        return ms_unit()
    return _compose_assembly(base, cacti,
                             _assembly(base, weight_items, cacti))


def _compose_assembly(base, cacti, assembly):
    "Compose the inputs with their scaling maps along the augmented tree."
    aug, gs, hs = assembly
    ms_inputs = [MSElement(cacti[i], gs[i]) for i in range(base.arity)]
    ms_inputs += [MSElement(unit_cactus(), h) for h in hs]
    return lambda_MS(aug.element, ms_inputs)


# ---------------------------------------------------------------------------
# The full weighted action.

class ActionContext:
    "A bracketed labelled tree together with matching cactus inputs."

    __slots__ = ("element", "inputs")

    def __init__(self, element, inputs):
        base = element.base
        if len(inputs) != base.arity:
            raise ValueError("need one cactus per slot")
        if not base.tree.is_eta:
            idx = T.index(base.tree)
            for i, x in enumerate(inputs):
                if x.k != idx.arity(base.sigma[i]):
                    raise ValueError(
                        "input %d has %d lobes, vertex wants %d"
                        % (i + 1, x.k, idx.arity(base.sigma[i])))
        self.element = element
        self.inputs = tuple(inputs)


def vertex_scaling(ctx, i):
    "The (interpolated) scaling map attached to input i (1-based)."
    if not 1 <= i <= ctx.element.arity:
        raise IndexError("input %d out of range" % i)
    _, gs, _ = _assembly(ctx.element.base, ctx.element.weighted.weights,
                         ctx.inputs)
    return gs[i - 1]


def bracket_scaling(ctx, j):
    "The (interpolated) scaling map of bracket j in canonical order."
    aug, _, hs = _assembly(ctx.element.base, ctx.element.weighted.weights,
                           ctx.inputs)
    if not 1 <= j <= len(aug.brackets):
        raise IndexError("bracket %d out of range" % j)
    return hs[j - 1]


def lam(element, inputs):
    "The action: compose the inputs along the bracketed labelled tree."
    if element.base.tree.is_eta:
        if inputs:
            raise ValueError("the vertexless tree takes no inputs")
        return unit_cactus()
    return lam_traced(element, inputs)[0]


def lam_traced(element, inputs):
    """One evaluation of the action on a tree with vertices, with its
    intermediates: (result, un-renormalized MS element, (augmented tree,
    per-input maps, per-bracket maps))."""
    ctx = ActionContext(element, inputs)
    assembly = _assembly(element.base, element.weighted.weights, ctx.inputs)
    ms = _compose_assembly(element.base, ctx.inputs, assembly)
    return renormalize(ms), ms, assembly
