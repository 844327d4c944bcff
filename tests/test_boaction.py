from fractions import Fraction

import pytest

from brackops.trees import ETA, PlanarTree, caterpillar, corolla
from brackops import trees as T
from brackops.operads import (BOElement, OElement, bo_element, eta_BO,
                              unit_BO, compose_BO, sigma_act_BO)
from brackops.cacti import (EMPTY_CACTUS, MSElement, unit_cactus,
                            cact1_compose, scaling_map)
from brackops.plmaps import (identity_map, pl_compose, pl_convex_combination,
                             pl_invert)
from brackops.bracketings import (WeightedBracketing, chain_levels,
                                  enumerate_bracketings, maximal_bracketings)
from brackops import bo_action as A
from brackops import suites
from brackops import randomgen as R
from action_reference import _ms_action as reference_ms_action
from nests import nest_augment

F = Fraction


def chain_elem(n, weights=()):
    t = caterpillar(n)
    return bo_element(t, tuple(range(n)), tuple(range(n + 1)), weights)


def _all(tree):
    return frozenset(range(tree.vertex_count))


def test_xi_map_no_brackets():
    t = caterpillar(3)
    # child edge carries the child's arity, a leaf edge carries 1
    assert A.xi_map(t, [], {0}, _all(t)) == (2, 1)
    assert A.xi_map(t, [], {1}, _all(t)) == (2, 1)
    assert A.xi_map(t, [], {2}, _all(t)) == (1, 1)


def test_xi_map_sees_the_largest_bracket_below():
    t = caterpillar(3)
    b = frozenset({1, 2})
    # from outside the bracket, the edge into it carries its leaf count
    assert A.xi_map(t, [b], {0}, _all(t)) == (3, 1)
    # inside the bracket the view is unchanged
    assert A.xi_map(t, [b], {1}, _all(t)) == (2, 1)


def test_xi_map_stops_at_the_enclosing_bracket():
    t = caterpillar(4)
    bs = [frozenset({0, 1}), frozenset({2, 3})]
    # vertex 0 sits in {0,1}: the edge to vertex 1 stays, vertex 2 is
    # outside the enclosing bracket so its edge counts 1
    assert A.xi_map(t, bs, {0}, _all(t)) == (2, 1)
    assert A.xi_map(t, bs, {1}, _all(t)) == (1, 1)


def _xi_by_collapse(tree, brackets, b):
    """The multiplicities of bracket b read on the tree with b collapsed
    to one vertex, which carries the brackets not inside b."""
    ct, cmap = T.collapse_with_map(tree, [b])
    outer = [frozenset(cmap[u] for u in c) for c in brackets if not c <= b]
    return A.xi_map(ct, outer, {cmap[min(b)]}, _all(ct))


def test_xi_map_of_a_bracket_is_the_vertex_rule_after_collapsing_it():
    cases = 0
    for nv in range(1, 5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                for br in enumerate_bracketings(t):
                    bs = br.sorted_brackets()
                    for b in bs:
                        assert A.xi_map(t, bs, b, _all(t)) \
                            == _xi_by_collapse(t, bs, b)
                        cases += 1
    assert cases == 9944


def test_xi_map_on_a_region_is_xi_map_on_the_region_tree():
    # an edge leaving the region counts 1, as a leaf of its tree does
    cases = 0
    for nv in range(1, 5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                for sub in T.enumerate_subtrees(t, min_vertices=2):
                    S = sub.vertex_set
                    rt, old, _ = T.region(t, S)
                    for br in enumerate_bracketings(rt):
                        bs = br.sorted_brackets()
                        old_bs = [frozenset(old[u] for u in b) for b in bs]
                        for c in T.enumerate_subtrees(rt):
                            c = c.vertex_set
                            old_c = frozenset(old[u] for u in c)
                            assert A.xi_map(t, old_bs, old_c, S) \
                                == A.xi_map(rt, bs, c, _all(rt)), (t, S, c)
                            cases += 1
    assert cases == 107988


def _exits_restated(entries, vset, v):
    "(parent, kind, ref) of each edge leaving vset above v, in planar order."
    for kind, ref in entries[v]:
        if kind == "out" and ref in vset:
            yield from _exits_restated(entries, vset, ref)
        else:
            yield v, kind, ref


def _xi_restated(tree, brackets, vset, within):
    """xi_map from its definition, sharing none of its steps: the
    smallest bracket around vset and the largest one hanging off an edge
    are found by inclusion, the edges leaving vset by a walk of the
    child entries, and a bracket's leaves are its region tree's."""
    entries = T.index(tree).child_entries
    around = [b for b in brackets if vset < b]
    S = next((b for b in around if all(b <= c for c in around)), within)
    inner = {ref for v in vset for kind, ref in entries[v] if kind == "out"}
    (root,) = vset - inner
    out = []
    for v, kind, ref in _exits_restated(entries, vset, root):
        if kind == "leaf" or ref not in S:
            out.append(1)
            continue
        hanging = [b for b in brackets if ref in b and v not in b]
        largest = [b for b in hanging if all(c <= b for c in hanging)]
        out.append(T.region(tree, largest[0])[0].leaf_count if largest
                   else len(entries[ref]))
    return tuple(out)


def test_xi_map_matches_its_definition():
    """On every tree with 2-5 vertices, 1-4 leaves and no nullary
    vertex, every bracketing, every region (the whole tree or a bracket)
    and every vertex set inside it (a vertex, or a bracket strictly
    inside), given the brackets strictly inside the region."""
    cases = 0
    for nv in range(2, 6):
        for nl in range(1, 5):
            for t in T.planar_trees(nv, nl):
                if min(T.arities(t)) == 0:
                    continue
                for br in enumerate_bracketings(t):
                    bs = br.sorted_brackets()
                    for S in [_all(t)] + bs:
                        inside = [b for b in bs if b < S]
                        for vset in [frozenset([v]) for v in S] + inside:
                            assert A.xi_map(t, inside, vset, S) \
                                == _xi_restated(t, inside, vset, S), \
                                (t, inside, vset, S)
                            cases += 1
    assert cases == 453947


def test_one_pass_matches_the_recursive_reference():
    # every tree with at most 4 vertices and 4 leaves and no nullary
    # vertex, every bracketing, under a random labelling, weights (0
    # among them) and cacti
    weights = (1, F(1, 2), F(1, 3), 0)
    rng = R.rng_from_seed(24)
    cases = 0
    for nv in range(1, 5):
        for nl in range(5):
            for t in T.planar_trees(nv, nl):
                if min(T.arities(t)) == 0:
                    continue
                for br in enumerate_bracketings(t):
                    base = R.random_o_element(rng, tree=t)
                    items = [(b, R.random_weight(rng, weights))
                             for b in br.sorted_brackets()]
                    xs = R.random_labelled_cacti(base, rng)
                    ms, trace = A._ms_action(base, items, xs)
                    want_ms, want_trace = reference_ms_action(base, items, xs)
                    assert ms.cactus == want_ms.cactus, (base, items)
                    assert ms == want_ms and trace == want_trace, (base, items)
                    cases += 1
    assert cases == 2939


def test_augment_adds_one_unary_vertex_per_bracket():
    e = chain_elem(3)
    aug, brackets = A.augment(e.base, [frozenset({1, 2})])
    assert brackets == [frozenset({1, 2})]
    t2 = aug.tree
    assert t2.vertex_count == 4
    assert t2.leaf_count == e.base.tree.leaf_count
    idx = T.index(t2)
    # slots 1..3 hold the tree's vertices 0..2, slot 4 the bracket's
    j = aug.sigma[3]
    assert idx.arity(j) == 1
    # the extra vertex sits on the bracket root's output edge
    assert idx.parent[aug.sigma[1]] == j
    assert idx.parent[j] == aug.sigma[0]
    assert aug.sigma[-1] == j


def test_augment_nests_same_root_brackets_smallest_inside():
    e = chain_elem(4)
    aug, brackets = A.augment(e.base,
                              [frozenset({0, 1, 2}), frozenset({0, 1})])
    # canonical order: the smaller bracket first
    assert brackets == [frozenset({0, 1}), frozenset({0, 1, 2})]
    idx = T.index(aug.tree)
    small, big = aug.sigma[4], aug.sigma[5]
    # both brackets are rooted at vertex 0: the smaller wraps closer to it
    assert idx.parent[aug.sigma[0]] == small
    assert idx.parent[small] == big
    assert idx.parent[big] == -1


def test_augment_matches_the_nest_reference():
    # every bracketing of every tree with at most 4 vertices and 4
    # leaves, under a random labelling
    rng = R.rng_from_seed(18)
    cases = 0
    for nv in range(1, 5):
        for nl in range(5):
            for t in T.planar_trees(nv, nl):
                for br in enumerate_bracketings(t):
                    base = R.random_o_element(rng, tree=t)
                    assert A.augment(base, br.brackets) \
                        == nest_augment(base, br.brackets), (base, br)
                    cases += 1
    assert cases == 20266


def test_chain_levels_interpolate_between_bracketings():
    items = [(frozenset({1, 2}), F(1, 2))]
    values, levels = chain_levels(items)
    assert levels == [[], [frozenset({1, 2})]]
    assert values == [1, F(1, 2)]
    items = [(frozenset({1, 2, 3}), F(1, 3)), (frozenset({1, 2}), F(1))]
    values, levels = chain_levels(items)
    assert levels[0] == [frozenset({1, 2})]
    assert levels[1] == [frozenset({1, 2}), frozenset({1, 2, 3})]
    assert values == [1, F(1, 3)]
    # a weight-0 item is kept, in the last level, of value 0
    values, levels = chain_levels([(frozenset({1, 2}), F(0))])
    assert levels == [[], [frozenset({1, 2})]]
    assert values == [1, 0]


def test_lam_eta_and_unit():
    rng = R.rng_from_seed(1)
    assert A.lam(eta_BO(), []) == unit_cactus()
    for k in (1, 2, 3):
        x = R.random_cactus(k, rng)
        assert A.lam(unit_BO(k), [x]) == x


def test_unbracketed_chain_is_cact1_composition():
    rng = R.rng_from_seed(2)
    for _ in range(20):
        x1, x2 = R.random_cactus(2, rng), R.random_cactus(2, rng)
        got = A.lam(chain_elem(2), [x1, x2])
        assert got == cact1_compose(x1, 1, x2)


def test_weight_one_corners_on_three_chain():
    rng = R.rng_from_seed(3)
    for _ in range(10):
        xs = [R.random_cactus(2, rng) for _ in range(3)]
        left = A.lam(chain_elem(3, {frozenset({0, 1}): 1}), xs)
        right = A.lam(chain_elem(3, {frozenset({1, 2}): 1}), xs)
        assert left == cact1_compose(cact1_compose(xs[0], 1, xs[1]),
                                     1, xs[2])
        assert right == cact1_compose(xs[0], 1,
                                      cact1_compose(xs[1], 1, xs[2]))


def test_weight_one_corners_on_four_chain():
    rng = R.rng_from_seed(4)
    xs = [R.random_cactus(2, rng) for _ in range(4)]
    ws = {frozenset({0, 1}): 1, frozenset({0, 1, 2}): 1}
    got = A.lam(chain_elem(4, ws), xs)
    want = cact1_compose(
        cact1_compose(cact1_compose(xs[0], 1, xs[1]), 1, xs[2]), 1, xs[3])
    assert got == want


def test_weight_one_corners_on_every_small_tree():
    """Every tree with 2-4 vertices, 1-4 leaves and no nullary vertex,
    every maximal bracketing with every weight 1, one draw of cacti: lam
    is the nested Cact^1 composite the brackets spell."""
    rng = R.rng_from_seed(0)
    cases = 0
    for nv in range(2, 5):
        for nl in range(1, 5):
            for t in T.planar_trees(nv, nl):
                if min(T.arities(t)) == 0:
                    continue
                for br in maximal_bracketings(t):
                    xs = [R.random_cactus(a, rng) for a in T.arities(t)]
                    e = BOElement(OElement(t), WeightedBracketing(
                        t, {b: 1 for b in br.brackets}))
                    assert A.lam(e, xs) == suites._corner_value(
                        t, br.brackets, xs, _all(t)), (t, br.brackets)
                    cases += 1
    assert cases == 1398


def test_vertex_scaling_no_brackets():
    rng = R.rng_from_seed(5)
    e = chain_elem(2)
    xs = [R.random_cactus(2, rng) for _ in range(2)]
    brackets, gs, hs = A.lam_traced(e, xs)[2]
    assert gs == [scaling_map(xs[0], (2, 1)), identity_map()]
    assert brackets == [] and hs == []


def test_vertex_scaling_interpolates():
    rng = R.rng_from_seed(6)
    xs = [R.random_cactus(2, rng) for _ in range(3)]
    e = chain_elem(3, {frozenset({1, 2}): F(1, 2)})
    want = pl_convex_combination(
        [F(1, 2), F(1, 2)],
        [scaling_map(xs[0], (2, 1)), scaling_map(xs[0], (3, 1))])
    assert A.lam_traced(e, xs)[2][1][0] == want


def test_bracket_scaling_weight_one_chain():
    rng = R.rng_from_seed(7)
    xs = [R.random_cactus(2, rng) for _ in range(3)]
    e = chain_elem(3, {frozenset({1, 2}): 1})
    brackets, _, hs = A.lam_traced(e, xs)[2]
    # the sub-action of {1, 2} is the unbracketed action on its region
    y = A._ms_action(OElement(caterpillar(2)), [], xs[1:])[0]
    want = pl_compose(pl_invert(y.reparam), scaling_map(y.cactus, (1, 1, 1)))
    assert brackets == [frozenset({1, 2})]
    assert hs == [want]


def test_each_sub_action_is_computed_once(monkeypatch):
    # the chain {0,1} < {0,1,2} < ... nests every bracket in the next;
    # each sub-action composes along its bracket's region, built once
    calls = []
    region = T.region

    def counted(*args):
        calls.append(args)
        return region(*args)

    monkeypatch.setattr(T, "region", counted)
    rng = R.rng_from_seed(15)
    for n in range(3, 7):
        ws = {frozenset(range(j + 1)): F(1, j) for j in range(1, n - 1)}
        xs = [R.random_cactus(2, rng) for _ in range(n)]
        del calls[:]
        A.lam_traced(chain_elem(n, ws), xs)
        assert len(calls) == len(ws)


def test_each_sub_action_is_inverted_once(monkeypatch):
    # the grid of the reference test, every weight 1: each bracket's
    # sub-action is inverted once, not once per region that holds it
    calls = []
    invert = A.pl_invert

    def counted(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(A, "pl_invert", counted)
    rng = R.rng_from_seed(24)
    brackets = 0
    for nv in range(1, 5):
        for nl in range(5):
            for t in T.planar_trees(nv, nl):
                if min(T.arities(t)) == 0:
                    continue
                for br in enumerate_bracketings(t):
                    base = R.random_o_element(rng, tree=t)
                    items = [(b, F(1)) for b in br.sorted_brackets()]
                    del calls[:]
                    A._ms_action(base, items,
                                 R.random_labelled_cacti(base, rng))
                    assert len(calls) == len(items), (base, items)
                    brackets += len(items)
    assert brackets == 3826


def test_brackets_act_like_unit_cacti_on_the_augmented_tree():
    # the reference composes one unit cactus carrying h_b per bracket
    # along the augmented tree, instead of precomposing root inputs
    rng = R.rng_from_seed(14)
    cases = 0
    for nv in range(1, 5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                if any(T.index(t).arity(v) == 0 for v in range(nv)):
                    continue
                for br in enumerate_bracketings(t):
                    base = R.random_o_element(rng, tree=t)
                    e = BOElement(base, WeightedBracketing(t, {
                        b: R.random_weight(rng, (1, F(1, 2), F(1, 3)))
                        for b in br.brackets}))
                    xs = R.random_labelled_cacti(base, rng)
                    _, ms, (brackets, gs, hs) = A.lam_traced(e, xs)
                    aug, sets = A.augment(base, br.brackets)
                    assert sets == brackets
                    want = A.lambda_MS(
                        aug, [MSElement(x, g) for x, g in zip(xs, gs)]
                        + [MSElement(unit_cactus(), h) for h in hs])
                    assert ms == want
                    cases += 1
    assert cases == 783


def test_lam_rejects_inputs_that_do_not_fit():
    rng = R.rng_from_seed(13)
    e = chain_elem(2)
    with pytest.raises(ValueError, match="one input per slot"):
        A.lam(e, [R.random_cactus(2, rng)])
    with pytest.raises(ValueError, match="input 2 has arity 3"):
        A.lam(e, [R.random_cactus(2, rng), R.random_cactus(3, rng)])
    with pytest.raises(ValueError, match="no inputs"):
        A.lam(eta_BO(), [R.random_cactus(1, rng)])


def test_lam_refuses_a_nullary_vertex():
    rng = R.rng_from_seed(14)
    with pytest.raises(ValueError, match="^vertex 0 has arity 0; the cactus "
                       "action needs an input at every vertex$"):
        A.lam(bo_element(corolla(0), (0,), ()), [EMPTY_CACTUS])
    # the root has a nullary child and a leaf
    t = PlanarTree((corolla(0), ETA))
    with pytest.raises(ValueError, match="^vertex 1 has arity 0"):
        A.lam(bo_element(t, (0, 1), (0,)),
              [R.random_cactus(2, rng), EMPTY_CACTUS])


def test_coherence_weight_one_fixed_pair():
    rng = R.rng_from_seed(8)
    a = chain_elem(3, {frozenset({1, 2}): 1})
    bt = PlanarTree((PlanarTree((PlanarTree((ETA, ETA)),)),))
    b = bo_element(bt, (0, 1, 2), (0, 1), {frozenset({0, 1}): 1})
    for _ in range(5):
        xs = [R.random_cactus(2, rng) for _ in range(3)]
        ys = [R.random_cactus(1, rng), R.random_cactus(1, rng),
              R.random_cactus(2, rng)]
        comp = compose_BO(a, 1, b)
        lhs = A.lam(comp, ys + xs[1:])
        rhs = A.lam(a, [A.lam(b, ys)] + xs[1:])
        assert lhs == rhs


def test_coherence_nested_fractional_bracket():
    # a fractional bracket inside a weight-1 one: the sub-action must be
    # interpolated as a whole for the composite to match
    outer_tree = PlanarTree((PlanarTree((ETA, ETA, ETA)), ETA))
    a = bo_element(outer_tree, (0, 1), (0, 1, 2, 3))
    inner_tree = PlanarTree((PlanarTree((PlanarTree((ETA, ETA)), ETA)),))
    b = bo_element(inner_tree, (0, 1, 2), (0, 1, 2),
                   {frozenset({0, 1}): F(2, 3)})
    rng = R.rng_from_seed(9)
    for _ in range(5):
        xs = R.random_labelled_cacti(a.base, rng)
        ys = R.random_labelled_cacti(b.base, rng)
        comp = compose_BO(a, 2, b)
        lhs = A.lam(comp, xs[:1] + ys)
        rhs = A.lam(a, xs[:1] + [A.lam(b, ys)])
        assert lhs == rhs


def test_sigma_equivariance():
    rng = R.rng_from_seed(10)
    done = 0
    while done < 20:
        e = R.random_bo_element(rng, max_vertices=3)
        if e.base.tree.is_eta or e.arity < 2 \
                or min(T.arities(e.base.tree)) == 0:
            continue
        done += 1
        xs = R.random_labelled_cacti(e.base, rng)
        perm = tuple(R.random_permutation(rng, e.arity))
        lhs = A.lam(sigma_act_BO(perm, e), [xs[p] for p in perm])
        assert lhs == A.lam(e, xs)


def test_weight_zero_bracket_acts_like_no_bracket():
    rng = R.rng_from_seed(11)
    base = chain_elem(4).base
    for _ in range(10):
        xs = R.random_labelled_cacti(base, rng)
        items = [(frozenset({1, 2}), F(0)), (frozenset({1, 2, 3}), F(1, 2))]
        kept = [(b, w) for b, w in items if w != 0]
        lhs = A._ms_action(base, items, xs)[0].cactus
        rhs = A._ms_action(base, kept, xs)[0].cactus
        assert lhs == rhs
