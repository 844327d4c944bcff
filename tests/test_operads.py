import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brackops.trees import ETA, PlanarTree, caterpillar, corolla
from brackops.operads import (OElement, o_unit, eta_element,
                              unit_BO, eta_BO, bo_element, compose_O,
                              compose_BO, sigma_act_O, sigma_act_BO,
                              bo_to_obj, bo_from_obj)
from brackops import randomgen as R
from brackops.bracketings import WeightedBracketing
from brackops.suites import _decorate, _shapes

F = Fraction


def chain_elem(n, weights=()):
    t = caterpillar(n)
    return bo_element(t, tuple(range(n)), tuple(range(n + 1)), weights)


def test_bad_labellings_rejected():
    t = caterpillar(2)
    with pytest.raises(ValueError):
        OElement(t, (0, 0), (0, 1, 2))
    with pytest.raises(ValueError):
        OElement(t, (0, 1), (0, 1))
    # a float or a bool sorts like an int but is no label
    for sigma in [(1.0, 0.0), (True, False)]:
        with pytest.raises(ValueError, match="sigma is not a vertex labelling"):
            OElement(t, sigma)
        with pytest.raises(ValueError, match="not a permutation of the slots"):
            sigma_act_O(sigma, OElement(t))
    for tau in [(0.0, 1, 2), (False, True, 2)]:
        with pytest.raises(ValueError, match="tau is not a leaf labelling"):
            OElement(t, tau=tau)


def test_slot_arity_refuses_a_slot_outside_the_slots():
    a = OElement(PlanarTree((corolla(3), ETA)))
    assert [a.slot_arity(1), a.slot_arity(2)] == [2, 3]
    # slot 0 and -1 would read sigma[-1] and sigma[-2]
    for i in (0, -1, 3):
        with pytest.raises(IndexError, match="^slot %d out of range$" % i):
            a.slot_arity(i)
        with pytest.raises(IndexError, match="^slot %d out of range$" % i):
            compose_O(a, i, o_unit(2))


def test_unit_laws_O():
    a = OElement(caterpillar(2), (0, 1), (2, 0, 1))
    for i in (1, 2):
        assert compose_O(a, i, o_unit(a.slot_arity(i))) == a
    assert compose_O(o_unit(a.leaf_count), 1, a) == a


def unary_chain(n):
    """A chain of n vertices ending in an arity-1 vertex; every other
    vertex has one side leaf."""
    t = PlanarTree((ETA,))
    for _ in range(n - 1):
        t = PlanarTree((t, ETA))
    return t


def test_eta_composition_removes_slot():
    a = OElement(corolla(1), (0,), (0,))
    res = compose_O(a, 1, eta_element())
    # substituting the vertexless tree at the only vertex leaves eta
    assert res.tree.is_eta


def test_sequential_associativity_O():
    rng = R.rng_from_seed(1)
    for _ in range(50):
        a = R.random_o_element(rng, max_vertices=3)
        if a.arity == 0:
            continue
        i = rng.randint(1, a.arity)
        b = R.random_o_element(rng, max_vertices=2,
                               max_leaves=a.slot_arity(i))
        while b.leaf_count != a.slot_arity(i):
            b = R.random_o_element(rng, max_vertices=2,
                                   max_leaves=max(a.slot_arity(i), 1))
        if b.arity == 0:
            continue
        j = rng.randint(1, b.arity)
        c = o_unit(b.slot_arity(j))
        lhs = compose_O(compose_O(a, i, b), i + j - 1, c)
        rhs = compose_O(a, i, compose_O(b, j, c))
        assert lhs == rhs


def test_sigma_tau_are_actions():
    a = OElement(caterpillar(3), (2, 0, 1), (1, 0, 3, 2))
    p = (1, 2, 0)
    q = (2, 0, 1)
    pq = tuple(p[q[i]] for i in range(3))
    assert sigma_act_O(q, sigma_act_O(p, a)) == sigma_act_O(pq, a)
    assert sigma_act_O((0, 1, 2), a) == a


def guest2():
    "An unbracketed 2-vertex element with 2 leaves."
    t = PlanarTree((PlanarTree((ETA,)), ETA))
    return bo_element(t, (0, 1), (0, 1))


def test_compose_BO_creates_weight_one_bracket():
    a = chain_elem(2)
    res = compose_BO(a, 1, guest2())
    assert dict(res.weighted.weights) == {frozenset({0, 1}): Fraction(1)}


def test_compose_BO_whole_tree_bracket_is_dropped():
    # substituting into the only vertex: the guest set is everything
    res = compose_BO(unit_BO(2), 1, guest2())
    assert res.weighted.weights == ()


def test_compose_BO_eta_into_small_bracket_discards():
    t = unary_chain(3)
    a = bo_element(t, (0, 1, 2), (0, 1, 2),
                   {frozenset({1, 2}): Fraction(1, 2)})
    res = compose_BO(a, 3, eta_BO())
    # the surviving bracket would be a single vertex: dropped
    assert res.weighted.weights == ()


def test_compose_BO_bracket_absorbs_guest():
    a = chain_elem(3, {frozenset({1, 2}): Fraction(1, 2)})
    res = compose_BO(a, 2, guest2())
    w = dict(res.weighted.weights)
    assert w == {frozenset({1, 2, 3}): Fraction(1, 2),
                 frozenset({1, 2}): Fraction(1)}


def test_compose_BO_collision_keeps_larger_weight():
    t = unary_chain(4)
    a = bo_element(t, (0, 1, 2, 3), (0, 1, 2, 3),
                   {frozenset({1, 2}): Fraction(1, 3),
                    frozenset({1, 2, 3}): Fraction(1, 2)})
    res = compose_BO(a, 4, eta_BO())
    # {1,2,3} shrinks onto the existing {1,2}: the larger weight wins
    assert dict(res.weighted.weights) == {frozenset({1, 2}): Fraction(1, 2)}


def test_unit_laws_BO():
    rng = R.rng_from_seed(2)
    for _ in range(30):
        a = R.random_bo_element(rng, max_vertices=3)
        assert compose_BO(unit_BO(a.leaf_count), 1, a) == a
        for i in range(1, a.arity + 1):
            assert compose_BO(a, i, unit_BO(a.slot_arity(i))) == a


def test_sigma_act_BO_is_an_action():
    rng = R.rng_from_seed(3)
    for _ in range(30):
        a = R.random_bo_element(rng, max_vertices=3)
        if a.arity < 2:
            continue
        p = tuple(R.random_permutation(rng, a.arity))
        q = tuple(R.random_permutation(rng, a.arity))
        pq = tuple(p[q[i]] for i in range(a.arity))
        assert sigma_act_BO(q, sigma_act_BO(p, a)) == sigma_act_BO(pq, a)
        assert sigma_act_BO(tuple(range(a.arity)), a) == a
        assert sigma_act_BO(p, a).base == sigma_act_O(p, a.base)


def test_json_roundtrip():
    rng = R.rng_from_seed(4)
    for _ in range(20):
        a = R.random_bo_element(rng, max_vertices=4)
        assert bo_from_obj(json.loads(json.dumps(bo_to_obj(a)))) == a


@given(st.integers(0, 10 ** 6))
def test_forget_brackets_is_operad_map(seed):
    rng = R.rng_from_seed(seed)
    a = R.random_bo_element(rng, max_vertices=3)
    if a.arity == 0:
        return
    i = rng.randint(1, a.arity)
    b = R.random_bo_element(rng, max_vertices=2, max_leaves=6)
    if b.leaf_count != a.slot_arity(i):
        return
    lhs = compose_BO(a, i, b).base
    rhs = compose_O(a.base, i, b.base)
    assert lhs == rhs


def test_derived_composites_match_the_checking_constructors():
    """compose_BO puts its composite's labellings and merged brackets in
    order without checking them again; on the bo-associativity pool,
    every composite with a pool element or η passes the checking
    constructors unchanged."""
    pool = [e for sh in _shapes(3, 2) for e in _decorate(sh, (1, F(1, 2)))]
    by_leaves = {}
    for e in pool:
        by_leaves.setdefault(e.leaf_count, []).append(e)
    bad = cases = bracketed = 0
    for a in pool:
        for i in range(1, a.arity + 1):
            m = a.slot_arity(i)
            for b in by_leaves.get(m, []) + ([eta_BO()] if m == 1 else []):
                c = compose_BO(a, i, b)
                try:
                    bad += (c.base != OElement(c.base.tree, c.base.sigma,
                                               c.base.tau)
                            or c.weighted != WeightedBracketing(
                                c.base.tree, c.weighted.weights))
                except ValueError:
                    bad += 1
                cases += 1
                bracketed += bool(c.weighted.weights)
    assert (bad, cases, bracketed) == (0, 33361, 33002)
