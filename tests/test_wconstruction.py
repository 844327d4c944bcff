from fractions import Fraction

import pytest

from brackops.trees import ETA, PlanarTree, caterpillar
from brackops.operads import (OElement, o_unit, bo_element, compose_BO,
                              unit_BO)
from brackops.wconstruction import (WTree, normalize_W, is_normal,
                                    compose_W, project_to_O, psi,
                                    psi_inverse, w_to_json, w_from_json)
from brackops import randomgen as R

F = Fraction


def chain_bo(n, weights=()):
    t = caterpillar(n)
    return bo_element(t, tuple(range(n)), tuple(range(n + 1)), weights)


def two_vertex_w(length):
    "Two chain decorations joined by one shape edge of the given length."
    w = psi_inverse(chain_bo(3, {frozenset({1, 2}): F(1)}))
    return WTree(w.shape, w.leaf_order, (length,), w.decorations)


def test_color_mismatch_rejected():
    shape = PlanarTree((PlanarTree((ETA,)), ETA))
    with pytest.raises(ValueError):
        WTree(shape, (0, 1), (F(1, 2),),
              (OElement(caterpillar(2), (0, 1), (0, 1, 2)),
               o_unit(3)))  # slot wants arity 2, child has 3 leaves


def test_zero_length_edge_collapses():
    w = two_vertex_w(F(0))
    n = normalize_W(w)
    assert is_normal(n)
    assert len(n.decorations) == 1
    assert n.decorations[0].tree == caterpillar(3)


def test_positive_length_edge_survives():
    w = two_vertex_w(F(1, 2))
    assert normalize_W(w) == w
    assert is_normal(w)


def test_psi_reads_off_one_bracket_per_edge():
    w = two_vertex_w(F(1, 2))
    e = psi(w)
    assert e.base == project_to_O(w)
    assert dict(e.weighted.weights) == {frozenset({1, 2}): F(1, 2)}


def test_zero_length_normalization_drops_bracket():
    w = two_vertex_w(F(0))
    e = psi(normalize_W(w))
    assert e.weighted.weights == ()
    assert e.base == project_to_O(w)


def test_psi_inverse_of_single_bracket():
    e = chain_bo(3, {frozenset({1, 2}): F(1, 2)})
    w = psi_inverse(e)
    assert len(w.decorations) == 2
    assert w.lengths == (F(1, 2),)
    assert psi(w) == e


def test_psi_roundtrip_exhaustive_small():
    from brackops.trees import planar_trees
    from brackops.bracketings import enumerate_bracketings
    from brackops.bracketings import WeightedBracketing
    from brackops.operads import BOElement
    for nv in (1, 2, 3):
        for nl in range(0, 4):
            for t in planar_trees(nv, nl):
                base = OElement(t, tuple(range(nv)), tuple(range(nl)))
                for br in enumerate_bracketings(t):
                    wb = WeightedBracketing(
                        t, {b: F(2, 3) for b in br.brackets})
                    e = BOElement(base, wb)
                    assert psi(psi_inverse(e)) == e


def test_psi_inverse_roundtrip_on_normal_forms():
    rng = R.rng_from_seed(9)
    for _ in range(50):
        e = R.random_bo_element(rng, max_vertices=4,
                                weight_choices=(1, F(2, 3), F(1, 3)))
        w = psi_inverse(e)
        assert is_normal(w)
        assert psi_inverse(psi(w)) == w


def test_psi_is_an_operad_map():
    rng = R.rng_from_seed(10)
    done = 0
    while done < 40:
        a = R.random_bo_element(rng, max_vertices=3)
        if a.arity == 0:
            continue
        i = rng.randint(1, a.arity)
        b = R.random_bo_element(rng, max_vertices=3, tree=None)
        if b.leaf_count != a.slot_arity(i):
            continue
        done += 1
        lhs = psi(compose_W(psi_inverse(a), i, psi_inverse(b)))
        assert lhs == compose_BO(a, i, b)


def test_compose_W_with_unit():
    w = two_vertex_w(F(1, 2))
    e = psi(w)
    assert psi(compose_W(psi_inverse(unit_BO(e.leaf_count)), 1, w)) == e


def test_json_roundtrip():
    w = two_vertex_w(F(3, 7))
    assert w_from_json(w_to_json(w)) == w
