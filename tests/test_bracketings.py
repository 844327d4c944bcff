from fractions import Fraction

import pytest

from brackops.trees import ETA, caterpillar, corolla, star, planar_trees
from brackops.bracketings import (Bracketing, WeightedBracketing,
                                  enumerate_bracketings, maximal_bracketings,
                                  nerve_statistics, bracketing_to_obj,
                                  weighted_to_obj, weighted_from_obj)
from brackops import bracketings as B
from brackops import trees as T
from brackops.suites import tubing_counts
from poset_reference import nerve_statistics as reference_nerve_statistics


def test_improper_brackets_rejected():
    t = caterpillar(3)
    with pytest.raises(ValueError):
        Bracketing(t, [frozenset({0})])          # too small
    with pytest.raises(ValueError):
        Bracketing(t, [frozenset({0, 1, 2})])    # the whole tree
    with pytest.raises(ValueError):
        Bracketing(t, [frozenset({0, 2})])       # not connected


@pytest.mark.parametrize("bracket", [{0, 7}, {0, -1}])
def test_brackets_outside_the_tree_rejected(bracket):
    with pytest.raises(ValueError, match="not proper"):
        Bracketing(caterpillar(3), [frozenset(bracket)])


def test_overlapping_brackets_rejected():
    t = caterpillar(4)
    with pytest.raises(ValueError):
        Bracketing(t, [frozenset({0, 1, 2}), frozenset({1, 2, 3})])


@pytest.mark.parametrize("family, fault", [
    ([{0, 2}, {0}], r"bracket \[0, 2\] is not a subtree"),
    ([{0}, {0, 2}], r"bracket \[0\] is not large"),
], ids=["disconnected-first", "small-first"])
def test_bracketing_names_the_first_fault_in_the_order_given(family, fault):
    with pytest.raises(ValueError, match=fault):
        Bracketing(caterpillar(3), family)


@pytest.mark.parametrize("tree", [caterpillar(4), star(3)],
                         ids=["caterpillar4", "star3"])
def test_enumeration_checks_every_bracketing(tree, monkeypatch):
    calls = []
    check = B.check_brackets

    def counting(tree, sets, within):
        calls.append(list(sets))
        return check(tree, sets, within)

    monkeypatch.setattr(B, "check_brackets", counting)
    found = enumerate_bracketings(tree)
    assert len(calls) == len(found) > 1
    assert {frozenset(c) for c in calls} == {b.brackets for b in found}


def test_nested_brackets_accepted():
    t = caterpillar(4)
    b = Bracketing(t, [frozenset({1, 2}), frozenset({1, 2, 3})])
    assert len(b.brackets) == 2


def test_maximal_counts_named_polytopes():
    assert len(maximal_bracketings(caterpillar(3))) == 2
    assert len(maximal_bracketings(caterpillar(4))) == 5
    assert len(maximal_bracketings(caterpillar(5))) == 14
    assert len(maximal_bracketings(star(3))) == 6


def _maximal_pairwise(tree):
    "The maximal bracketings by their definition: compare every pair."
    all_b = enumerate_bracketings(tree)
    return [b for b in all_b if not any(b.brackets < c.brackets for c in all_b)]


def test_maximal_bracketings_match_the_pairwise_definition():
    # Bracketings see only the vertices, so trees whose vertex parents
    # agree (in DFS order) have the same ones: one tree per vertex shape
    # stands for every tree with at most 6 vertices and 3 leaves.
    shapes = {}
    for nv in range(1, 7):
        for nl in range(4):
            for t in planar_trees(nv, nl):
                shapes.setdefault(tuple(T.index(t).parent), t)
    assert len(shapes) == 1 + 1 + 2 + 5 + 14 + 42
    trees = list(shapes.values())
    trees += [caterpillar(n) for n in range(3, 9)]
    trees += [star(n) for n in range(2, 6)]
    for t in trees:
        assert maximal_bracketings(t) == _maximal_pairwise(t)


def test_bracketing_counts_match_the_tubings_of_the_inner_edges():
    trees = [t for nv in range(1, 7) for t in planar_trees(nv, 0)]
    assert len(trees) == 1 + 1 + 2 + 5 + 14 + 42
    total = 0
    for t in trees:
        want = tubing_counts(t)
        assert (len(enumerate_bracketings(t)),
                len(maximal_bracketings(t))) == want
        total += want[0]
    assert total == 13845


def test_nerve_statistics_match_the_pairwise_reference():
    # one tree per vertex shape with at most 6 vertices, as above
    shapes = {}
    for nv in range(1, 7):
        for nl in range(4):
            for t in planar_trees(nv, nl):
                shapes.setdefault(tuple(T.index(t).parent), t)
    trees = list(shapes.values()) + [caterpillar(7)]
    for t in trees:
        assert nerve_statistics(t) == reference_nerve_statistics(t), t


def test_nerve_statistics_refuse_a_tree_over_7_vertices():
    with pytest.raises(ValueError, match="enumeration limit"):
        nerve_statistics(caterpillar(8))


def test_corolla_has_only_empty_bracketing():
    assert enumerate_bracketings(corolla(3)) == [Bracketing(corolla(3), [])]


def test_vertexless_tree_has_only_empty_bracketing():
    assert enumerate_bracketings(ETA) == [Bracketing(ETA, [])]


def test_enumeration_is_in_canonical_order():
    def key(b):
        return (len(b.brackets),
                [(len(s), sorted(s)) for s in b.sorted_brackets()])

    trees = [t for nv in range(1, 7) for t in planar_trees(nv, 1)]
    trees += [star(4), star(5)]
    for t in trees:
        got = enumerate_bracketings(t)
        assert got == sorted(got, key=key)
        assert len(set(got)) == len(got)


def test_euler_characteristic_small():
    for nv in range(1, 5):
        for t in planar_trees(nv, 0):
            _, chi = nerve_statistics(t)
            assert chi == 1, t


def test_fvector_pentagon():
    fvec, chi = nerve_statistics(caterpillar(4))
    # 11 bracketings total: empty, 5 singles, 5 maximal
    assert fvec[0] == 11
    assert chi == 1


def test_weight_zero_dropped_in_normal_form():
    t = caterpillar(3)
    w = WeightedBracketing(t, {frozenset({0, 1}): Fraction(0),
                               frozenset({1, 2}): Fraction(1, 2)})
    assert dict(w.weights) == {frozenset({1, 2}): Fraction(1, 2)}


def test_weights_outside_unit_interval_rejected():
    t = caterpillar(3)
    with pytest.raises(ValueError):
        WeightedBracketing(t, {frozenset({0, 1}): Fraction(3, 2)})


@pytest.mark.parametrize("weight", [0.1, "1/2", True, False])
def test_a_weight_that_is_not_an_int_or_a_fraction_is_refused(weight):
    with pytest.raises(ValueError,
                       match="weights must be ints or Fractions, got %r"
                       % (weight,)):
        WeightedBracketing(caterpillar(3), {frozenset({0, 1}): weight})


def test_int_weights_are_kept_as_fractions():
    w = WeightedBracketing(caterpillar(3), {frozenset({0, 1}): 1,
                                            frozenset({1, 2}): 0})
    assert w.weights == ((frozenset({0, 1}), Fraction(1)),)
    assert type(w.weights[0][1]) is Fraction


def test_serialization_roundtrip():
    t = caterpillar(4)
    b = Bracketing(t, [frozenset({1, 2}), frozenset({1, 2, 3})])
    assert bracketing_to_obj(b) == [[1, 2], [1, 2, 3]]
    w = WeightedBracketing(t, {frozenset({1, 2}): Fraction(2, 3)})
    assert weighted_from_obj(t, weighted_to_obj(w)) == w
    assert weighted_to_obj(w) == [{"vertices": [1, 2], "w": "2/3"}]
