import itertools
from fractions import Fraction

import pytest

from brackops.trees import ETA, caterpillar, planar_trees
from brackops.cacti import unit_cactus
from brackops.operads import bo_element
from brackops.algebras import (TerminalAlgebra, EndoValue, endo_identity,
                               endo_compose, EndoAlgebra, CactusAlgebra)
from brackops import bo_action
from brackops import randomgen as R

import endo_reference

F = Fraction

AND = EndoValue(2, (0, 0, 0, 1))
OR = EndoValue(2, (0, 1, 1, 1))
NOT = EndoValue(1, (1, 0))


def chain_elem(n, weights=()):
    t = caterpillar(n)
    return bo_element(t, tuple(range(n)), tuple(range(n + 1)), weights)


def test_endo_value_validation_and_call():
    with pytest.raises(ValueError):
        EndoValue(2, (0, 1))
    with pytest.raises(ValueError):
        EndoValue(1, (0, 2))
    assert AND((1, 1)) == 1 and AND((1, 0)) == 0
    assert NOT((0,)) == 1


@pytest.mark.parametrize("table", [(0.5, 1.7), ("0", "1"), (0.0, 1.0)])
def test_endo_value_refuses_entries_that_are_not_bits(table):
    with pytest.raises(ValueError, match=r"need a 0/1 table of length 2\*\*1"):
        EndoValue(1, table)


@pytest.mark.parametrize("args", [(1.7, 1), (0, 2), ("1", 1), (1.0, 1),
                                  ([1], 0)])
def test_endo_value_call_refuses_arguments_that_are_not_bits(args):
    with pytest.raises(ValueError, match="arguments must be 0 or 1"):
        AND(args)


def test_endo_value_reads_booleans_as_bits():
    assert EndoValue(1, (False, True)) == endo_identity()
    assert repr(EndoValue(1, (True, False))) == "EndoValue(1, 10)"
    assert AND((True, 1)) == 1 and NOT((False,)) == 1


def test_endo_compose_matches_substitution():
    f = endo_compose(OR, 1, AND)  # (a and b) or c
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert f((a, b, c)) == ((a and b) or c)


def test_endo_compose_unit_laws():
    rng = R.rng_from_seed(0)
    P = EndoAlgebra()
    for _ in range(20):
        f = P.sample(rng.randint(1, 3), rng)
        assert endo_compose(f, rng.randint(1, f.n), endo_identity()) == f
        assert endo_compose(endo_identity(), 1, f) == f


def test_endo_compose_associativity():
    rng = R.rng_from_seed(1)
    P = EndoAlgebra()
    for _ in range(20):
        f = P.sample(2, rng)
        g = P.sample(2, rng)
        h = P.sample(2, rng)
        assert endo_compose(endo_compose(f, 1, g), 1, h) == \
            endo_compose(f, 1, endo_compose(g, 1, h))
        assert endo_compose(endo_compose(f, 1, g), 3, h) == \
            endo_compose(endo_compose(f, 2, h), 1, g)


def _tables(n):
    "Every truth table of arity n."
    return [EndoValue(n, bits)
            for bits in itertools.product((0, 1), repeat=1 << n)]


def test_endo_compose_matches_the_reference_on_every_small_pair():
    small = [f for n in (0, 1, 2) for f in _tables(n)]
    count = 0
    for a in small:
        for i in range(1, a.n + 1):
            for b in small:
                assert endo_compose(a, i, b) == \
                    endo_reference.endo_compose(a, i, b), (a, i, b)
                count += 1
    assert count == (4 + 2 * 16) * 22


def test_endo_compose_matches_the_reference_on_seeded_tables():
    rng = R.rng_from_seed(26)
    P = EndoAlgebra()
    for an in range(1, 9):
        for bn in range(0, 9 - an):
            for _ in range(3):
                a, b = P.sample(an, rng), P.sample(bn, rng)
                i = rng.randint(1, an)
                assert endo_compose(a, i, b) == \
                    endo_reference.endo_compose(a, i, b), (a, i, b)


def test_endo_act_matches_the_reference_on_every_small_tree():
    rng = R.rng_from_seed(26)
    P = EndoAlgebra()
    shapes = [t for nv in range(1, 5) for nl in range(5)
              for t in planar_trees(nv, nl)]
    eta = bo_element(ETA, (), (0,))
    assert P.act(eta, []) == endo_reference.act(eta, []) == endo_identity()
    for t in shapes:
        for _ in range(3):
            elem = R.random_bo_element(rng, tree=t)
            xs = [P.sample(elem.base.slot_arity(s), rng)
                  for s in range(1, elem.base.arity + 1)]
            assert P.act(elem, xs) == endo_reference.act(elem, xs), elem
    assert len(shapes) == 1942


def test_endo_act_on_a_chain_is_iterated_composition():
    P = EndoAlgebra()
    got = P.act(chain_elem(2), [OR, AND])
    assert got == endo_compose(OR, 1, AND)


def test_endo_act_respects_tau():
    P = EndoAlgebra()
    t = caterpillar(2)
    e = bo_element(t, (0, 1), (2, 0, 1))
    got = P.act(e, [OR, AND])
    plain = endo_compose(OR, 1, AND)
    # tau sends argument label j to planar position tau[j]
    for word in range(8):
        args = [(word >> (2 - j)) & 1 for j in range(3)]
        assert got(args) == plain((args[1], args[2], args[0]))


@pytest.mark.parametrize("count", [1, 3])
def test_endo_act_needs_one_input_per_slot(count):
    with pytest.raises(ValueError, match="need one input per slot"):
        EndoAlgebra().act(chain_elem(2), [AND] * count)


def test_endo_act_ignores_brackets_and_weights():
    rng = R.rng_from_seed(2)
    P = EndoAlgebra()
    plain = chain_elem(3)
    decorated = chain_elem(3, {frozenset({1, 2}): F(1, 2)})
    for _ in range(10):
        xs = [P.sample(2, rng) for _ in range(3)]
        assert P.act(plain, xs) == P.act(decorated, xs)


def test_terminal_algebra():
    P = TerminalAlgebra()
    assert P.unit() == "*"
    assert P.act(chain_elem(2), ["*", "*"]) == "*"
    with pytest.raises(ValueError):
        P.act(chain_elem(2), ["*", "x"])


@pytest.mark.parametrize("count", [1, 5])
def test_terminal_act_needs_one_input_per_slot(count):
    with pytest.raises(ValueError, match="need one input per slot"):
        TerminalAlgebra().act(chain_elem(2), ["*"] * count)


def test_cactus_algebra_is_the_bracketed_action():
    rng = R.rng_from_seed(3)
    P = CactusAlgebra()
    assert P.unit() == unit_cactus()
    for _ in range(10):
        e = chain_elem(3, {frozenset({0, 1}): rng.choice((F(1), F(1, 2)))})
        xs = [P.sample(2, rng) for _ in range(3)]
        assert P.act(e, xs) == bo_action.lam(e, xs)
