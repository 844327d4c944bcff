from fractions import Fraction

import pytest

from brackops import trees as T
from brackops import randomgen as R

F = Fraction


def test_same_seed_same_stream():
    def draw(seed):
        rng = R.rng_from_seed(seed)
        out = [R.random_fraction(rng), R.random_permutation(rng, 5),
               R.random_cactus(3, rng), R.random_reparam(rng),
               R.random_bo_element(rng, max_vertices=4)]
        out.append(R.random_planar_tree(rng))
        return out

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def test_random_fraction_range():
    rng = R.rng_from_seed(0)
    for _ in range(200):
        q = R.random_fraction(rng)
        assert 0 < q < 1


def test_random_reparam_fixes_endpoints():
    rng = R.rng_from_seed(1)
    for _ in range(50):
        f = R.random_reparam(rng, points=3)
        assert f(0) == 0 and f(1) == 1


def test_random_cactus_is_valid_and_labelled():
    rng = R.rng_from_seed(2)
    for _ in range(50):
        k = rng.randint(1, 6)
        x = R.random_cactus(k, rng)
        assert x.k == k
        labels = {lab for _, _, lab in x.arcs}
        assert labels == set(range(1, k + 1))
    with pytest.raises(ValueError):
        R.random_cactus(0, rng)


def test_random_planar_tree_respects_bounds():
    rng = R.rng_from_seed(4)
    for _ in range(50):
        t = R.random_planar_tree(rng, max_vertices=3, max_leaves=4)
        assert 1 <= t.vertex_count <= 3
        assert t.leaf_count <= 4


def test_random_bo_element_is_well_formed():
    rng = R.rng_from_seed(5)
    for _ in range(50):
        e = R.random_bo_element(rng, max_vertices=4,
                                weight_choices=(1, F(2, 3), F(1, 3)))
        assert sorted(e.base.sigma) == list(range(e.base.tree.vertex_count))
        for b, w in e.weighted.weights:
            assert w in (1, F(2, 3), F(1, 3))
            assert 2 <= len(b) < e.base.tree.vertex_count


def test_random_labelled_cacti_match_arities():
    rng = R.rng_from_seed(6)
    done = 0
    while done < 20:
        e = R.random_bo_element(rng, max_vertices=3)
        if e.base.tree.is_eta or min(T.arities(e.base.tree)) == 0:
            continue
        done += 1
        xs = R.random_labelled_cacti(e, rng)
        idx = T.index(e.base.tree)
        assert [x.k for x in xs] == [idx.arity(v) for v in e.base.sigma]
