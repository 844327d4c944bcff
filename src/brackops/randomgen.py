"""Seeded random generators for test suites and the CLI.

Everything takes an explicit random.Random so that runs are
reproducible from a seed."""

import random
from fractions import Fraction

from . import trees as T
from .bracketings import enumerate_bracketings, WeightedBracketing
from .operads import OElement, BOElement
from .plmaps import monotone_reparam
from .cacti import (Cactus, MSElement, unit_cactus, cact1_compose,
                    relabel_cactus)


def rng_from_seed(seed):
    return random.Random(seed)


def random_fraction(rng):
    "A rational strictly between 0 and 1, of denominator at most 12."
    q = rng.randint(2, 12)
    return Fraction(rng.randint(1, q - 1), q)


def random_weight(rng, choices=(1, Fraction(1, 2))):
    return Fraction(rng.choice(choices))


def random_permutation(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def random_reparam(rng, points=2):
    "A strictly monotone endpoint-fixing map with a few breakpoints."
    xs = sorted({random_fraction(rng) for _ in range(points)})
    ys = sorted({random_fraction(rng) for _ in range(len(xs))})
    xs = xs[:len(ys)]
    return monotone_reparam([0] + xs + [1], [0] + ys + [1])


def random_two_lobe(rng):
    "A 2-lobe cactus with a random cut of the first lobe."
    s = random_fraction(rng) / 2
    h = Fraction(1, 2)
    return Cactus(2, [(0, s, 1), (s, s + h, 2), (s + h, 1, 1)])


def random_cactus(k, rng):
    "A k-lobe cactus grown by iterated 2-lobe insertion, then relabelled."
    if k < 1:
        raise ValueError("need at least one lobe")
    x = unit_cactus()
    for _ in range(k - 1):
        x = cact1_compose(x, rng.randint(1, x.k), random_two_lobe(rng))
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    return relabel_cactus(x, perm)


def random_ms_element(k, rng):
    f = random_reparam(rng)
    return MSElement(random_cactus(k, rng), f)


def random_planar_tree(rng, max_vertices=3, max_leaves=5):
    "A planar tree with at least one vertex, drawn uniformly per shape."
    while True:
        nv = rng.randint(1, max_vertices)
        nl = rng.randint(0, max_leaves)
        shapes = T.planar_trees(nv, nl)
        if shapes:
            return rng.choice(shapes)


def random_o_element(rng, max_vertices=3, max_leaves=5, tree=None):
    t = tree if tree is not None else random_planar_tree(rng, max_vertices,
                                                         max_leaves)
    n = t.vertex_count
    sigma = random_permutation(rng, n)
    tau = random_permutation(rng, t.leaf_count)
    return OElement(t, sigma, tau)


def random_bo_element(rng, max_vertices=3, max_leaves=5,
                      weight_choices=(1, Fraction(1, 2)), tree=None):
    base = random_o_element(rng, max_vertices, max_leaves, tree=tree)
    bracketing = rng.choice(enumerate_bracketings(base.tree))
    weights = {b: random_weight(rng, weight_choices)
               for b in bracketing.brackets}
    return BOElement(base, WeightedBracketing(base.tree, weights))


def random_labelled_cacti(elem, rng):
    "One random cactus per slot of a labelled tree, matching arities."
    base = elem if isinstance(elem, OElement) else elem.base
    idx = T.index(base.tree)
    return [random_cactus(idx.arity(v), rng) for v in base.sigma]
