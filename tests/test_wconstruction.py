import json
from fractions import Fraction

import pytest

from brackops.trees import ETA, PlanarTree, caterpillar, corolla, planar_trees
from brackops import trees as T
from brackops.operads import (OElement, o_unit, bo_element, compose_BO,
                              compose_O_with_maps, eta_BO, sigma_act_O,
                              eta_element, unit_BO)
from brackops.wconstruction import (WTree, normalize_W, compose_W,
                                    project_with_provenance, psi,
                                    psi_inverse, w_to_obj, w_from_obj)
from brackops import randomgen as R
from brackops.suites import _decorate, _shapes
from nests import (Nest, close_nest, nest_compose_W, nest_psi_inverse,
                   open_nest)

F = Fraction
THIRDS = (1, F(2, 3), F(1, 3))


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


@pytest.mark.parametrize("length", [F(3, 2), F(-1, 2)])
def test_a_length_outside_the_unit_interval_is_refused(length):
    with pytest.raises(ValueError, match=r"lengths must lie in \[0,1\]"):
        two_vertex_w(length)


@pytest.mark.parametrize("length", [0.1, "1/2", True])
def test_a_length_that_is_not_an_int_or_a_fraction_is_refused(length):
    with pytest.raises(ValueError,
                       match="lengths must be ints or Fractions, got %r"
                       % (length,)):
        two_vertex_w(length)


@pytest.mark.parametrize("leaf_order", [(0, 0, 1), (1.0, 0, 2),
                                        (True, False, 2)])
def test_a_leaf_order_that_is_not_a_bijection_of_ints_is_refused(leaf_order):
    w = two_vertex_w(F(1, 2))
    with pytest.raises(ValueError,
                       match="leaf_order is not a bijection onto the leaves"):
        WTree(w.shape, leaf_order, w.lengths, w.decorations)


def test_int_lengths_are_kept_as_fractions():
    w = two_vertex_w(1)
    assert w.lengths == (F(1),) and type(w.lengths[0]) is F


def test_zero_length_edge_collapses():
    w = two_vertex_w(F(0))
    n = normalize_W(w)
    assert normalize_W(n) == n
    assert len(n.decorations) == 1
    assert n.decorations[0].tree == caterpillar(3)


def test_positive_length_edge_survives():
    w = two_vertex_w(F(1, 2))
    assert normalize_W(w) == w


def test_psi_reads_off_one_bracket_per_edge():
    w = two_vertex_w(F(1, 2))
    e = psi(w)
    assert e.base == project_with_provenance(w)[0]
    assert dict(e.weighted.weights) == {frozenset({1, 2}): F(1, 2)}


def test_zero_length_normalization_drops_bracket():
    w = two_vertex_w(F(0))
    e = psi(normalize_W(w))
    assert e.weighted.weights == ()
    assert e.base == project_with_provenance(w)[0]


def test_psi_inverse_of_single_bracket():
    e = chain_bo(3, {frozenset({1, 2}): F(1, 2)})
    w = psi_inverse(e)
    assert len(w.decorations) == 2
    assert w.lengths == (F(1, 2),)
    assert psi(w) == e


def test_psi_roundtrip_exhaustive_small():
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
    assert w_from_obj(json.loads(json.dumps(w_to_obj(w)))) == w


def random_bo_with_leaves(rng, nl):
    "A random bracketed element with nl leaves and at most 3 vertices."
    while True:
        shapes = planar_trees(rng.randint(1, 3), nl)
        if shapes:
            return R.random_bo_element(rng, weight_choices=THIRDS,
                                       tree=rng.choice(shapes))


def test_compose_W_is_associative():
    rng = R.rng_from_seed(5)
    done = 0
    while done < 300:
        a = R.random_bo_element(rng, max_vertices=3, weight_choices=THIRDS)
        if a.arity == 0:
            continue
        i = rng.randint(1, a.arity)
        b = random_bo_with_leaves(rng, a.slot_arity(i))
        if b.arity == 0:
            continue
        j = rng.randint(1, b.arity)
        c = random_bo_with_leaves(rng, b.slot_arity(j))
        wa, wb, wc = psi_inverse(a), psi_inverse(b), psi_inverse(c)
        lhs = compose_W(compose_W(wa, i, wb), i - 1 + j, wc)
        assert lhs == compose_W(wa, i, compose_W(wb, j, wc)), (a, i, b, j, c)
        done += 1


def denormalize(w, rng):
    """A WTree that is not W0-normal, built from w: unary vertices
    decorated by permuted corollas on some edges and leaves, nullary
    vertices on some leaves of colour 1, and zero-length edges."""
    lengths = (None,) + w.lengths
    label_at = [None] * len(w.leaf_order)
    for i, pos in enumerate(w.leaf_order):
        label_at[pos] = i
    root, verts, _ = open_nest(
        w.shape, lambda v: [w.decorations[v], lengths[v]],
        label_at.__getitem__)

    def length():
        return rng.choice((F(0), F(1, 3), F(1, 2), F(1)))

    def unary(n, child):
        perm = R.random_permutation(rng, n)
        return Nest([OElement(corolla(n), (0,), perm), length()], [child])

    for node in verts:
        for s, child in enumerate(node.children):
            if child.children is None:
                n = node.label[0].slot_arity(s + 1)
                if n == 1 and rng.random() < 0.3:
                    node.children[s] = Nest([eta_element(), length()], [])
                elif rng.random() < 0.3:
                    node.children[s] = unary(n, child)
            elif rng.random() < 0.3:
                node.children[s] = unary(child.label[0].leaf_count, child)
        if node is not root and rng.random() < 0.3:
            node.label[1] = F(0)
    if rng.random() < 0.3:
        root.label[1] = length()
        root = unary(root.label[0].leaf_count, root)
        root.label[1] = None
    shape, verts, leaves = close_nest(root)
    rank = {old: new for new, old in enumerate(sorted(l.label for l in leaves))}
    leaf_order = [None] * len(leaves)
    for pos, leaf in enumerate(leaves):
        leaf_order[rank[leaf.label]] = pos
    return WTree(shape, leaf_order, [n.label[1] for n in verts[1:]],
                 [n.label[0] for n in verts])


def denormalized_trees(seed, count):
    "(w, normalize_W(w)) for `count` denormalized psi_inverse outputs."
    rng = R.rng_from_seed(seed)
    for _ in range(count):
        x = R.random_bo_element(rng, max_vertices=4, weight_choices=THIRDS)
        w = denormalize(psi_inverse(x), rng)
        yield w, normalize_W(w)


def test_normal_form_is_fixed_by_psi_inverse_of_psi():
    moved = 0
    for w, n in denormalized_trees(1, 300):
        moved += n != w
        assert psi_inverse(psi(n)) == n, w
    assert moved > 100


def test_psi_reads_any_tree_as_its_normal_form():
    for w, n in denormalized_trees(2, 300):
        assert psi(w) == psi(n), w


def pairwise_project(w):
    """Reference for project_with_provenance: fold the shape bottom-up,
    composing each child's composite into its parent's decoration with
    compose_O_with_maps, then relabel the slots by leaf_order."""

    def value(v):
        deco = w.decorations[v]
        return deco, {u: v for u in range(deco.arity)}

    def graft(a, s, b):
        (acc, prov), (bval, bprov) = a, b
        acc, ma, mb = compose_O_with_maps(acc, s, bval)
        return acc, ({ma[u]: pv for u, pv in prov.items() if u in ma}
                     | {mb[u]: pv for u, pv in bprov.items()})

    acc, prov = T.fold(T.index(w.shape), value, graft)
    if w.leaf_order:
        acc = sigma_act_O(w.leaf_order, acc)
    return acc, [prov[u] for u in range(len(prov))]


def test_the_splice_matches_the_pairwise_composite():
    rng = R.rng_from_seed(12)
    normal = [psi_inverse(R.random_bo_element(rng, max_vertices=4,
                                              weight_choices=THIRDS))
              for _ in range(300)]
    normal.append(psi_inverse(eta_BO()))
    rng = R.rng_from_seed(13)
    denormal = [w for w, _ in denormalized_trees(3, 300)]
    denormal += [denormalize(normal[-1], rng) for _ in range(20)]
    for w in normal + denormal:
        assert project_with_provenance(w) == pairwise_project(w), w
    # the grid has η decorations at the root and above it, unary
    # corollas and zero lengths
    assert any(w.decorations[0].tree.is_eta for w in denormal)
    assert any(d.tree.is_eta for w in denormal for d in w.decorations[1:])
    assert any(d.tree == corolla(1) for w in denormal for d in w.decorations)
    assert any(x == 0 for w in denormal for x in w.lengths)


def test_psi_inverse_matches_the_nest_reference():
    # the psi suite's exhaustive grid (identity labels), then seeded
    # elements with random labellings, so the canonical sort moves both
    # leaves and vertex children
    pool = [x for sh in _shapes(4, 3) for x in _decorate(sh, THIRDS)]
    rng = R.rng_from_seed(15)
    pool += [R.random_bo_element(rng, max_vertices=4, weight_choices=THIRDS)
             for _ in range(300)]
    pool.append(eta_BO())
    for x in pool:
        assert psi_inverse(x) == nest_psi_inverse(x), x
    assert len(pool) == 40589


def test_normal_forms_carry_identity_labels():
    # the psi suite's exhaustive grid, then seeded elements with random
    # labellings and η: each shape vertex keeps its region's DFS order,
    # so only the root's leaves carry a labelling
    pool = [x for sh in _shapes(4, 3) for x in _decorate(sh, THIRDS)]
    rng = R.rng_from_seed(21)
    pool += [R.random_bo_element(rng, max_vertices=4, weight_choices=THIRDS)
             for _ in range(300)]
    pool.append(eta_BO())
    for x in pool:
        w = psi_inverse(x)
        root, *above = w.decorations
        assert root.sigma == tuple(range(root.arity)), x
        assert all(d == OElement(d.tree) for d in above), x
        assert normalize_W(w) == w, x


def test_compose_W_matches_the_nest_reference():
    # every input of normal forms and of denormalized trees, with a
    # normal and a denormalized argument of its colour (and η at colour
    # 1, plain and denormalized)
    rng = R.rng_from_seed(16)
    eta = psi_inverse(eta_BO())
    pool = [psi_inverse(R.random_bo_element(rng, max_vertices=3,
                                            weight_choices=THIRDS))
            for _ in range(100)]
    pool += [w for w, _ in denormalized_trees(17, 100)]
    pool += [eta] + [denormalize(eta, rng) for _ in range(10)]
    cases = 0
    for a in pool:
        for i, color in enumerate(a.input_colors(), 1):
            b = psi_inverse(random_bo_with_leaves(rng, color))
            args = [b, denormalize(b, rng)]
            if color == 1:
                args += [eta, denormalize(eta, rng)]
            for b in args:
                assert compose_W(a, i, b) == nest_compose_W(a, i, b), \
                    (a, i, b)
                cases += 1
    assert cases == 1140
    # the pool has η decorations at the root and above it and zero lengths
    assert any(w.decorations[0].tree.is_eta for w in pool)
    assert any(d.tree.is_eta for w in pool for d in w.decorations[1:])
    assert any(x == 0 for w in pool for x in w.lengths)


def test_projected_elements_match_the_checking_constructor():
    """project_with_provenance labels its composite without checking the
    labellings again; on the splice test's grid they pass OElement's
    checks unchanged."""
    rng = R.rng_from_seed(12)
    pool = [psi_inverse(R.random_bo_element(rng, max_vertices=4,
                                            weight_choices=THIRDS))
            for _ in range(300)]
    pool += [w for w, _ in denormalized_trees(3, 300)]
    pool.append(psi_inverse(eta_BO()))
    for w in pool:
        c = project_with_provenance(w)[0]
        assert c == OElement(c.tree, c.sigma, c.tau), w
