import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from brackops.trees import ETA, PlanarTree, caterpillar, corolla, star
from brackops import trees as T
from brackops import dendroidal as D
from brackops.algebras import TerminalAlgebra, EndoAlgebra, CactusAlgebra
from brackops.cacti import cact1_compose
from brackops import randomgen as R
from brackops.bracketings import WeightedBracketing, enumerate_bracketings
from brackops.operads import OElement

from omega_reference import (reference_collapse_morphism,
                             reference_isomorphisms, reference_outer_face,
                             reference_subtree_inclusion)
from q_reference import reference_q_morphism

F = Fraction


def test_identity_and_composition():
    t = caterpillar(3)
    idm = D.identity_omega(t)
    g = D.collapse_morphism(t, [{1, 2}])
    assert D.compose_omega(idm, g) == g
    assert D.compose_omega(g, D.identity_omega(g.source)) == g


def test_collapse_morphism_images():
    t = caterpillar(4)
    g = D.collapse_morphism(t, [{1, 2}])
    assert g.source.vertex_count == 3
    assert sorted(map(sorted, g.vertex_images)) == [[0], [1, 2], [3]]


def test_subtree_inclusion_is_injective():
    t = caterpillar(4)
    f = D.subtree_inclusion(t, {1, 2})
    assert f.source.vertex_count == 2
    assert sorted(map(sorted, f.vertex_images)) == [[1], [2]]


def test_inner_face_composes_at_edge():
    t = caterpillar(2)
    f = D.inner_face(t, 1)
    assert f.source.vertex_count == 1
    assert f.vertex_images == (frozenset({0, 1}),)


def test_outer_face_drops_a_vertex():
    t = caterpillar(3)
    f = D.outer_face(t, 2)
    assert f.source.vertex_count == 2


@pytest.mark.parametrize("v", [-1, 3])
def test_outer_face_rejects_a_vertex_out_of_range(v):
    with pytest.raises(IndexError, match="unknown vertex %d" % v):
        D.outer_face(caterpillar(3), v)


@pytest.mark.parametrize("tree, v", [
    (corolla(2), 0),                          # the only vertex
    (caterpillar(3), 1),                      # a vertex child above it
    (star(2), 0),                             # the root over two branches
    (PlanarTree((corolla(1), ETA)), 0),       # the root over a leaf
])
def test_outer_face_refuses_a_vertex_that_is_not_removable(tree, v):
    with pytest.raises(ValueError, match="^vertex %d is not removable$" % v):
        D.outer_face(tree, v)


def test_degeneracy_squashes_a_unary_vertex():
    t = PlanarTree((PlanarTree((ETA,)), ETA))
    s = D.degeneracy(t, 1)
    assert s.target == corolla(2)
    assert s.vertex_images == (frozenset({0}), frozenset())


def test_compose_omega_associative_random():
    rng = R.rng_from_seed(0)
    for _ in range(40):
        tree = caterpillar(5)
        i = rng.randint(0, 3)
        g1 = D.collapse_morphism(tree, [{i, i + 1}])
        s1 = g1.source
        subs = [s.vertex_set for s in T.enumerate_subtrees(s1, 2)]
        g2 = D.subtree_inclusion(s1, set(rng.choice(subs)))
        s2 = g2.source
        g3 = D.identity_omega(s2)
        lhs = D.compose_omega(D.compose_omega(g1, g2), g3)
        rhs = D.compose_omega(g1, D.compose_omega(g2, g3))
        assert lhs == rhs


SMALL_TREES = [t for nv in range(1, 5) for nl in range(5)
               for t in T.planar_trees(nv, nl)]


def _singletons(vertices):
    return tuple(frozenset([u]) for u in vertices)


def _collapsed(tree, vset):
    "The collapse of vset with its images, each the preimage of a vertex."
    src, vmap = T.collapse_with_map(tree, [vset])
    return src, tuple(frozenset(u for u in vmap if vmap[u] == k)
                      for k in range(src.vertex_count))


def _union(outer, inner):
    "A composite's images: the union of the outer images of each inner one."
    return tuple(frozenset().union(*(outer[v] for v in img)) for img in inner)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_vertex_images_read_off_the_edges(nv):
    """On every tree with at most 4 vertices and 4 leaves, the images
    read off the edge map are those the generators are built from."""
    for tree in [t for t in SMALL_TREES if t.vertex_count == nv]:
        n = tree.vertex_count
        assert D.identity_omega(tree).vertex_images == _singletons(range(n))
        for m in D.isomorphisms(tree, tree):
            assert m.vertex_images == _singletons(
                m.edge_map[("out", v)][1] for v in range(n))
        for v in range(n):
            if T.index(tree).arity(v) == 1:
                res = T.substitute_with_maps(tree, v, ETA)
                assert D.degeneracy(tree, v).vertex_images == tuple(
                    frozenset() if u == v else frozenset([res.vmap_host[u]])
                    for u in range(n))
        for vset in (s.vertex_set for s in T.enumerate_subtrees(tree)):
            assert D.subtree_inclusion(tree, vset).vertex_images \
                == _singletons(T.region(tree, vset)[1])
            src, collapsed = _collapsed(tree, vset)
            g = D.collapse_morphism(tree, [vset])
            assert g.vertex_images == collapsed
            for wset in (s.vertex_set for s in T.enumerate_subtrees(src)):
                f = D.subtree_inclusion(src, wset)
                assert D.compose_omega(g, f).vertex_images == _union(
                    collapsed, _singletons(T.region(src, wset)[1]))


def _same_morphism(f, g):
    "Equal edge maps, vertex images and hashes."
    return (f == g and f.vertex_images == g.vertex_images
            and hash(f) == hash(g))


def _collapse_families(tree):
    """The families of one or two disjoint connected sets of at least
    two vertices."""
    big = [s.vertex_set for s in T.enumerate_subtrees(tree, min_vertices=2)]
    return [[b] for b in big] + [
        [a, b] for a, b in itertools.combinations(big, 2) if a.isdisjoint(b)]


def test_face_composites_match_the_references():
    """On every tree with at most 4 vertices and 4 leaves, the inclusion
    of each connected vertex set and the collapse of each family of one
    or two disjoint connected sets, all built through subtree_inclusion,
    are the references' morphisms."""
    inclusions = collapses = 0
    for tree in SMALL_TREES:
        for vset in (s.vertex_set for s in T.enumerate_subtrees(tree)):
            assert _same_morphism(D.subtree_inclusion(tree, vset),
                                  reference_subtree_inclusion(tree, vset))
            inclusions += 1
        for fam in _collapse_families(tree):
            assert _same_morphism(D.collapse_morphism(tree, fam),
                                  reference_collapse_morphism(tree, fam))
            collapses += 1
    assert (inclusions, collapses) == (18782, 12341)


def test_a_face_composite_is_an_inclusion_after_a_collapse():
    """subtree_inclusion(tree, vset, collapse) is the inclusion of vset
    composed with the collapse of its region tree, on every tree with at
    most 4 vertices and 4 leaves, every connected vertex set and every
    family of one or two disjoint connected sets inside it."""
    cases = 0
    for tree in SMALL_TREES:
        for vset in (s.vertex_set for s in T.enumerate_subtrees(tree)):
            inc = D.subtree_inclusion(tree, vset)
            sub, old, _ = T.region(tree, vset)
            for fam in _collapse_families(sub):
                got = D.subtree_inclusion(
                    tree, vset, [{old[u] for u in s} for s in fam])
                assert _same_morphism(got, D.compose_omega(
                    inc, reference_collapse_morphism(sub, fam)))
                cases += 1
    assert cases == 29675


def test_collapse_morphism_refusals_and_eta():
    t = caterpillar(4)
    for collapse in (D.collapse_morphism, reference_collapse_morphism):
        with pytest.raises(ValueError, match="not a connected subtree"):
            collapse(t, [{0, 2}])
        with pytest.raises(ValueError, match="not a connected subtree"):
            collapse(t, [{0, 1}, {1, 2}, {1, 3}])
        with pytest.raises(ValueError, match="vertex sets overlap"):
            collapse(t, [{0, 1}, {1, 2}])
        assert collapse(ETA, [{0}]) == D.identity_omega(ETA)


def test_face_composites_read_each_set_once():
    t = caterpillar(4)
    assert D.subtree_inclusion(t, iter([0, 1, 2]), iter([iter([1, 2])])) \
        == D.subtree_inclusion(t, [0, 1, 2], [[1, 2]])
    assert D.collapse_morphism(t, (s for s in [{1, 2}])) \
        == D.collapse_morphism(t, [{1, 2}])


def test_images_read_off_an_edge_map_never_overlap():
    """Every edge map the walk accepts, from a tree with at most 2
    vertices to one with at most 3, both with at most 2 leaves, has
    pairwise disjoint images, so the walk needs no overlap check."""
    def small(max_vertices):
        return [t for nv in range(max_vertices + 1) for nl in range(3)
                for t in T.planar_trees(nv, nl)]

    accepted = 0
    for source in small(2):
        for target in small(3):
            es, et = _set_based_edges(source), _set_based_edges(target)
            for values in itertools.product(et, repeat=len(es)):
                try:
                    g = D.OmegaMorphism(source, target, zip(es, values))
                except ValueError:
                    continue
                accepted += 1
                images = [img for img in g.vertex_images if img]
                assert len(frozenset().union(*images)) \
                    == sum(map(len, images))
    assert accepted > 1000


def test_isomorphisms_of_a_tree_with_itself():
    t = star(3)
    autos = D.isomorphisms(t, t)
    # the three identical arms can be permuted
    assert len(autos) == 6


def _trees(max_vertices, max_leaves):
    "η and every tree with at most the given vertex and leaf counts."
    return [ETA] + [t for nv in range(1, max_vertices + 1)
                    for nl in range(max_leaves + 1)
                    for t in T.planar_trees(nv, nl)]


def _equal_count_pairs(trees):
    return [(s, t) for s in trees for t in trees
            if (s.vertex_count, s.leaf_count) == (t.vertex_count, t.leaf_count)]


# a root with 5 leaves and the corollas of arity 0-3 as inputs: 9!
# orderings of the root's inputs, 1440 = 5!·3!·2! of them automorphisms
WIDE = PlanarTree((ETA,) * 5 + tuple(corolla(k) for k in range(4)))


def test_isomorphisms_match_the_reference():
    """The one matching recursion lists the reference's isomorphisms, in
    its order: on every equal-count pair among η and the trees with at
    most 3 vertices and 3 leaves, on every tree with at most 4 of each
    paired with itself, and on WIDE paired with itself."""
    small = _trees(3, 3)
    pairs = _equal_count_pairs(small) + [
        (t, t) for t in _trees(4, 4) if t.vertex_count == 4 or t.leaf_count == 4]
    found = 0
    for s, t in pairs + [(WIDE, WIDE)]:
        got = D.isomorphisms(s, t)
        assert got == reference_isomorphisms(s, t), (s, t)
        found += len(got)
    assert (len(pairs), found) == (7861, 18805 + 1440)


def _outer_face_outcome(outer_face, tree, v):
    "The face, or the type of the exception it raises."
    try:
        return outer_face(tree, v)
    except (IndexError, ValueError) as exc:
        return type(exc)


def test_outer_face_matches_the_reference():
    """On η and every tree with at most 4 vertices and 4 leaves, for
    v = -1..n, the one removability rule gives the reference's face or
    raises its exception type."""
    faces = refused = 0
    for tree in _trees(4, 4):
        for v in range(-1, tree.vertex_count + 1):
            got = _outer_face_outcome(D.outer_face, tree, v)
            assert got == _outer_face_outcome(reference_outer_face, tree, v)
            faces += isinstance(got, D.OmegaMorphism)
            refused += got is ValueError
    assert (faces, refused) == (4005, 3426)


def _canonical_form(tree):
    "A leaf is '|', a vertex its inputs' forms, sorted, in parentheses."
    if tree.is_eta:
        return "|"
    return "(%s)" % "".join(sorted(map(_canonical_form, tree.children)))


def _automorphism_count(tree):
    """|Aut(tree)|: the product over vertices of k! for each class of k
    isomorphic inputs; the leaves are one class."""
    if tree.is_eta:
        return 1
    count = math.prod(map(_automorphism_count, tree.children))
    for k in Counter(map(_canonical_form, tree.children)).values():
        count *= math.factorial(k)
    return count


def test_isomorphism_counts_match_the_automorphism_groups():
    """On every equal-count pair among η and the trees with at most 4
    vertices and 2 leaves, and on WIDE paired with itself,
    isomorphisms(s, t) has |Aut(t)| elements when s and t have one
    canonical form, and none otherwise."""
    pairs = _equal_count_pairs(_trees(4, 2))
    isomorphic = found = 0
    for s, t in pairs + [(WIDE, WIDE)]:
        same = _canonical_form(s) == _canonical_form(t)
        got = len(D.isomorphisms(s, t))
        assert got == (_automorphism_count(t) if same else 0), (s, t)
        isomorphic += same
        found += got
    assert (len(pairs), isomorphic, found) == (21904, 1218 + 1, 3151 + 1440)


def _components(edges):
    "The connected vertex sets the (parent, child) edges span."
    sets = []
    for edge in edges:
        touching = [c for c in sets if c & set(edge)]
        sets = [c for c in sets if not c & set(edge)]
        sets.append(frozenset(edge).union(*touching))
    return sets


def test_inner_faces_at_different_edges_commute():
    """For distinct non-root vertices c1, c2 of every tree with at most 4
    vertices and 4 leaves, contracting c1's output edge and then c2's
    is the collapse of the components of both edges, in either order."""
    checked = 0
    for tree in _trees(4, 4):
        parent = T.index(tree).parent
        for c1, c2 in itertools.permutations(range(1, tree.vertex_count), 2):
            first = D.inner_face(tree, c1)
            _, vmap = T.collapse_with_map(tree, [{parent[c1], c1}])
            both = D.compose_omega(first, D.inner_face(first.source, vmap[c2]))
            assert both == D.collapse_morphism(tree, _components(
                [(parent[c1], c1), (parent[c2], c2)])), (tree, c1, c2)
            checked += 1
    assert checked == 10404


def test_tilde_worked_example():
    tree = caterpillar(6)
    g = D.collapse_morphism(tree, [{1, 2, 3}])
    s = g.source
    inc = D.subtree_inclusion(s, {0, 1, 2})
    cm = D.collapse_morphism(inc.source, [frozenset(range(3))])
    f = D.compose_omega(inc, cm)
    Fm = D.OmegaTildeMorphism(f, [{frozenset({1, 2}): 1}])
    gb = [dict() for _ in range(4)]
    gb[1] = {frozenset({2, 3}): 1}
    Gm = D.OmegaTildeMorphism(g, gb)
    comp = D.compose_omega_tilde(Gm, Fm)
    got = {B for B, _ in comp.brackets[0]}
    assert got == {frozenset({2, 3}), frozenset({1, 2, 3}),
                   frozenset({1, 2, 3, 4})}
    assert all(w == 1 for _, w in comp.brackets[0])
    assert comp.base == D.compose_omega(g, f)


def _collapse_top(fam):
    "caterpillar(5) with {0,1,2,3} collapsed; fam brackets that image."
    g = D.collapse_morphism(caterpillar(5), [{0, 1, 2, 3}])
    return D.OmegaTildeMorphism(g, [fam, ()])


@pytest.mark.parametrize("fam, match", [
    ([({0, 1}, 1), ({0, 1}, F(1, 2))], "duplicate bracket"),
    ([({0, 1}, F(3, 2))], r"outside \(0,1\]"),
    ([({0, 1}, F(-1, 2))], r"outside \(0,1\]"),
    ([({3, 4}, 1)], "not proper"),
    ([({1}, 1)], "not large"),
    ([({0, 1, 2, 3}, 1)], "not proper"),
    ([({0, 2}, 1)], "not a subtree"),
    ([({0, 1}, 1), ({1, 2}, 1)], "not nested"),
    ([({0, 1}, 0.1)], "weights must be ints or Fractions, got 0.1"),
    ([({0, 1}, "1/2")], "weights must be ints or Fractions, got '1/2'"),
    ([({0, 1}, True)], "weights must be ints or Fractions, got True"),
])
def test_tilde_morphism_rejects_bad_brackets(fam, match):
    with pytest.raises(ValueError, match=match):
        _collapse_top(fam)


def test_tilde_morphism_rejects_brackets_on_a_degenerated_vertex():
    s = D.degeneracy(PlanarTree((PlanarTree((ETA,)), ETA)), 1)
    with pytest.raises(ValueError, match="degenerated vertex"):
        D.OmegaTildeMorphism(s, [(), [({0, 1}, 1)]])


@pytest.mark.parametrize("image", [[3, 9], [3, -1]])
def test_morphism_rejects_an_image_outside_the_target(image):
    obj = D.morphism_to_obj(D.collapse_morphism(caterpillar(5), [{3, 4}]))
    obj["vertices"][-1] = image
    with pytest.raises(ValueError, match="do not match the edge map"):
        D.morphism_from_obj(obj)


def test_morphism_from_obj_rejects_an_edge_listed_twice():
    obj = D.morphism_to_obj(D.identity_omega(caterpillar(2)))
    obj["edges"].insert(0, [["out", 0], ["out", 1]])
    with pytest.raises(ValueError, match=r"edge \('out', 0\) is listed twice"):
        D.morphism_from_obj(obj)


def test_morphism_from_obj_rejects_a_missing_image():
    obj = D.morphism_to_obj(D.collapse_morphism(caterpillar(5), [{3, 4}]))
    del obj["vertices"][-1]
    with pytest.raises(ValueError, match="do not match the edge map"):
        D.morphism_from_obj(obj)


def _leaves(*images):
    "An edge map's part on leaves: leaf p onto leaf images[p]."
    return {("leaf", p): ("leaf", q) for p, q in enumerate(images)}


ROOT = {("out", 0): ("out", 0)}


@pytest.mark.parametrize("source, target, edge_map, match", [
    # the walk reaches a leaf that no input edge is sent to
    (corolla(2), corolla(2), {**ROOT, **_leaves(0, 0)},
     "leaf 1 is not the image of an input edge of vertex 0"),
    # the output edge is sent above the input edge
    (corolla(1), corolla(1),
     {("out", 0): ("leaf", 0), ("leaf", 0): ("out", 0)},
     "leaf 0 is not the image of an input edge of vertex 0"),
    # two input edges share one image, which the walk leaves by once
    (corolla(3), corolla(2), {**ROOT, **_leaves(0, 1, 1)},
     "not the images of its input edges"),
    # a binary vertex sent onto an edge
    (corolla(2), ETA, {("out", 0): ("leaf", 0), **_leaves(0, 0)},
     "not the images of its input edges"),
    (corolla(2), corolla(2), ROOT, "exactly the source edges"),
    (corolla(2), corolla(2), {**ROOT, **_leaves(0, 2)}, "not a target edge"),
])
def test_morphism_refuses_an_edge_map_that_is_no_morphism(
        source, target, edge_map, match):
    with pytest.raises(ValueError, match=match):
        D.OmegaMorphism(source, target, edge_map)


def _set_based_edges(tree):
    """A tree's edges read off its index, output edges first, in id
    order, as the earlier check built them."""
    if tree.is_eta:
        return [("leaf", 0)]
    idx = T.index(tree)
    return ([("out", v) for v in range(len(idx.child_entries))]
            + [("leaf", p) for p in range(len(idx.leaf_at))])


def _set_based_refusal(source, target, edge_map):
    """The message of the earlier set-based check of an edge map's keys
    and values, or None when it passes."""
    if set(edge_map) != set(_set_based_edges(source)):
        return "edge map must be defined on exactly the source edges"
    tgt_edges = set(_set_based_edges(target))
    for e in edge_map.values():
        if e not in tgt_edges:
            return "edge map value %r is not a target edge" % (e,)
    return None


def _malformed_edge_maps():
    "(source, target, edge_map) triples the edge check must refuse."
    out = []
    bad = [("root", 0), ("out", -1), ("leaf", -1), ("out", "0"), "out",
           ("out", 0, 0)]
    for g in [D.collapse_morphism(caterpillar(3), [{1, 2}]),
              D.subtree_inclusion(caterpillar(3), {1, 2}),
              D.degeneracy(PlanarTree((PlanarTree((ETA,)), ETA)), 1),
              D.isomorphisms(star(2), star(2))[1]]:
        s, t, em = g.source, g.target, g.edge_map
        extra = bad + [("out", s.vertex_count), ("leaf", s.leaf_count)]
        missing = bad + [("out", t.vertex_count), ("leaf", t.leaf_count)]
        for e in em:
            out.append((s, t, {k: v for k, v in em.items() if k != e}))
            for x in extra:
                out.append((s, t, {**em, x: em[e]}))
                # the same count of keys, one of them no edge
                out.append((s, t, {**{k: v for k, v in em.items()
                                      if k != e}, x: em[e]}))
            for x in missing:
                out.append((s, t, {**em, e: x}))
    # η on either side
    out += [(ETA, corolla(1), {}),
            (ETA, corolla(1), {("out", 0): ("leaf", 0)}),
            (ETA, corolla(1), {("leaf", 0): ("leaf", 0), ("out", 0): ("out", 0)}),
            (ETA, corolla(1), {("leaf", 1): ("leaf", 0)}),
            (ETA, corolla(1), {("leaf", 0): ("leaf", 1)}),
            (corolla(1), ETA, {("out", 0): ("out", 0), ("leaf", 0): ("leaf", 0)}),
            (corolla(1), ETA, {("out", 0): ("leaf", 0), ("leaf", 0): ("leaf", 1)}),
            (ETA, ETA, {("leaf", 0): ("out", 0)}),
            (ETA, ETA, {("leaf", 0): ("leaf", -1)}),
            (ETA, ETA, {("out", 0): ("leaf", 0)})]
    return out


def test_morphism_refuses_a_malformed_edge_map_as_the_set_based_check():
    cases = _malformed_edge_maps()
    for source, target, edge_map in cases:
        message = _set_based_refusal(source, target, edge_map)
        assert message is not None, edge_map
        with pytest.raises(ValueError) as err:
            D.OmegaMorphism(source, target, edge_map)
        assert str(err.value) == message, edge_map
    assert len(cases) == 510


def test_tilde_morphism_drops_weight_zero_brackets():
    assert _collapse_top([({0, 1}, 0)]).brackets == ((), ())
    assert _collapse_top([({0, 1}, 0), ({0, 1, 2}, 1)]).brackets \
        == (((frozenset({0, 1, 2}), 1),), ())


def test_tilde_identity_composition():
    t = caterpillar(3)
    g = D.OmegaTildeMorphism(D.collapse_morphism(t, [{1, 2}]))
    idt = D.OmegaTildeMorphism(D.identity_omega(t))
    ids = D.OmegaTildeMorphism(D.identity_omega(g.base.source))
    assert D.compose_omega_tilde(idt, g) == g
    assert D.compose_omega_tilde(g, ids) == g


def test_q_morphism_single_step_has_no_brackets():
    t = caterpillar(3)
    g = D.collapse_morphism(t, [{1, 2}])
    q = D.q_morphism([g])
    assert all(not fam for fam in q.brackets)


def test_q_morphism_two_steps_records_intermediate():
    t = caterpillar(4)
    g1 = D.collapse_morphism(t, [{2, 3}])
    g2 = D.collapse_morphism(g1.source, [{0, 1, 2}])
    q = D.q_morphism([g2, g1])
    # the intermediate corolla {0,1,2} expands to {0,1,2,3} = everything,
    # so only the proper image {2,3} of its own factor can appear
    fams = [dict(fam) for fam in q.brackets]
    assert fams[0] == {frozenset({2, 3}): 1}


def test_q_concatenation():
    t = caterpillar(5)
    g1 = D.collapse_morphism(t, [{3, 4}])
    g2 = D.collapse_morphism(g1.source, [{1, 2}])
    g3 = D.collapse_morphism(g2.source, [{0, 1, 2}])
    chain = [g3, g2, g1]
    for cut in (1, 2):
        assert D.q_morphism(chain) == D.compose_omega_tilde(
            D.q_morphism(chain[cut:]), D.q_morphism(chain[:cut]))


def _random_factorization(rng, degeneracies):
    """Two to four random collapses and subtree inclusions, in the order
    they apply, followed by up to `degeneracies` degeneracies (fewer when
    the tree runs out of unary vertices)."""
    x0 = tree = R.random_planar_tree(rng, max_vertices=6, max_leaves=3)
    tail = []
    for _ in range(degeneracies):
        unary = [v for v in range(tree.vertex_count)
                 if T.index(tree).arity(v) == 1]
        if not unary:
            break
        tail.append(D.degeneracy(tree, rng.choice(unary)))
        tree = tail[-1].target
    head = []
    tree = x0
    for _ in range(rng.randint(2, 4)):
        large = T.enumerate_subtrees(tree, 2)
        if large and rng.random() < 0.7:
            vset = rng.choice(large).vertex_set
            head.append(D.collapse_morphism(tree, [vset]))
        else:
            vset = rng.choice(T.enumerate_subtrees(tree)).vertex_set
            head.append(D.subtree_inclusion(tree, vset))
        tree = head[-1].source
    return head[::-1] + tail


def test_q_morphism_matches_the_reference():
    """On seeded chains of collapses and inclusions, some ending in
    degeneracies, the one-pass q_morphism gives the edge map and the
    brackets of the earlier one, which composes every prefix."""
    rng = R.rng_from_seed(22)
    brackets = degenerate = 0
    for trial in range(6000):
        chain = _random_factorization(rng, 0 if trial < 4000 else 3)
        q = D.q_morphism(chain)
        # equal bases have equal edge maps
        assert q == reference_q_morphism(chain)
        brackets += sum(map(len, q.brackets))
        degenerate += any(not img for img in chain[-1].vertex_images)
    assert brackets > 1500
    assert degenerate > 1000


def test_a_factorization_must_compose():
    g = D.collapse_morphism(caterpillar(3), [{1, 2}])
    h = D.identity_omega(caterpillar(4))
    with pytest.raises(ValueError, match="empty factorization"):
        D.q_morphism([])
    with pytest.raises(ValueError, match="not composable"):
        D.q_morphism([g, h])
    with pytest.raises(ValueError, match="morphisms are not composable"):
        D.compose_omega(h, g)


@pytest.mark.parametrize("n", [2, 3])
def test_q_morphism_composes_each_factor_once(monkeypatch, n):
    tree = caterpillar(5)
    chain = []
    for _ in range(n):
        chain.insert(0, D.collapse_morphism(tree, [{0, 1}]))
        tree = chain[0].source
    calls = {"compose_omega": 0, "identity_omega": 0}

    def counting(name):
        real = getattr(D, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(D, name, counting(name))
    D.q_morphism(chain)
    assert calls == {"compose_omega": n - 1, "identity_omega": 0}


def test_phi_identity_terminal():
    t = caterpillar(3)
    P = TerminalAlgebra()
    vals = tuple("*" for _ in range(3))
    idm = D.OmegaTildeMorphism(D.identity_omega(t))
    assert D.phi_morphism(P, idm, vals) == vals


def test_phi_inner_face_is_cactus_composition():
    rng = R.rng_from_seed(1)
    P = CactusAlgebra()
    t = caterpillar(2)
    f = D.OmegaTildeMorphism(D.inner_face(t, 1))
    x1, x2 = P.sample(2, rng), P.sample(2, rng)
    assert D.phi_morphism(P, f, (x1, x2)) == (cact1_compose(x1, 1, x2),)


def test_phi_degenerate_vertex_gives_unit():
    P = TerminalAlgebra()
    t = PlanarTree((PlanarTree((ETA,)), ETA))
    s = D.degeneracy(t, 1)
    out = D.phi_morphism(P, D.OmegaTildeMorphism(s), ("*",))
    assert out == ("*", "*")


def test_segal_check_terminal_small():
    P = TerminalAlgebra()
    for nv in (1, 2, 3):
        for nl in range(0, 4):
            for t in T.planar_trees(nv, nl):
                assert D.segal_check(P, t, ("*",) * nv)


def test_segal_check_cacti_small():
    rng = R.rng_from_seed(2)
    P = CactusAlgebra()
    done = 0
    while done < 10:
        t = R.random_planar_tree(rng, max_vertices=3, max_leaves=4)
        if min(T.arities(t)) == 0:
            continue
        done += 1
        values = tuple(P.sample(a, rng) for a in T.arities(t))
        assert D.segal_check(P, t, values=values)


def test_morphism_json_roundtrip():
    t = caterpillar(4)
    g = D.collapse_morphism(t, [{1, 2}])
    assert D.morphism_from_obj(D.morphism_to_obj(g)) == g
    g = D.collapse_morphism(t, [{1, 2, 3}])
    m = D.OmegaTildeMorphism(g, [{}, {frozenset({1, 2}): F(1, 2)}])
    assert D.tilde_from_obj(D.tilde_to_obj(m)) == m


def _brute_force_morphisms(trees):
    "Every edge map between the trees that OmegaMorphism accepts."
    out = []
    for s in trees:
        for t in trees:
            es = _set_based_edges(s)
            for images in itertools.product(_set_based_edges(t),
                                            repeat=len(es)):
                try:
                    out.append(D.OmegaMorphism(s, t, dict(zip(es, images))))
                except ValueError:
                    pass
    return out


def _small_composable_pairs():
    """Every composable pair (g, f) of morphisms among η and the trees
    with 1 or 2 vertices and at most 2 leaves."""
    trees = [ETA] + [t for nv in (1, 2) for nl in (0, 1, 2)
                     for t in T.planar_trees(nv, nl)]
    assert len(trees) == 14
    homs = _brute_force_morphisms(trees)
    assert len(homs) == 298
    into = {}
    for f in homs:
        into.setdefault(f.target, []).append(f)
    return [(g, f) for g in homs for f in into.get(g.source, [])]


def test_phi_is_functorial_on_every_small_composable_pair():
    rng = R.rng_from_seed(26)
    P = EndoAlgebra()
    pairs = 0
    for g, f in _small_composable_pairs():
        if g.target.is_eta:
            continue
        G, F = D.OmegaTildeMorphism(g), D.OmegaTildeMorphism(f)
        vals = tuple(P.sample(a, rng) for a in T.arities(g.target))
        lhs = D.phi_morphism(P, D.compose_omega_tilde(G, F), vals)
        rhs = D.phi_morphism(P, F, D.phi_morphism(P, G, vals))
        assert lhs == rhs, (f, g, vals)
        pairs += 1
    assert pairs == 5508


def test_compose_omega_matches_the_checking_constructor():
    """compose_omega takes its images from its factors; on every small
    composable pair the constructor, which reads them off the composed
    edge map, gives the same morphism, images and hash."""
    pairs = 0
    for g, f in _small_composable_pairs():
        got = D.compose_omega(g, f)
        want = D.OmegaMorphism(f.source, g.target, {
            e: g.edge_map[fe] for e, fe in f.edge_map.items()})
        assert got == want, (g, f)
        assert got.vertex_images == want.vertex_images, (g, f)
        assert hash(got) == hash(want)
        pairs += 1
    assert pairs == 5508 + 31  # the 31 pairs into η too


# Derived thickened morphisms are put in order, not checked again; on a
# grid of small morphisms the checking constructor must agree with them.

GRID_TREES = [ETA] + [t for nv in (1, 2, 3) for nl in (0, 1, 2)
                      for t in T.planar_trees(nv, nl)]


def _grid_morphisms():
    """(generators, morphisms) among the grid trees, η and the trees with
    at most 3 vertices and at most 2 leaves: the generators are the face
    composites, the degeneracies and the automorphisms, and the
    morphisms are the generators and their composites of two."""
    gens = set()
    for t in GRID_TREES:
        gens.update(D.isomorphisms(t, t))
        for s in [] if t.is_eta else T.enumerate_subtrees(t):
            for coll in [[]] + _collapse_families(t):
                if all(c <= s.vertex_set for c in coll):
                    gens.add(D.subtree_inclusion(t, s.vertex_set, coll))
        gens.update(D.degeneracy(t, v) for v in range(t.vertex_count)
                    if T.index(t).arity(v) == 1)
    grid = set(GRID_TREES)
    gens = {g for g in gens if g.source in grid and g.target in grid}
    homs = set(gens)
    homs.update(D.compose_omega(g, f) for g in gens for f in gens
                if f.target == g.source)
    return sorted(gens, key=repr), sorted(homs, key=repr)


def _thickenings(m):
    """Every thickening of m whose family over each vertex is read off
    `enumerate_bracketings` of its image, each bracket of weight 1 or
    1/2."""
    per = []
    for img in m.vertex_images:
        rt, old, _ = T.region(m.target, img) if img else (ETA, (), ())
        opts = []
        for br in enumerate_bracketings(rt):
            sets = [frozenset(old[u] for u in b) for b in br.sorted_brackets()]
            for ws in itertools.product((1, F(1, 2)), repeat=len(sets)):
                opts.append(dict(zip(sets, ws)))
        per.append(opts)
    return [D.OmegaTildeMorphism(m, list(fams))
            for fams in itertools.product(*per)]


def _by_target(homs):
    into = {}
    for f in homs:
        into.setdefault(f.target, []).append(f)
    return into


def _grid():
    "The grid morphisms, each with its thickenings, and by target."
    homs = _grid_morphisms()[1]
    return homs, {m: _thickenings(m) for m in homs}, _by_target(homs)


def _refused_or_changed(m):
    "Whether the checking constructor refuses m's families or changes them."
    try:
        return D.OmegaTildeMorphism(m.base, m.brackets) != m
    except ValueError:
        return True


def test_derived_composites_match_the_checking_constructor():
    homs, thick, into = _grid()
    assert (len(homs), sum(map(len, thick.values()))) == (1744, 2480)
    cases = bracketed = bad = 0
    for g in homs:
        for f in into.get(g.source, []):
            for G in thick[g]:
                for Fm in thick[f]:
                    c = D.compose_omega_tilde(G, Fm)
                    bad += _refused_or_changed(c)
                    cases += 1
                    bracketed += any(c.brackets)
    assert (bad, cases, bracketed) == (0, 69560, 21872)


def test_derived_q_morphisms_match_the_checking_constructor():
    gens = _grid_morphisms()[0]
    into = _by_target(gens)
    chains = [[f, g] for g in gens for f in into.get(g.source, [])]
    chains += [[e] + chain for chain in chains
               for e in into.get(chain[0].source, [])]
    bad = bracketed = 0
    for chain in chains:
        q = D.q_morphism(chain)
        bad += _refused_or_changed(q)
        bracketed += any(q.brackets)
    assert (bad, len(chains), bracketed) == (0, 23979, 1482)


class _Elements:
    "A handle whose action is the bracketed element it acts by."

    def unit(self):
        return None

    def act(self, elem, inputs):
        return elem


def test_pulled_back_elements_match_the_checking_constructors():
    _, thick, _ = _grid()
    bad = elements = bracketed = 0
    for ms in thick.values():
        for m in ms:
            ident = tuple(range(m.base.target.vertex_count))
            for e in D.phi_morphism(_Elements(), m, ident):
                if e is None:
                    continue
                try:
                    bad += (e.base != OElement(e.base.tree, e.base.sigma,
                                               e.base.tau)
                            or e.weighted != WeightedBracketing(
                                e.weighted.tree, e.weighted.weights))
                except ValueError:
                    bad += 1
                elements += 1
                bracketed += bool(e.weighted.weights)
    assert (bad, elements, bracketed) == (0, 3371, 736)
