import json

import pytest
from hypothesis import given, strategies as st

from brackops import trees as T
from brackops.trees import (ETA, PlanarTree, caterpillar, corolla, star,
                            num_leaves, num_vertices)
from brackops import randomgen as R


def test_eta_is_vertexless():
    assert ETA.is_eta
    assert num_vertices(ETA) == 0
    assert num_leaves(ETA) == 1


def test_corolla_counts():
    for n in range(0, 5):
        t = corolla(n)
        assert num_vertices(t) == 1
        assert num_leaves(t) == n


def test_caterpillar_shape():
    t = caterpillar(4)
    assert num_vertices(t) == 4
    assert num_leaves(t) == 5
    assert T.arities(t) == [2, 2, 2, 2]


def test_star_shape():
    t = star(3)
    assert num_vertices(t) == 4
    assert T.arities(t) == [3, 1, 1, 1]


def test_structural_equality_and_hash():
    a = PlanarTree((ETA, PlanarTree((ETA, ETA))))
    b = PlanarTree((ETA, PlanarTree((ETA, ETA))))
    c = PlanarTree((PlanarTree((ETA, ETA)), ETA))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_index_parent_child_tables():
    t = caterpillar(3)
    idx = T.index(t)
    assert idx.num_vertices() == 3
    assert idx.arity(0) == 2
    # vertex i+1 is the first child of vertex i along the spine
    for v in range(2):
        kinds = [k for k, _ in idx.child_entries[v]]
        assert kinds == ["out", "leaf"]


def test_planar_tree_enumeration_catalan():
    # one-vertex trees with n leaves: exactly the corolla
    for n in range(0, 4):
        assert T.planar_trees(1, n) == [corolla(n)]
    # all-binary trees on n vertices have n+1 leaves and Catalan count
    assert len(T.planar_trees(3, 4)) >= 5
    binary = [t for t in T.planar_trees(3, 4) if T.arities(t) == [2, 2, 2]]
    assert len(binary) == 5


def test_substitute_inverse_of_restrict():
    t = caterpillar(3)
    res = T.substitute_with_maps(t, 1, corolla(2))
    assert res.tree == t
    assert sorted(set(res.vmap_host.values()) | {res.vmap_guest[0]}) == [0, 1, 2]


def test_restrict_and_collapse_roundtrip_sizes():
    t = caterpillar(4)
    sub, old, exits = T.region(t, {1, 2})
    assert num_vertices(sub) == 2
    assert old == [1, 2]
    # vertex 2's inputs (the spine edge and its side leaf), then vertex
    # 1's side leaf; leaves are numbered from the top of the spine
    assert exits == [("out", 3), ("leaf", 2), ("leaf", 3)]
    ct, cmap = T.collapse_with_map(t, [frozenset({1, 2})])
    assert num_vertices(ct) == 3
    assert cmap[1] == cmap[2]


def test_region_is_what_collapse_replaces():
    # substituting the restriction of S back into the vertex that
    # collapses S rebuilds the tree; checked through the nest surgery
    # code, which neither region nor collapse uses
    cases = 0
    for nv in range(1, 5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                for s in T.enumerate_subtrees(t):
                    S = s.vertex_set
                    sub, rmap = T.restrict_with_map(t, S)
                    ct, cmap = T.collapse_with_map(t, [S])
                    c = cmap[next(iter(S))]
                    res = T.substitute_with_maps(ct, c, sub)
                    assert res.tree == t
                    for u in range(nv):
                        back = (res.vmap_guest[rmap[u]] if u in S
                                else res.vmap_host[cmap[u]])
                        assert back == u
                    assert T.subtree_leaf_count(t, S) == num_leaves(sub)
                    cases += 1
    assert cases == 6976


def test_subtree_root_and_leaf_count():
    t = caterpillar(4)
    assert T.subtree_root(t, {1, 2}) == 1
    # spine edge below plus one side leaf per vertex
    assert T.subtree_leaf_count(t, {1, 2}) == 3


def test_is_connected():
    t = caterpillar(4)
    assert T.is_connected(t, {1, 2})
    assert not T.is_connected(t, {0, 2})


def test_enumerate_subtrees_connected():
    t = star(3)
    subs = T.enumerate_subtrees(t, 2)
    assert all(T.is_connected(t, s.vertex_set) for s in subs)
    assert all(0 in s.vertex_set for s in subs)  # arms only meet at the root


def roundtrip(t):
    "t through the JSON text of its object form, as the CLI reads it."
    return T.tree_from_obj(json.loads(json.dumps(T.tree_to_obj(t))))


def test_json_roundtrip_fixed():
    t = PlanarTree((corolla(2), ETA, corolla(0)))
    assert roundtrip(t) == t
    assert roundtrip(ETA) == ETA


@given(st.integers(0, 10 ** 6))
def test_json_roundtrip_random(seed):
    rng = R.rng_from_seed(seed)
    t = R.random_planar_tree(rng, max_vertices=5, max_leaves=6)
    assert roundtrip(t) == t


def test_index_tables_match_a_fresh_index():
    # more distinct trees than the index cache holds, each indexed twice
    # through a structurally equal copy
    trees = [t for nv in range(1, 5) for nl in range(4)
             for t in T.planar_trees(nv, nl)]
    assert len(trees) > 64
    for t in trees + trees:
        copy = T.tree_from_obj(T.tree_to_obj(t))
        idx, fresh = T.index(copy), T.TreeIndex(t)
        assert idx.tree == t
        assert idx.subtree == fresh.subtree
        assert idx.parent == fresh.parent
        assert idx.child_entries == fresh.child_entries
        assert idx.leaf_at == fresh.leaf_at


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        T.tree_from_obj("leaf")
    with pytest.raises(ValueError):
        T.tree_from_obj({"tree": []})


def test_frac_str_roundtrip():
    from fractions import Fraction
    q = Fraction(22, 7)
    assert Fraction(T.frac_to_str(q)) == q
