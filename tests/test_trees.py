import gc
import hashlib
import itertools
import json
import weakref

import pytest
from hypothesis import given, strategies as st

from brackops import trees as T
from brackops.trees import ETA, PlanarTree, caterpillar, corolla, star
from brackops import randomgen as R
from nests import close_nest, open_nest
from test_dendroidal import _set_based_edges


def test_eta_is_vertexless():
    assert ETA.is_eta
    assert ETA.vertex_count == 0
    assert ETA.leaf_count == 1


def test_corolla_counts():
    for n in range(0, 5):
        t = corolla(n)
        assert t.vertex_count == 1
        assert t.leaf_count == n


def test_caterpillar_shape():
    t = caterpillar(4)
    assert t.vertex_count == 4
    assert t.leaf_count == 5
    assert T.arities(t) == [2, 2, 2, 2]


def test_star_shape():
    t = star(3)
    assert t.vertex_count == 4
    assert T.arities(t) == [3, 1, 1, 1]


@pytest.mark.parametrize("build, least", [(corolla, 0), (caterpillar, 1),
                                          (star, 0)])
def test_builders_refuse_a_count_below_their_least(build, least):
    assert build(least).vertex_count == max(least, 1)
    # caterpillar(0) read as corolla(2) and corolla(-1) as a nullary
    # vertex; a float, a bool or a string is no count
    for n in (least - 1, -5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="^%s needs an int count >= %d, "
                                             "got " % (build.__name__, least)):
            build(n)
    assert T.LEAST_COUNT[build.__name__] == least


def test_structural_equality_and_hash():
    a = PlanarTree((ETA, PlanarTree((ETA, ETA))))
    b = PlanarTree((ETA, PlanarTree((ETA, ETA))))
    c = PlanarTree((PlanarTree((ETA, ETA)), ETA))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_equal_trees_are_one_object():
    assert PlanarTree((ETA, ETA)) is corolla(2)
    assert PlanarTree(()) is corolla(0) and corolla(0) is not ETA
    for nv in range(5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                assert T.tree_from_obj(T.tree_to_obj(t)) is t


def recount(t):
    "(vertices, leaves) of t, counted by recursion."
    if t.is_eta:
        return 0, 1
    nv, nl = 1, 0
    for c in t.children:
        cv, cl = recount(c)
        nv, nl = nv + cv, nl + cl
    return nv, nl


def test_stored_counts_match_a_recount():
    cases = 0
    for nv in range(6):
        for nl in range(5):
            for t in T.planar_trees(nv, nl):
                assert (t.vertex_count, t.leaf_count) == recount(t) \
                    == (nv, nl)
                cases += 1
    assert cases > 1000


def test_trees_are_immutable_and_hold_only_trees():
    t = caterpillar(2)
    for attr, value in (("children", ()), ("vertex_count", 5),
                        ("leaf_count", 0), ("_index", None)):
        with pytest.raises(AttributeError):
            setattr(t, attr, value)
        with pytest.raises(AttributeError):
            setattr(ETA, attr, value)
    assert (t.children, t.vertex_count, t.leaf_count) \
        == ((corolla(2), ETA), 2, 3)
    for bad in ((ETA, "leaf"), (None,), ((ETA, ETA),)):
        with pytest.raises(TypeError):
            PlanarTree(bad)


def test_a_dropped_tree_leaves_the_table():
    # a shape no other test builds, so nothing else holds it
    t = PlanarTree((corolla(11), corolla(13), ETA))
    key, ref = t.children, weakref.ref(t)
    assert PlanarTree(key) is t
    # free the cyclic garbage of earlier tests first, so that only t can
    # leave the table below
    gc.collect()
    live = len(T._LIVE)
    del t
    gc.collect()
    assert ref() is None
    assert key not in T._LIVE and len(T._LIVE) == live - 1


def test_a_tree_keeps_its_index():
    # built once, and still the same object after 40 other distinct
    # trees have been indexed
    t = caterpillar(5)
    idx = T.index(t)
    others = T.planar_trees(4, 3)[:40]
    assert len(others) == 40
    for u in others:
        T.index(u)
    assert T.index(t) is idx


def test_an_indexed_tree_is_not_pinned():
    # a shape no other test builds; its index must not keep it alive
    t = PlanarTree((corolla(17), ETA, corolla(19)))
    ref = weakref.ref(t)
    T.index(t)
    del t
    gc.collect()
    assert ref() is None


def test_edges_and_root():
    t = caterpillar(2)
    es = T.edge_set(t.vertex_count, t.leaf_count)
    assert ("out", 0) in es
    # 1 root + 1 internal + 3 leaves
    assert len(es) == 5
    # the edges the index names, on η and every tree with at most 4
    # vertices and 3 leaves
    for t in [ETA] + [t for nv in range(1, 5) for nl in range(4)
                      for t in T.planar_trees(nv, nl)]:
        assert T.edge_set(t.vertex_count, t.leaf_count) \
            == set(_set_based_edges(t))


def test_index_parent_child_tables():
    t = caterpillar(3)
    idx = T.index(t)
    assert len(idx.child_entries) == 3
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


def test_planar_trees_builds_each_shape_once_in_a_fixed_order(monkeypatch):
    new, calls = PlanarTree.__new__, []

    def counting_new(cls, children=()):
        calls.append(children)
        return new(cls, children)

    T.planar_trees.cache_clear()
    monkeypatch.setattr(PlanarTree, "__new__", counting_new)
    grid = [T.planar_trees(nv, nl) for nv in range(1, 5) for nl in range(5)]
    monkeypatch.undo()
    assert len(calls) == sum(map(len, grid)) == 1942
    # the suites' seeded rng.choice draws index these lists, so a reorder
    # would silently change which cases every seeded check runs
    text = json.dumps([[T.tree_to_obj(t) for t in ts] for ts in grid])
    assert hashlib.md5(text.encode()).hexdigest() == \
        "1800f230c2fb76dc8f4e9f6bd6d9f32e"


def test_substitute_inverse_of_restrict():
    t = caterpillar(3)
    res = T.substitute_with_maps(t, 1, corolla(2))
    assert res.tree == t
    assert sorted(set(res.vmap_host.values()) | {res.vmap_guest[0]}) == [0, 1, 2]


def nest_substitute(t, v, t2, tau):
    """Reference for substitute_with_maps: open both trees as nests,
    hang v's children on the guest's leaves, let the guest take v's
    place and close the result.  Returns the tree, the host and guest
    vertex maps and the host's leaf positions."""
    root, verts, _ = open_nest(t, lambda u: (0, u), lambda p: (0, p))
    node = verts[v]
    sub, _, slots = open_nest(t2, lambda u: (1, u), lambda p: (1, p))
    if t2.is_eta:
        sub = node.children[0]
    else:
        for j, q in enumerate(tau):
            parent, slot = slots[q]
            parent.children[slot] = node.children[j]
    node.label, node.children = sub.label, sub.children
    tree, new_verts, leaves = close_nest(root)
    vmaps = {0: {}, 1: {}}
    for new, n in enumerate(new_verts):
        side, old = n.label
        vmaps[side][old] = new
    leafmap = {n.label: new for new, n in enumerate(leaves)}
    return (tree, vmaps[0], vmaps[1],
            [leafmap[0, p] for p in range(len(leaves))])


def test_substitution_matches_the_nest_reference():
    # every tree with at most 4 vertices and 3 leaves, each vertex, and
    # every guest with at most 4 vertices that keeps the result at 5 or
    # fewer, with the guest's leaves rotated by one (no involution, so a
    # tau used where its inverse belongs shows)
    cases = 0
    for nv in range(1, 5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                for v in range(nv):
                    m = T.index(t).arity(v)
                    tau = tuple((j + 1) % m for j in range(m))
                    for gv in range(min(4, 6 - nv) + 1):
                        for t2 in T.planar_trees(gv, m):
                            res = T.substitute_with_maps(t, v, t2, tau)
                            assert (res.tree, res.vmap_host, res.vmap_guest,
                                    res.leafmap_host) \
                                == nest_substitute(t, v, t2, tau)
                            cases += 1
    assert cases == 41128


def test_substitution_refuses_what_does_not_fit():
    t = caterpillar(2)
    with pytest.raises(IndexError):
        T.substitute_with_maps(t, 2, corolla(2))
    with pytest.raises(ValueError, match="arity mismatch"):
        T.substitute_with_maps(t, 1, corolla(3))
    with pytest.raises(ValueError, match="not a permutation"):
        T.substitute_with_maps(t, 1, corolla(2), (0, 0))
    for tau in [(0.0, 1), (False, True)]:
        with pytest.raises(ValueError, match="not a permutation"):
            T.substitute_with_maps(t, 1, corolla(2), tau)


def test_restrict_and_collapse_roundtrip_sizes():
    t = caterpillar(4)
    sub, old, exits = T.region(t, {1, 2})
    assert sub.vertex_count == 2
    assert old == [1, 2]
    # vertex 2's inputs (the spine edge and its side leaf), then vertex
    # 1's side leaf; leaves are numbered from the top of the spine
    assert exits == [("out", 3), ("leaf", 2), ("leaf", 3)]
    ct, cmap = T.collapse_with_map(t, [frozenset({1, 2})])
    assert ct.vertex_count == 3
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
                    # its leaves: its input edges less those inside it
                    assert sum(map(T.index(t).arity, S)) - len(S) + 1 \
                        == sub.leaf_count
                    assert T.exit_edges(T.index(t), S, min(S)) \
                        == T.region(t, S)[2]
                    cases += 1
    assert cases == 6976


def connected(t, vset):
    "vset is nonempty and a walk along tree edges inside it reaches all of it."
    parent = T.index(t).parent
    vset = set(vset)
    reached, todo = set(), list(vset)[:1]
    while todo:
        v = todo.pop()
        reached.add(v)
        todo += [u for u in vset - reached if v == parent[u]
                 or u == parent[v]]
    return bool(vset) and reached == vset


def test_subtree_root():
    t = caterpillar(4)
    assert T.subtree_root(t, {1, 2}) == 1
    for bad in ({0, 2}, set()):
        with pytest.raises(ValueError, match="not a connected subtree"):
            T.subtree_root(t, bad)
    # on every vertex set of the small trees: a connected set's root is
    # its least DFS id, and any other set is refused
    cases = 0
    for nv in range(1, 5):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                for k in range(nv + 1):
                    for vset in itertools.combinations(range(nv), k):
                        if connected(t, vset):
                            assert T.subtree_root(t, set(vset)) == vset[0]
                        else:
                            with pytest.raises(ValueError):
                                T.subtree_root(t, set(vset))
                        cases += 1
    assert cases == 10584


def test_subtree_root_and_leaf_count():
    t = caterpillar(4)
    assert T.subtree_root(t, {1, 2}) == 1
    # spine edge below plus one side leaf per vertex
    assert T.restrict_with_map(t, {1, 2})[0].leaf_count == 3
    with pytest.raises(ValueError, match="not a connected subtree"):
        T.restrict_with_map(t, {0, 2})


def test_is_connected():
    # subtree_root is the connectivity check: it accepts a connected set
    # and refuses any other
    t = caterpillar(4)
    assert connected(t, {1, 2}) and T.subtree_root(t, {1, 2}) == 1
    assert not connected(t, {0, 2})
    with pytest.raises(ValueError, match="not a connected subtree"):
        T.subtree_root(t, {0, 2})


def test_region_refuses_a_collapse_set_outside_vset():
    t = caterpillar(4)
    for stray in ({1, 2}, {2, 3}):
        with pytest.raises(ValueError, match=r"collapse set \[%d, %d\] is "
                           "not inside" % tuple(sorted(stray))):
            T.region(t, {0, 1}, [stray])
    # a set inside vset is still collapsed
    sub, old, _ = T.region(t, {0, 1, 2}, [{1, 2}])
    assert (sub.vertex_count, old) == (2, [0, 1])


def test_region_reads_each_set_once():
    t = caterpillar(4)
    for vset, collapse in [([0, 1], []), ([0, 1, 2], [[1, 2]]),
                           ([0, 1, 2, 3], [[0, 1], [2, 3]])]:
        assert T.region(t, iter(vset), (iter(c) for c in collapse)) \
            == T.region(t, vset, collapse)


def test_collapse_with_map_takes_a_generator():
    t = caterpillar(4)
    ct, cmap = T.collapse_with_map(t, (s for s in [frozenset({1, 2})]))
    assert (ct, cmap) == T.collapse_with_map(t, [{1, 2}])
    assert ct.vertex_count == 3 and cmap[1] == cmap[2]


def test_enumerate_subtrees_connected():
    t = star(3)
    subs = T.enumerate_subtrees(t, 2)
    assert all(connected(t, s.vertex_set) for s in subs)
    assert all(0 in s.vertex_set for s in subs)  # arms only meet at the root


def test_enumerate_subtrees_lists_each_set_once_in_canonical_order():
    cases = 0
    for nv in range(1, 6):
        for nl in range(4):
            for t in T.planar_trees(nv, nl):
                sets = [s.vertex_set for s in T.enumerate_subtrees(t)]
                keys = [T.vset_key(s) for s in sets]
                # vset_key is injective, so strictly increasing keys
                # mean no set is listed twice
                assert all(a < b for a, b in zip(keys, keys[1:])), t
                every = [frozenset(c) for k in range(1, nv + 1)
                         for c in itertools.combinations(range(nv), k)]
                assert set(sets) == {s for s in every if connected(t, s)}, t
                cases += 1
    assert cases == 3816


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
    # every tree with 1-4 vertices and 0-3 leaves, each indexed twice,
    # the second time as read back from its JSON object (the same tree)
    trees = [t for nv in range(1, 5) for nl in range(4)
             for t in T.planar_trees(nv, nl)]
    assert len(trees) > 64

    def dfs(t):
        "The vertices of t as their subtrees, in DFS order."
        return [t] + [u for c in t.children if not c.is_eta for u in dfs(c)]

    for t in trees + [T.tree_from_obj(T.tree_to_obj(t)) for t in trees]:
        idx, fresh = T.index(t), T.TreeIndex(t)
        assert idx.parent == fresh.parent
        assert idx.child_entries == fresh.child_entries
        assert idx.leaf_at == fresh.leaf_at
        # arities and the vertex count, recounted from the children
        vertices = dfs(t)
        assert len(idx.child_entries) == len(vertices)
        assert [idx.arity(v) for v in range(len(vertices))] \
            == T.arities(t) == [len(u.children) for u in vertices]


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        T.tree_from_obj("leaf")
    with pytest.raises(ValueError):
        T.tree_from_obj({"tree": []})


@pytest.mark.parametrize("node", [{"leaf": 0}, "", {}])
def test_a_node_that_is_not_a_list_is_refused(node):
    with pytest.raises(ValueError, match="malformed tree object"):
        T.tree_from_obj({"node": node})


def test_frac_str_roundtrip():
    from fractions import Fraction
    q = Fraction(22, 7)
    assert Fraction(T.frac_to_str(q)) == q
