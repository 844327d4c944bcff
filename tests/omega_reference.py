"""The earlier outer_face, isomorphisms and collapse_morphism, and an
inclusion assembled from restrict_with_map, kept as independent
references for the tests.  outer_face refuses through five separate
checks (the only vertex, a disconnected remainder, a vertex child, and
the root over several branches or over leaves); isomorphisms tries
every pairing of each vertex's inputs with a flag and a dedup set;
collapse_morphism reads collapse_with_map's vertex map, sending each
source vertex to the least old id that maps to it.  brackops.dendroidal
applies one removability rule and one matching recursion, and builds
every face composite through subtree_inclusion."""

import itertools

from brackops import trees as T
from brackops.trees import ETA
from brackops.dendroidal import OmegaMorphism, identity_omega, subtree_inclusion


def reference_outer_face(tree, v):
    """The face deleting a removable vertex v: either a top vertex with
    only leaf children, or the root when it has a single vertex child
    carrying all the leaves."""
    idx = T.index(tree)
    n = tree.vertex_count
    if not 0 <= v < n:
        raise IndexError("unknown vertex %d" % v)
    keep = frozenset(range(n)) - {v}
    if not keep:
        raise ValueError("cannot delete the only vertex")
    if len(T.set_roots(idx.parent, keep)) != 1:
        raise ValueError("vertex %d is not removable" % v)
    if v != 0 and any(kind == "out" for kind, _ in idx.child_entries[v]):
        raise ValueError("vertex %d is not removable" % v)
    if v == 0 and len(idx.vertex_children(0)) != 1:
        raise ValueError("the root is removable only over a single branch")
    if v == 0 and any(kind == "leaf" for kind, _ in idx.child_entries[0]):
        raise ValueError("deleting the root must not drop leaves")
    return subtree_inclusion(tree, keep)


def reference_isomorphisms(s, t):
    "All isomorphisms s -> t (possibly none)."
    if s.is_eta or t.is_eta:
        return [identity_omega(ETA)] if s.is_eta and t.is_eta else []
    if s.vertex_count != t.vertex_count:
        return []
    idxS, idxT = T.index(s), T.index(t)

    def match(vs, vt):
        "Edge-map fragments matching vs onto vt."
        es, et = idxS.child_entries[vs], idxT.child_entries[vt]
        if len(es) != len(et):
            return []
        out = []
        for perm in itertools.permutations(range(len(et))):
            slot_opts = []
            ok = True
            for s_slot, t_slot in enumerate(perm):
                (ks, rs), (kt, rt) = es[s_slot], et[t_slot]
                if ks != kt:
                    ok = False
                    break
                if ks == "leaf":
                    slot_opts.append([{es[s_slot]: et[t_slot]}])
                else:
                    sub = match(rs, rt)
                    if not sub:
                        ok = False
                        break
                    slot_opts.append(sub)
            if not ok:
                continue
            for combo in itertools.product(*slot_opts):
                em = {("out", vs): ("out", vt)}
                for em2 in combo:
                    em.update(em2)
                out.append(em)
        return out

    result = {OmegaMorphism(s, t, em) for em in match(0, 0)}
    return sorted(result, key=lambda m: sorted(m.edge_map.items()))


def reference_collapse_morphism(tree, vsets):
    """The inner-face composite collapsing each of the pairwise disjoint
    connected vertex sets to a single vertex of the source."""
    vsets = [frozenset(s) for s in vsets]
    src, vmap = T.collapse_with_map(tree, vsets)
    em = {("leaf", p): ("leaf", p) for p in range(tree.leaf_count)}
    # a connected set's root has its least DFS id
    for old, new in sorted(vmap.items()):
        em.setdefault(("out", new), ("out", old))
    return OmegaMorphism(src, tree, em)


def reference_subtree_inclusion(tree, vset):
    """The outer-face composite embedding the subtree on vset: its
    vertices through restrict_with_map's map, its leaves onto the edges
    leaving vset, in the planar order of exit_edges."""
    src, vmap = T.restrict_with_map(tree, vset)
    em = {("out", new): ("out", old) for old, new in vmap.items()}
    exits = T.exit_edges(T.index(tree), vset, T.subtree_root(tree, vset))
    em.update((("leaf", p), e) for p, e in enumerate(exits))
    return OmegaMorphism(src, tree, em)
