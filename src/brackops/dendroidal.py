"""The category of trees with subtree-valued morphisms, its weighted
thickening, and the nerve construction that turns an algebra handle
into a diagram indexed by trees.

A morphism S -> T is its map on edges.  The connected set of
T-vertices each vertex of S expands to (the empty set for a vertex
degenerating onto an edge) is read off that map.  Edges carry the names
of trees.TreeIndex: ("out", vertex_id) or ("leaf", leaf_position); the
vertexless tree has the single edge ("leaf", 0)."""

from __future__ import annotations

import itertools
import json

from . import trees as T
from .trees import ETA
from .bracketings import (
    ONE, _weighted_in_order, canonical_weights, check_brackets,
    in_canonical_order, merge_brackets,
)
from .operads import BOElement, _labelled


# ---------------------------------------------------------------------------
# Morphisms of the tree category.

class OmegaMorphism:
    """A morphism of trees S -> T, fixed by its edge map.  The connected
    set of target vertices each source vertex expands to is read off the
    edge map at construction (empty = degenerated onto the image of the
    vertex's edges)."""

    __slots__ = ("source", "target", "edge_map", "vertex_images", "_hash")

    def __init__(self, source, target, edge_map):
        edge_map = dict(edge_map)
        if edge_map.keys() != T.edge_set(source.vertex_count,
                                         source.leaf_count):
            raise ValueError("edge map must be defined on exactly the source edges")
        tgt_edges = T.edge_set(target.vertex_count, target.leaf_count)
        for e in edge_map.values():
            if e not in tgt_edges:
                raise ValueError("edge map value %r is not a target edge" % (e,))
        _set_fields(self, source, target, edge_map,
                    _vertex_images(source, target, edge_map))

    def __setattr__(self, *a):
        raise AttributeError("morphisms are immutable")

    def __eq__(self, other):
        return (isinstance(other, OmegaMorphism)
                and self.source == other.source and self.target == other.target
                and self.edge_map == other.edge_map)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "OmegaMorphism(images=%s)" % (
            [sorted(s) for s in self.vertex_images],)


def _set_fields(m, source, target, edge_map, vertex_images):
    """Fill a morphism's slots, in order, from an edge map already known
    to be one and its vertex images."""
    key = hash((source, target, frozenset(edge_map.items())))
    for name, value in zip(OmegaMorphism.__slots__, (
            source, target, edge_map, vertex_images, key)):
        object.__setattr__(m, name, value)
    return m


def _vertex_images(source, target, edge_map):
    """The image of each source vertex: the target vertices met walking
    upward from the image of its output edge, stopping at the images of
    its input edges.  A unary vertex whose two edges have one image
    stops at once and gets the empty image.  Refuses an edge map that is
    not a morphism.  The images cannot overlap: the images of a vertex's
    children lie above distinct edges leaving its own."""
    idxS, idxT = T.index(source), T.index(target)
    images = []
    for v in range(source.vertex_count):
        ins = [edge_map[e] for e in idxS.child_entries[v]]
        img, exits = [], []
        stack = [edge_map[("out", v)]]
        while stack:
            e = stack.pop()
            if e in ins:
                exits.append(e)
            elif e[0] == "leaf":
                raise ValueError("leaf %d is not the image of an input edge "
                                 "of vertex %d" % (e[1], v))
            else:
                img.append(e[1])
                stack += idxT.child_entries[e[1]]
        if sorted(exits) != sorted(ins):
            raise ValueError("the edges leaving the image of vertex %d are "
                             "not the images of its input edges" % v)
        images.append(frozenset(img))
    return tuple(images)


def identity_omega(tree):
    return OmegaMorphism(tree, tree, {
        e: e for e in T.edge_set(tree.vertex_count, tree.leaf_count)})


def compose_omega(g, f):
    """The composite g o f; boundaries must match.  A composite of
    morphisms is one, so it is not checked again: the image of a vertex
    is the union of g's images over its image under f."""
    if f.target != g.source:
        raise ValueError("morphisms are not composable")
    gm, gi = g.edge_map, g.vertex_images
    return _set_fields(
        object.__new__(OmegaMorphism), f.source, g.target,
        {e: gm[fe] for e, fe in f.edge_map.items()},
        tuple(frozenset().union(*[gi[v] for v in img])
              for img in f.vertex_images))


# ---------------------------------------------------------------------------
# Generating morphisms.

def subtree_inclusion(tree, vset, collapse=()):
    """The face composite embedding the subtree on vset, with each of
    the pairwise disjoint connected sets in `collapse` contracted to one
    vertex: each source vertex goes to its old id, each leaf to its exit
    edge."""
    src, old, exits = T.region(tree, vset, collapse)
    em = {("out", nw): ("out", u) for nw, u in enumerate(old)}
    for p, e in enumerate(exits):
        em[("leaf", p)] = e
    return OmegaMorphism(src, tree, em)


def collapse_morphism(tree, vsets):
    """The inner-face composite collapsing each of the pairwise disjoint
    connected vertex sets to a single vertex of the source."""
    if tree.is_eta:
        return identity_omega(ETA)
    return subtree_inclusion(tree, range(tree.vertex_count), vsets)


def inner_face(tree, c):
    "The face contracting the output edge of the non-root vertex c."
    if c == 0 or not 0 <= c < tree.vertex_count:
        raise ValueError("need a non-root vertex")
    return collapse_morphism(tree, [{T.index(tree).parent[c], c}])


def outer_face(tree, v):
    """The face deleting a vertex v with exactly one inner edge attached:
    a vertex other than the root with no vertex child, or the root when
    its one input is a vertex's output (it drops no leaves)."""
    idx = T.index(tree)
    n = tree.vertex_count
    if not 0 <= v < n:
        raise IndexError("unknown vertex %d" % v)
    kinds = [kind for kind, _ in idx.child_entries[v]]
    removable = kinds == ["out"] if v == 0 else "out" not in kinds
    if not removable:
        raise ValueError("vertex %d is not removable" % v)
    return subtree_inclusion(tree, frozenset(range(n)) - {v})


def degeneracy(tree, v):
    "The morphism squashing the unary vertex v onto an edge."
    idx = T.index(tree)
    if idx.arity(v) != 1:
        raise ValueError("only unary vertices degenerate")
    res = T.substitute_with_maps(tree, v, ETA)
    moved = {"out": res.vmap_host, "leaf": res.leafmap_host}

    def image(e):
        # v's output edge becomes the edge above v
        kind, ref = idx.child_entries[v][0] if e == ("out", v) else e
        return kind, moved[kind][ref]

    return OmegaMorphism(tree, res.tree, {
        e: image(e) for e in T.edge_set(tree.vertex_count, tree.leaf_count)})


def isomorphisms(s, t):
    "All isomorphisms s -> t (possibly none), sorted by edge map."
    if s.is_eta or t.is_eta:
        return [identity_omega(ETA)] if s.is_eta and t.is_eta else []
    ems = _match(T.index(s).child_entries, T.index(t).child_entries, 0, 0)
    return [OmegaMorphism(s, t, em)
            for em in sorted(ems, key=lambda em: sorted(em.items()))]


def _match(es_of, et_of, vs, vt):
    """Edge-map fragments matching vs onto vt, given the child entries
    of both trees: for each pairing of their vertex children, and of
    their leaves, the product of the paired children's matches.
    Distinct pairings give distinct fragments."""
    es, et = es_of[vs], et_of[vt]
    ks, kt = ([e for e in x if e[0] == "out"] for x in (es, et))
    ls, lt = ([e for e in x if e[0] == "leaf"] for x in (es, et))
    if len(ks) != len(kt) or len(ls) != len(lt):
        return []
    out = []
    for perm in itertools.permutations(kt):
        parts = []
        for a, b in zip(ks, perm):
            parts.append(_match(es_of, et_of, a[1], b[1]))
            if not parts[-1]:
                break  # the product below is empty
        for leaves, *combo in itertools.product(
                itertools.permutations(lt), *parts):
            em = dict(zip(ls, leaves))
            em[("out", vs)] = ("out", vt)
            for part in combo:
                em.update(part)
            out.append(em)
    return out


# ---------------------------------------------------------------------------
# The weighted thickening.

class OmegaTildeMorphism:
    """A tree morphism together with, for each source vertex, a weighted
    bracketing of its image (stored in target-vertex coordinates)."""

    __slots__ = ("base", "brackets")

    def __init__(self, base, brackets=None):
        n = len(base.vertex_images)
        if brackets is None:
            brackets = [()] * n
        if len(brackets) != n:
            raise ValueError("need one bracket family per source vertex")
        canon = tuple(canonical_weights(fam) for fam in brackets)
        for img, fam in zip(base.vertex_images, canon):
            if fam and not img:
                raise ValueError("a degenerated vertex cannot carry brackets")
            check_brackets(base.target, [B for B, _ in fam], img)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "brackets", canon)

    def __setattr__(self, *a):
        raise AttributeError("morphisms are immutable")

    def __eq__(self, other):
        return (isinstance(other, OmegaTildeMorphism)
                and self.base == other.base and self.brackets == other.brackets)

    def __hash__(self):
        return hash((self.base, self.brackets))

    def __repr__(self):
        return "OmegaTildeMorphism(%r, %s)" % (
            self.base,
            [[(sorted(B), str(w)) for B, w in fam] for fam in self.brackets])


def _tilde_in_order(base, fams):
    """The thickened morphism of dicts {vertex set: weight in (0,1]}, one
    per source vertex, that a library operation derived from already
    checked morphisms: put in canonical order, not checked again."""
    m = object.__new__(OmegaTildeMorphism)
    object.__setattr__(m, "base", base)
    object.__setattr__(m, "brackets", tuple(
        [in_canonical_order(fam.items()) for fam in fams]))
    return m


def compose_omega_tilde(G, F):
    """Composite in the thickened category: the brackets over a source
    vertex w collect the images of G's brackets, the images of the
    middle corollas (weight 1, when large and proper), and the images
    of F's brackets (weights carried, when large and proper); set
    collisions keep the larger weight."""
    base = compose_omega(G.base, F.base)
    fams = []
    for w in range(len(F.base.vertex_images)):
        items = []
        for v in F.base.vertex_images[w]:
            items += G.brackets[v]
            items.append((G.base.vertex_images[v], ONE))
        for B, t in F.brackets[w]:
            items.append((frozenset(u2 for u in B
                                    for u2 in G.base.vertex_images[u]), t))
        fams.append(merge_brackets(items, len(base.vertex_images[w])))
    return _tilde_in_order(base, fams)


# ---------------------------------------------------------------------------
# Factorizations and the bracketing they induce.

def q_morphism(gs):
    """The thickened morphism assigned to a factorization [g_1, ..., g_n]
    (applied left to right): every intermediate corolla contributes the
    image of itself under the remaining composite, with weight 1, when
    that image is a large proper subset of a source vertex's image.  The
    images of distinct vertices are disjoint, so a nonempty corolla image
    lies in v's image exactly when v's image in that intermediate tree
    holds the corolla: one walk from the target end finds them all."""
    if not gs:
        raise ValueError("empty factorization")
    total = gs[-1]
    corollas = []
    for g in reversed(gs[:-1]):
        corollas += total.vertex_images
        total = compose_omega(total, g)
    return _tilde_in_order(total, [
        {S: ONE for S in corollas if len(S) >= 2 and S < img}
        for img in total.vertex_images])


# ---------------------------------------------------------------------------
# The nerve of an algebra handle.

def phi_morphism(P, m, values):
    """Pull values indexed by the target's vertices back along a thickened
    morphism: each source vertex acts by its bracketed image tree; a
    degenerated vertex yields the handle's unit."""
    base = m.base
    n = len(base.vertex_images)
    if len(values) != base.target.vertex_count:
        raise ValueError("values must be indexed by the target's vertices")
    if n == 0:
        return ()
    idxS = T.index(base.source)
    out = []
    for v in range(n):
        img = base.vertex_images[v]
        if not img:
            out.append(P.unit())
            continue
        rt, old, exits = T.region(base.target, img)
        new = {u: j for j, u in enumerate(old)}
        ins = [base.edge_map[e] for e in idxS.child_entries[v]]
        tau = tuple([exits.index(e) for e in ins])
        # old is increasing, so the relabelled brackets stay nested,
        # connected and in canonical order
        wb = _weighted_in_order(
            rt, {frozenset([new[u] for u in B]): w for B, w in m.brackets[v]})
        elem = BOElement(_labelled(rt, tuple(range(len(old))), tau), wb)
        out.append(P.act(elem, [values[u] for u in old]))
    return tuple(out)


def segal_check(P, tree, values):
    """Recompute the corolla factors of a value tuple through the vertex
    inclusions and compare with plain re-indexing."""
    if tree.is_eta:
        raise ValueError("the vertexless tree has no Segal map")
    for v in range(tree.vertex_count):
        inc = OmegaTildeMorphism(subtree_inclusion(tree, {v}))
        if phi_morphism(P, inc, values) != (values[v],):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization.

def _edge_obj(e):
    return [e[0], e[1]]


def _edge_from_obj(obj):
    "The edge of a [kind, int] pair, kind 'leaf' or 'out'."
    if (type(obj) is not list or len(obj) != 2
            or obj[0] not in ("leaf", "out") or type(obj[1]) is not int):
        raise ValueError('expected an edge ["leaf" or "out", int], got %s'
                         % json.dumps(obj))
    return obj[0], obj[1]


def morphism_to_obj(g):
    return {"source": T.tree_to_obj(g.source),
            "target": T.tree_to_obj(g.target),
            "edges": sorted([_edge_obj(a), _edge_obj(b)]
                            for a, b in g.edge_map.items()),
            "vertices": [sorted(s) for s in g.vertex_images]}


def _list_from_obj(obj, what):
    "A field that must be a JSON list; anything else is refused by name."
    if type(obj) is not list:
        raise ValueError("expected %s, got %s" % (what, json.dumps(obj)))
    return obj


def _pair_from_obj(obj, what):
    "A field that must be a JSON list of two entries."
    if type(obj) is not list or len(obj) != 2:
        raise ValueError("expected %s, got %s" % (what, json.dumps(obj)))
    return obj


def _vset_from_obj(obj):
    "A vertex set: a JSON list of ints."
    return frozenset(map(T.int_from_obj, _list_from_obj(
        obj, "a list of vertex ids")))


def morphism_from_obj(obj):
    "The morphism of an object; its vertices must be those of its edges."
    src = T.tree_from_obj(obj["source"])
    tgt = T.tree_from_obj(obj["target"])
    em = {}
    for pair in _list_from_obj(obj["edges"], "a list of edge pairs"):
        a, b = _pair_from_obj(pair, "an edge pair [edge, edge]")
        a = _edge_from_obj(a)
        if a in em:
            raise ValueError("edge %r is listed twice" % (a,))
        em[a] = _edge_from_obj(b)
    g = OmegaMorphism(src, tgt, em)
    vertices = _list_from_obj(obj["vertices"], "a list of vertex images")
    if [_vset_from_obj(s) for s in vertices] != list(g.vertex_images):
        raise ValueError("vertices %s do not match the edge map, which "
                         "gives %s" % (vertices,
                                       [sorted(s) for s in g.vertex_images]))
    return g


def tilde_to_obj(m):
    obj = morphism_to_obj(m.base)
    obj["brackets"] = [[[sorted(B), T.frac_to_str(w)] for B, w in fam]
                       for fam in m.brackets]
    return obj


def _family_from_obj(fam):
    "One source vertex's brackets: a list of [vertices, weight] pairs."
    out = []
    for entry in _list_from_obj(fam, "a list of [vertices, weight] pairs"):
        B, w = _pair_from_obj(entry, "a [vertices, weight] pair")
        out.append((_vset_from_obj(B), T.frac_from_obj(w)))
    return out


def tilde_from_obj(obj):
    base = morphism_from_obj(obj)
    fams = [_family_from_obj(fam) for fam in _list_from_obj(
        obj.get("brackets", []), "a list of bracket families")]
    if not fams:
        return OmegaTildeMorphism(base)
    return OmegaTildeMorphism(base, fams)
