"""Rooted planar trees: substitution, regions on connected
vertex sets and a bottom-up fold.

Trees are stored recursively.  A tree is either the vertexless tree Eta
(one edge, no vertices) or a root vertex with an ordered tuple of
children; every child is again a tree, and a child equal to Eta plays
the role of a leaf edge.  Trees are hash-consed: equal trees are one
object, so they compare and hash by identity and share their subtrees.
Vertices are addressed by their index in depth-first (root first,
children left to right) order, which is stable for a given tree; the
surgery operations return translation maps so that vertex references
can be transported across compositions.  An edge is named by its upper
end: ("out", v) is the output edge of vertex v and ("leaf", p) the leaf
at planar position p.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import re
import weakref
from fractions import Fraction


class PlanarTree:
    """A rooted planar tree.  `children` is a tuple of PlanarTree values;
    the singleton ETA stands for both the vertexless tree and a leaf.
    Trees are hash-consed: PlanarTree(children) returns the one live tree
    with those children, so equal trees are one object, `==` and `hash`
    go by identity, and each tree carries its vertex and leaf counts (and
    its TreeIndex, once `index` has built it)."""

    __slots__ = ("children", "vertex_count", "leaf_count", "_index",
                 "__weakref__")
    is_eta = False

    def __new__(cls, children=()):
        children = tuple(children)
        tree = _LIVE.get(children)
        if tree is not None:
            return tree
        nv, nl = 1, 0
        for c in children:
            if not isinstance(c, PlanarTree):
                raise TypeError("children must be PlanarTree values")
            nv += c.vertex_count
            nl += c.leaf_count
        tree = object.__new__(cls)
        _init(tree, children, nv, nl)
        _LIVE[children] = tree
        return tree

    def __setattr__(self, *a):
        raise AttributeError("PlanarTree is immutable")

    def __repr__(self):
        return "PlanarTree(%s)" % (list(self.children),)


def _init(tree, children, nv, nl):
    object.__setattr__(tree, "children", children)
    object.__setattr__(tree, "vertex_count", nv)
    object.__setattr__(tree, "leaf_count", nl)
    object.__setattr__(tree, "_index", None)


# children tuple -> the live tree with those children; a tree leaves the
# table when the last reference to it goes
_LIVE = weakref.WeakValueDictionary()


class _Eta(PlanarTree):
    __slots__ = ()
    is_eta = True

    def __new__(cls):
        eta = object.__new__(cls)
        _init(eta, (), 0, 1)
        return eta

    def __repr__(self):
        return "ETA"


ETA = _Eta()


# the least count each builder below takes; the CLI's shorthands read it
LEAST_COUNT = {"corolla": 0, "caterpillar": 1, "star": 0}


def _count(n, name):
    "A builder's count: an int, not a bool, of at least LEAST_COUNT[name]."
    if type(n) is not int or n < LEAST_COUNT[name]:
        raise ValueError("%s needs an int count >= %d, got %r"
                         % (name, LEAST_COUNT[name], n))
    return n


def corolla(n):
    "The one-vertex tree with n >= 0 leaves."
    return PlanarTree((ETA,) * _count(n, "corolla"))


def caterpillar(n):
    """A chain of n >= 1 binary vertices: the first input of each carries
    the next vertex (the last vertex has only leaves)."""
    t = corolla(2)
    for _ in range(_count(n, "caterpillar") - 1):
        t = PlanarTree((t, ETA))
    return t


def star(arms):
    "A root vertex with `arms` >= 0 unary vertex children."
    return PlanarTree(tuple(corolla(1) for _ in range(_count(arms, "star"))))


# ---------------------------------------------------------------------------
# Indexing: DFS vertex ids, planar leaf positions, parent/child tables.

class TreeIndex:
    """Tables for a tree: for each vertex (by DFS id) its parent id (-1
    for the root) and its input edges in slot order, ("out", child_id)
    or ("leaf", leaf_position); and the (vertex, slot) of each leaf.
    `index` hands the same tables to every caller: they are read-only.
    They hold no reference to the tree, so a dropped tree is freed."""

    __slots__ = ("parent", "child_entries", "leaf_at")

    def __init__(self, tree):
        # leaf_at: leaf position -> (vertex_id, slot); [] for Eta
        self.parent, self.child_entries, self.leaf_at = tables = [], [], []
        if not tree.is_eta:
            _index_walk(tree, -1, *tables)

    def arity(self, vid):
        return len(self.child_entries[vid])

    def vertex_children(self, vid):
        "Ids of vertex children only, in planar order."
        return [c for k, c in self.child_entries[vid] if k == "out"]


# Each recursion, here and elsewhere, is a module-level function given its
# tables: a nested function that calls itself is a cycle through its closure.

def _index_walk(node, par, parent, child_entries, leaf_at):
    "Append node's vertex and those above it to the tables; its DFS id."
    vid = len(parent)
    parent.append(par)
    entries = []
    child_entries.append(entries)
    for s, ch in enumerate(node.children):
        if ch.is_eta:
            entries.append(("leaf", len(leaf_at)))
            leaf_at.append((vid, s))
        else:
            entries.append(
                ("out", _index_walk(ch, vid, parent, child_entries, leaf_at)))
    return vid


def index(tree):
    """The TreeIndex of a tree, built on first use and kept on the tree
    (surgery and validation index the same trees over and over)."""
    idx = tree._index
    if idx is None:
        idx = TreeIndex(tree)
        object.__setattr__(tree, "_index", idx)
    return idx


@functools.lru_cache(maxsize=256)
def edge_set(vertex_count, leaf_count):
    """The edges of every tree with these stored counts: ("out", v) for
    0 <= v < vertex_count and ("leaf", p) for 0 <= p < leaf_count (η
    has only ("leaf", 0))."""
    return frozenset([("out", v) for v in range(vertex_count)]
                     + [("leaf", p) for p in range(leaf_count)])


def arities(tree):
    "Vertex arities in DFS order, read off the children (builds no index)."
    return [] if tree.is_eta else [len(tree.children)] + [
        a for c in tree.children for a in arities(c)]


def fold(idx, value, graft):
    """Evaluate along an indexed tree bottom-up: start from value(v) at
    each vertex, then acc = graft(acc, s, child's result) for the vertex
    children at slot s (1-based), last slot first.  Returns the value at
    the root."""
    return _fold(idx.child_entries, 0, value, graft)


def _fold(child_entries, v, value, graft):
    acc = value(v)
    entries = child_entries[v]
    for s in range(len(entries) - 1, -1, -1):
        kind, ref = entries[s]
        if kind == "out":
            acc = graft(acc, s + 1, _fold(child_entries, ref, value, graft))
    return acc


# ---------------------------------------------------------------------------
# Surgery.

def splice(pieces):
    """Substitute trees for vertices, any number at once, in one walk.
    pieces[k] is (tree, subs): subs maps a vertex v of that tree to (j,
    tau), and piece j (never piece 0) then replaces v, with its leaf at
    position tau[i] receiving input i of v; v's arity is the piece's leaf
    count.  Piece 0 is the outermost.  Returns the new tree, the (piece,
    vertex) label of each new vertex in DFS order, and the new planar
    position of each leaf of piece 0."""
    labels, outer = [], []  # outer: piece 0's leaves, in their new order
    walk = pieces, [index(t).child_entries for t, _ in pieces], labels, outer
    tree = _splice_edge(walk, 0, "leaf" if pieces[0][0].is_eta else "out",
                        0, None)
    positions = [0] * len(outer)
    for new, old in enumerate(outer):
        positions[old] = new
    return tree, labels, positions


def _splice_edge(walk, k, kind, ref, ctx):
    """The tree above the edge (kind, ref) of piece k, which sits where
    ctx says: None for piece 0, else (k', v, tau, ctx') when piece k
    replaces vertex v of piece k'.  walk is (pieces, their child_entries,
    labels, outer): splice's lists, which grow as the walk goes."""
    pieces, entries, labels, outer = walk
    while True:
        if kind == "leaf":
            if ctx is None:
                outer.append(ref)
                return ETA
            k, v, tau, ctx = ctx
            kind, ref = entries[k][v][tau.index(ref)]
            continue
        sub = pieces[k][1].get(ref)
        if sub is None:
            break
        j, tau = sub
        ctx = (k, ref, tau, ctx)
        k = j
        kind, ref = ("leaf", 0) if pieces[j][0].is_eta else ("out", 0)
    labels.append((k, ref))
    children = []
    for e in entries[k][ref]:
        children.append(_splice_edge(walk, k, e[0], e[1], ctx))
    return PlanarTree(children)


# A substitution's tree and its translation maps, old to new: vertex
# ids of the host and of the guest, and the host's leaf positions.
Substitution = collections.namedtuple(
    "Substitution", "tree vmap_host vmap_guest leafmap_host")


def substitute_with_maps(t, v, t2, tau=None):
    """Replace vertex v of t by the tree t2, attaching v's children to
    the leaves of t2.  `tau` (optional) is a tuple with tau[j] = planar
    leaf position of t2 that receives input j of v; identity if omitted.
    Requires arity(v) == t2.leaf_count."""
    if not 0 <= v < t.vertex_count:
        raise IndexError("no vertex %r" % (v,))
    m = index(t).arity(v)
    if t2.leaf_count != m:
        raise ValueError("arity mismatch: vertex has %d inputs, tree has %d leaves"
                         % (m, t2.leaf_count))
    tau = tuple(range(m)) if tau is None else as_labelling(
        tau, m, "tau is not a permutation of 0..%d" % (m - 1))
    return _substitute(t, v, t2, tau)


def _substitute(t, v, t2, tau):
    """substitute_with_maps of a vertex and a tau tuple already known to
    fit it, as an element's slot and leaf labelling do: not checked
    again."""
    tree, labels, leafmap_host = splice([(t, {v: (1, tau)}), (t2, {})])
    vmaps = {}, {}
    for new, (side, old) in enumerate(labels):
        vmaps[side][old] = new
    return Substitution(tree, *vmaps, leafmap_host)


# ---------------------------------------------------------------------------
# Subtrees.

# A connected set of vertices of a tree (enumerate_subtrees lists them).
Subtree = collections.namedtuple("Subtree", "vertex_set")


def set_roots(parent, vset):
    "The vertices of vset whose parent lies outside it (one if connected)."
    return [v for v in vset if parent[v] not in vset]


def subtree_root(tree, vset):
    """The vertex of vset whose parent lies outside it; refuses a set
    that is not connected.  Vertices are numbered in DFS order, so a
    connected set's root is its least id: callers holding a set known to
    be connected take min(vset)."""
    roots = set_roots(index(tree).parent, vset)
    if len(roots) != 1:
        raise ValueError("not a connected subtree")
    return roots[0]


def exit_edges(idx, vset, v):
    """The edges leaving the connected vertex set vset upward from its
    vertex v, in planar order, read off the index tables."""
    out = []
    for e in idx.child_entries[v]:
        if e[0] == "out" and e[1] in vset:
            out += exit_edges(idx, vset, e[1])
        else:
            out.append(e)
    return out


def region(tree, vset, collapse=()):
    """The part of the tree on the connected vertex set vset: (the
    standalone subtree, the old id of each of its vertices in DFS order,
    the old edge at each of its leaves in planar order).  Those edges are
    the ones leaving vset upward.  Each of the pairwise disjoint
    connected sets in `collapse`, inside vset (else refused), becomes one
    vertex, named by its root, whose inputs are the edges leaving the
    set.  Each set is read once: any iterable will do."""
    vset = frozenset(vset)
    collapse = [frozenset(vs) for vs in collapse]
    idx = index(tree)
    root = subtree_root(tree, vset)
    entries = idx.child_entries
    if collapse:
        entries = list(entries)
        tops = [subtree_root(tree, vs) for vs in collapse]
        seen = set()
        for top, vs in zip(tops, collapse):
            if not vs <= vset:
                raise ValueError("collapse set %s is not inside the vertex "
                                 "set" % sorted(vs))
            if not seen.isdisjoint(vs):
                raise ValueError("vertex sets overlap")
            seen.update(vs)
            entries[top] = exit_edges(idx, vs, top)
    old, exits = [], []
    return _region_rec(entries, vset, root, old, exits), old, exits


def _region_rec(entries, vset, v, old, exits):
    "The region's tree above its vertex v; old and exits grow in DFS order."
    old.append(v)
    ch = []
    for e in entries[v]:
        kind, ref = e
        if kind == "leaf" or ref not in vset:
            exits.append(e)
            ch.append(ETA)
        else:
            ch.append(_region_rec(entries, vset, ref, old, exits))
    return PlanarTree(ch)


def restrict_with_map(tree, vset):
    "The region's tree together with {old vertex id: new vertex id}."
    sub, old, _ = region(tree, vset)
    return sub, {u: new for new, u in enumerate(old)}


def collapse_with_map(tree, vsets):
    """Collapse each of the pairwise disjoint connected vertex sets to a
    single vertex, whose inputs are the edges leaving the set.  Returns
    (tree, map old id -> new id); all vertices of a collapsed set map to
    the id of its replacement vertex."""
    if tree.is_eta:
        return tree, {}
    vsets = [frozenset(vs) for vs in vsets]
    new, old, _ = region(tree, range(tree.vertex_count), vsets)
    tops = {min(vs): vs for vs in vsets}  # region checked them
    return new, {u: k for k, v in enumerate(old) for u in tops.get(v, (v,))}


def vset_key(vset):
    """The canonical order of vertex sets: by size, then sorted ids.
    `enumerate_bracketings` relies on `enumerate_subtrees` listing in it."""
    return (len(vset), tuple(sorted(vset)))


def enumerate_subtrees(tree, min_vertices=1):
    """All connected vertex subsets of size >= min_vertices, in the
    canonical order (`vset_key`)."""
    idx = index(tree)
    found = []
    for r in range(tree.vertex_count):
        _grow(idx, found, frozenset((r,)), tuple(idx.vertex_children(r)))
    found.sort(key=vset_key)
    return [Subtree(s) for s in found if len(s) >= min_vertices]


def _grow(idx, found, current, candidates):
    "Grow connected sets downward from current's root: each set once."
    found.append(current)
    for pos, c in enumerate(candidates):
        _grow(idx, found, current | {c},
              candidates[pos + 1:] + tuple(idx.vertex_children(c)))


def vsets_nested(a, b):
    return a.isdisjoint(b) or a <= b or b <= a


# ---------------------------------------------------------------------------
# Enumeration of tree shapes (test/CLI grids).

@functools.cache
def planar_trees(num_verts, num_lvs):
    "All planar trees with the given vertex and leaf counts."
    if num_verts == 0:
        return [ETA] if num_lvs == 1 else []
    out = []
    for child_count in range(0, num_verts + num_lvs):
        for kinds in itertools.product(("out", "leaf"), repeat=child_count):
            nv = kinds.count("out")
            if nv < num_verts and child_count - nv <= num_lvs:
                out += map(PlanarTree, _fill(kinds, num_verts - 1, num_lvs))
    return out


def _fill(kinds, verts, leaves):
    "The children tuples of these kinds with exactly verts and leaves above."
    if not kinds:
        return [()] if verts == 0 and leaves == 0 else []
    out = []
    head, rest = kinds[0], kinds[1:]
    if head == "leaf":
        for t in _fill(rest, verts, leaves - 1) if leaves else ():
            out.append((ETA,) + t)
        return out
    for nv in range(1, verts + 1):
        for nl in range(0, leaves + 1):
            subs = planar_trees(nv, nl)
            tails = _fill(rest, verts - nv, leaves - nl) if subs else ()
            for s in subs:
                for t in tails:
                    out.append((s,) + t)
    return out


# ---------------------------------------------------------------------------
# Serialization.

def tree_to_obj(tree, top=True):
    if tree.is_eta:
        return "eta" if top else "leaf"
    return {"node": [tree_to_obj(c, top=False) for c in tree.children]}


def tree_from_obj(obj, top=True):
    if obj == "eta":
        if not top:
            raise ValueError('"eta" is only valid at top level')
        return ETA
    if obj == "leaf":
        if top:
            raise ValueError('"leaf" is not a tree; use "eta"')
        return ETA
    if isinstance(obj, dict) and set(obj) == {"node"} \
            and isinstance(obj["node"], list):
        return PlanarTree(tuple(tree_from_obj(c, top=False) for c in obj["node"]))
    raise ValueError("malformed tree object: %r" % (obj,))


def int_from_obj(value):
    "An integer field of a JSON object; a float or a bool is refused."
    if type(value) is not int:
        raise ValueError("expected an integer, got %s" % json.dumps(value))
    return value


# the exponent of a decimal string: Fraction builds 10 ** exponent, so
# one beyond +-1000 is refused (every writer emits p/q)
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def frac_from_obj(value):
    """A rational field of a JSON object: an int or a string.  A float (read
    at its binary value), a bool, 1/0, exponents over +-1000 and whatever
    Fraction refuses (a malformed string, a part over int()'s limit of
    4300 digits) are refused alike."""
    if type(value) not in (int, str):
        raise ValueError("expected a rational, got %s" % json.dumps(value))
    try:
        if isinstance(value, str):
            m = _EXPONENT.search(value)
            digits = m.group(1).replace("_", "").lstrip("0") if m else ""
            if len(digits) > 4 or int(digits or 0) > 1000:
                raise OverflowError("decimal exponent out of range")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError("expected a rational, got %s"
                         % json.dumps(value)) from exc


def as_fraction(x, name):
    """An int or a Fraction given in code, as a Fraction; a bool, a float
    or a string is refused, as cacti.Cactus refuses them."""
    if type(x) is Fraction:
        return x
    if type(x) is not int:
        raise ValueError("%s must be ints or Fractions, got %r" % (name, x))
    return Fraction(x)


def as_labelling(p, n, message, start=0):
    """A labelling given in code, as a tuple: it must list the ints
    start..start+n-1 in some order, else ValueError(message).  A float
    or a bool is refused, as int_from_obj refuses them in JSON."""
    p = tuple(p)
    if sorted(p) != list(range(start, start + n)) or {*map(type, p)} - {int}:
        raise ValueError(message)
    return p


def frac_to_str(q):
    "A Fraction or int as a 'p/q' string."
    return "%d/%d" % (q.numerator, q.denominator)
