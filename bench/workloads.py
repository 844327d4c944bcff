"""Seeded case lists for the four benchmark workloads.

`build(workload, seed, count)` returns `count` distinct cases.  A case is
a `Case`: `run()` makes only the calls into brackops that the benchmark
times, and `check(output)` verifies what they returned, with the
oracles in `oracles.py` and with properties the method must have.

The benchmark calls brackops through module attributes (`W.psi`, not a
name imported from it), so that traced mode can rebind those names."""

import itertools
import random
from fractions import Fraction

from brackops import bo_action as BA
from brackops import bracketings as B
from brackops import cacti as C
from brackops import dendroidal as D
from brackops import operads as OP
from brackops import plmaps as P
from brackops import randomgen as R
from brackops import trees as T
from brackops import wconstruction as W
from brackops.algebras import EndoAlgebra, EndoValue, TerminalAlgebra

import oracles as O

THIRDS = (Fraction(1), Fraction(2, 3), Fraction(1, 3))
STEP_POINTS = tuple(Fraction(r, 50) for r in range(51))


class Case:
    __slots__ = ("kind", "args", "_run", "_check")

    def __init__(self, kind, run, check, *args):
        self.kind = kind
        self.args = args
        self._run = run
        self._check = check

    def run(self):
        return self._run(*self.args)

    def check(self, out):
        "True when the output passes every check of this case."
        return self._check(out, *self.args)


def build(workload, seed, count):
    rng = random.Random("%s:%d" % (workload, seed))
    return BUILDERS[workload](rng, count)


def _distinct(count, draw, exhaustible=False):
    """`count` cases from `draw()` with pairwise distinct keys.  When the
    draws come from a finite set (`exhaustible`), stop early once 1000
    draws in a row repeat a key."""
    seen = set()
    out = []
    misses = 0
    for _ in range(50 * count + 100):
        if len(out) == count or (exhaustible and misses >= 1000):
            return out
        key, case = draw()
        if key in seen:
            misses += 1
        else:
            misses = 0
            seen.add(key)
            out.append(case)
    raise RuntimeError("could not draw %d distinct cases" % count)


def _quotas(count, weights):
    "Split `count` in proportion to `weights` (largest remainder)."
    total = sum(weights)
    raw = [count * w / total for w in weights]
    out = [int(r) for r in raw]
    rest = sorted(range(len(raw)), key=lambda k: out[k] - raw[k])
    for k in rest[:count - sum(out)]:
        out[k] += 1
    return out


# ---------------------------------------------------------------------------
# Input pools.

def _shapes(max_vertices, max_leaves, min_arity=0):
    "Every planar shape within the bounds, with its vertex and leaf counts."
    out = []
    for nv in range(1, max_vertices + 1):
        for nl in range(0, max_leaves + 1):
            for sh in T.planar_trees(nv, nl):
                if min(T.arities(sh)) >= min_arity:
                    out.append((nv, nl, sh))
    return out


def _shape_pool(max_vertices, max_leaves, min_arity=0):
    """{(vertices, leaves): [(shape, [bracket sets of each bracketing])]}
    for every planar shape within the bounds."""
    pool = {}
    for nv, nl, sh in _shapes(max_vertices, max_leaves, min_arity):
        brs = [b.sorted_brackets() for b in B.enumerate_bracketings(sh)]
        pool.setdefault((nv, nl), []).append((sh, brs))
    return pool


def _element(rng, shape, brackets, weights):
    "A bracketed labelled tree on `shape` with random weights and labels."
    nv, nl = O.tree_size(shape)
    sigma, tau = list(range(nv)), list(range(nl))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    ws = {b: rng.choice(weights) for b in brackets}
    return OP.BOElement(OP.OElement(shape, sigma, tau),
                        B.WeightedBracketing(shape, ws))


def _slot(rng, elem, max_arity):
    "A random slot whose vertex arity is at most max_arity."
    ar = O.tree_arities(elem.base.tree)
    slots = [i for i in range(1, len(elem.base.sigma) + 1)
             if ar[elem.base.sigma[i - 1]] <= max_arity]
    i = rng.choice(slots)
    return i, ar[elem.base.sigma[i - 1]]


# ---------------------------------------------------------------------------
# w-roundtrip: psi and psi_inverse, the W composite, compose_BO.

def _run_roundtrip(x, i, b, j, c):
    w = W.psi_inverse(x)
    x2 = W.psi(w)
    w2 = W.psi_inverse(x2)
    wb = W.psi_inverse(b)
    wab = W.compose_W(w, i, wb)
    via_w = W.psi(wab)
    ab = OP.compose_BO(x, i, b)
    ab_c = OP.compose_BO(ab, i - 1 + j, c)
    bc = OP.compose_BO(b, j, c)
    a_bc = OP.compose_BO(x, i, bc)
    return w, x2, w2, wb, wab, via_w, ab, ab_c, bc, a_bc


def _check_roundtrip(out, x, i, b, j, c):
    w, x2, w2, wb, wab, via_w, ab, ab_c, bc, a_bc = out
    return (x2 == x and w2 == w and via_w == ab and ab_c == a_bc
            and O.psi_inverse_problem(x, w) is None
            and O.psi_inverse_problem(b, wb) is None
            and len(wab.leaf_order) == len(w.leaf_order) + len(wb.leaf_order) - 1
            and O.composite_problem(x, i, b, ab) is None
            and O.composite_problem(b, j, c, bc) is None
            and O.composite_problem(ab, i - 1 + j, c, ab_c) is None)


def build_roundtrip(rng, count):
    """Hosts on every shape with <= 4 vertices and <= 3 leaves, guests
    with <= 3 vertices, third guests with <= 2; weights in thirds."""
    pool = _shape_pool(4, 3)
    hosts = [(sh, br) for items in pool.values()
             for sh, brs in items for br in brs]

    def guest(leaves, max_vertices):
        shapes = [it for nv in range(1, max_vertices + 1)
                  for it in pool.get((nv, leaves), ())]
        sh, brs = rng.choice(shapes)
        return _element(rng, sh, rng.choice(brs), THIRDS)

    def draw():
        x = _element(rng, *rng.choice(hosts), THIRDS)
        i, m = _slot(rng, x, 3)
        b = guest(m, 3)
        j, r = _slot(rng, b, 3)
        c = guest(r, 2)
        return ((x, i, b, j, c),
                Case("roundtrip", _run_roundtrip, _check_roundtrip, x, i, b, j, c))

    return _distinct(count, draw)


# ---------------------------------------------------------------------------
# action-coherence: the weighted action lam against composition.

def _run_coherence(a, i, b, xs, ys):
    comp = OP.compose_BO(a, i, b)
    lhs = BA.lam(comp, xs[:i - 1] + ys + xs[i:])
    inner = BA.lam(b, ys)
    rhs = BA.lam(a, xs[:i - 1] + [inner] + xs[i:])
    return comp, lhs, inner, rhs


def _check_coherence(out, a, i, b, xs, ys):
    comp, lhs, inner, rhs = out
    return (lhs == rhs
            and O.composite_problem(a, i, b, comp) is None
            and O.cactus_problem(lhs, len(a.base.tau)) is None
            and O.cactus_problem(rhs, len(a.base.tau)) is None
            and O.cactus_problem(inner, len(b.base.tau)) is None)


def _chain(xs, lo, hi, brackets):
    """The cactus of a maximal bracketing of a caterpillar, composed as the
    explicit parenthesization it encodes (vertex v of the chain is xs[v])."""
    if lo == hi:
        return xs[lo]
    for cut in range(lo, hi):
        left = frozenset(range(lo, cut + 1))
        right = frozenset(range(cut + 1, hi + 1))
        if ((len(left) == 1 or left in brackets)
                and (len(right) == 1 or right in brackets)):
            return C.cact1_compose(_chain(xs, lo, cut, brackets), 1,
                                   _chain(xs, cut + 1, hi, brackets))
    raise ValueError("not a maximal bracketing of a chain")


def _run_corner(elem, brackets, xs):
    return BA.lam(elem, xs), _chain(xs, 0, len(xs) - 1, brackets)


def _check_corner(out, elem, brackets, xs):
    lhs, rhs = out
    return (lhs == rhs and O.cactus_problem(lhs, len(xs) + 1) is None)


def build_coherence(rng, count):
    """Host and guest on shapes with <= 3 vertices, <= 4 leaves and no
    leafless vertex, at most 5 vertices together; weights in thirds.  The
    composite sizes keep fixed shares of the list (stratified draws), and
    one case in twenty is a weight-1 maximal bracketing of
    caterpillar(3..4) against the explicit composite."""
    pool = _shape_pool(3, 4, min_arity=1)
    shapes = [(sh, brs) for items in pool.values() for sh, brs in items]
    by_leaves = {}
    for sh, brs in shapes:
        by_leaves.setdefault(O.tree_size(sh)[1], []).append((sh, brs))
    strata = {}
    for sa, brs_a in shapes:
        na = O.tree_size(sa)[0]
        arity = O.tree_arities(sa)
        for v in range(na):
            for sb, brs_b in by_leaves.get(arity[v], ()):
                nb = O.tree_size(sb)[0]
                if na + nb <= 5:
                    strata.setdefault(na + nb - 1, []).append(
                        (sa, brs_a, v, sb, brs_b))
    corners = []
    for n in (3, 4):
        tree = T.caterpillar(n)
        for br in B.maximal_bracketings(tree):
            corners.append((n, tree, br.sorted_brackets()))
    n_corner = max(len(corners), count // 20)
    keys = sorted(strata)
    quotas = _quotas(count - n_corner, [len(strata[k]) for k in keys])
    cases = []
    for key, quota in zip(keys, quotas):
        configs = strata[key]

        def draw():
            sa, brs_a, v, sb, brs_b = rng.choice(configs)
            a = _element(rng, sa, rng.choice(brs_a), THIRDS)
            i = a.base.sigma.index(v) + 1
            b = _element(rng, sb, rng.choice(brs_b), THIRDS)
            xs = R.random_labelled_cacti(a, rng)
            ys = R.random_labelled_cacti(b, rng)
            return ((a, i, b, tuple(xs), tuple(ys)),
                    Case("coherence", _run_coherence, _check_coherence,
                         a, i, b, xs, ys))

        cases += _distinct(quota, draw)

    def draw_corner():
        n, tree, brs = corners[rng.randrange(len(corners))]
        elem = OP.bo_element(tree, tuple(range(n)), tuple(range(n + 1)),
                             {b: 1 for b in brs})
        xs = [R.random_cactus(2, rng) for _ in range(n)]
        return ((n, tuple(brs), tuple(xs)),
                Case("corner", _run_corner, _check_corner,
                     elem, frozenset(brs), xs))

    cases += _distinct(n_corner, draw_corner)
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# coend-pointwise: the embedding into the coendomorphism operad.

def _run_coend(a, i, b, ys):
    z = C.ms_compose(a, i, b)
    lhs = C.phi(z)
    rhs = C.coend_compose(C.phi(a), i, C.phi(b))
    lv = [[f(t) for t in STEP_POINTS] for f in lhs]
    rv = [[g(t) for t in STEP_POINTS] for g in rhs]
    x = a.cactus
    unscale = P.pl_invert(C.scaling_map(x, [y.k for y in ys]))
    folded = C.gamma_ms(C.MSElement(x, unscale),
                        [C.MSElement(y, P.identity_map()) for y in ys])
    direct = C.gamma_cact1(x, ys)
    return z, lv, rv, folded, direct


def _check_coend(out, a, i, b, ys):
    z, lv, rv, folded, direct = out
    return (lv == rv
            and O.cactus_problem(z.cactus, a.cactus.k + b.cactus.k - 1) is None
            and O.step_map_problem(z, STEP_POINTS, lv) is None
            and folded.cactus == direct
            and O.is_identity_map(folded.reparam)
            and O.cactus_problem(direct, sum(y.k for y in ys)) is None)


def build_coend(rng, count):
    """MS elements with 1-4 lobes for host and guest, and the host's
    cactus rescaled around inputs of 1-3 lobes.  Every (host, guest)
    lobe-count pair takes the same share of the list, and within a pair
    the input lobe counts cycle through a fixed pattern (the cost of the
    rescaling grows with their sum)."""
    pairs = [(ka, kb) for ka in range(1, 5) for kb in range(1, 5)]
    cases = []
    for (ka, kb), quota in zip(pairs, _quotas(count, [1] * len(pairs))):
        turns = itertools.count()

        def draw():
            turn = next(turns)
            a = R.random_ms_element(ka, rng)
            i = rng.randint(1, ka)
            b = R.random_ms_element(kb, rng)
            sizes = [1 + (turn + r) % 3 for r in range(ka)]
            rng.shuffle(sizes)
            ys = [R.random_cactus(k, rng) for k in sizes]
            key = (a.cactus, a.reparam, i, b.cactus, b.reparam, tuple(ys))
            return key, Case("coend", _run_coend, _check_coend, a, i, b, ys)

        cases += _distinct(quota, draw)
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# omega-nerve: the thickened tree category, the nerve, bracketing posets.

def _parenthesizations(lo, hi):
    """Every way to compose the chain entries lo..hi (innermost first) as
    nested pairs (outer, inner)."""
    if lo == hi:
        return [lo]
    return [(outer, inner) for cut in range(lo, hi)
            for inner in _parenthesizations(lo, cut)
            for outer in _parenthesizations(cut + 1, hi)]


def _compose_as(chain, tree):
    if isinstance(tree, int):
        return chain[tree]
    outer, inner = tree
    return D.compose_omega_tilde(_compose_as(chain, outer),
                                 _compose_as(chain, inner))


def _run_assoc(chain):
    return [_compose_as(chain, t)
            for t in _parenthesizations(0, len(chain) - 1)]


def _check_assoc(out, chain):
    images = O.image_union([m.base for m in chain])
    return (all(m == out[0] for m in out)
            and O.thickened_problem(out[0], images) is None)


def _run_qconcat(chain):
    whole = D.q_morphism(chain)
    glued = [D.compose_omega_tilde(D.q_morphism(chain[cut:]),
                                   D.q_morphism(chain[:cut]))
             for cut in range(1, len(chain))]
    return whole, glued


def _check_qconcat(out, chain):
    whole, glued = out
    return (all(g == whole for g in glued)
            and O.thickened_problem(whole, O.image_union(chain)) is None
            and all(w == 1 for fam in whole.brackets for _, w in fam))


def _run_functorial(chain, handles, values):
    f, g, h = chain
    comp = D.compose_omega_tilde(h, D.compose_omega_tilde(g, f))
    out = []
    for handle, vals in zip(handles, values):
        direct = D.phi_morphism(handle, comp, vals)
        stepwise = D.phi_morphism(handle, f, D.phi_morphism(
            handle, g, D.phi_morphism(handle, h, vals)))
        out.append((direct, stepwise))
    return out


def _check_functorial(out, chain, handles, values):
    arities = O.tree_arities(chain[0].base.source)
    for (direct, stepwise), handle in zip(out, handles):
        if direct != stepwise or len(direct) != len(arities):
            return False
        if isinstance(handle, EndoAlgebra):
            if any(v.n != n for v, n in zip(direct, arities)):
                return False
        elif any(v != "*" for v in direct):
            return False
    return True


def _run_segal(handles, tree, values):
    return [D.segal_check(h, tree, v) for h, v in zip(handles, values)]


def _check_segal(out, handles, tree, values):
    return out == [True] * len(handles)


def _run_enumeration(tree, maximal, family, n):
    if maximal:
        return B.maximal_bracketings(tree)
    return B.enumerate_bracketings(tree)


def _check_enumeration(out, tree, maximal, family, n):
    return O.bracketing_count_problem(family, n, maximal, out) is None


class _Morphisms:
    """Random plain and thickened morphisms of small trees.  The connected
    vertex sets and the bracketings of each tree, and each plain morphism,
    are made once."""

    def __init__(self, rng):
        self.rng = rng
        self.chunks = {}
        self.bracketings = {}
        self.plain = {}

    def chunk(self, tree):
        "A random connected vertex set with at least two vertices."
        if tree not in self.chunks:
            self.chunks[tree] = [s.vertex_set
                                 for s in T.enumerate_subtrees(tree, 2)]
        return set(self.rng.choice(self.chunks[tree]))

    def plain_chain(self, length, tree, collapse_share):
        """Composable plain morphisms [innermost, ..., outermost] into
        `tree`: collapses of a random chunk, else inclusions of one."""
        plain = []
        for _ in range(length):
            if O.tree_size(tree)[0] < 2:
                key = (tree, None, None)
            else:
                key = (tree, self.rng.random() < collapse_share,
                       frozenset(self.chunk(tree)))
            if key not in self.plain:
                tree, collapse, chunk = key
                if chunk is None:
                    self.plain[key] = D.identity_omega(tree)
                elif collapse:
                    self.plain[key] = D.collapse_morphism(tree, [set(chunk)])
                else:
                    self.plain[key] = D.subtree_inclusion(tree, set(chunk))
            g = self.plain[key]
            plain.append(g)
            tree = g.source
        plain.reverse()
        return plain

    def tilde(self, base):
        "Random admissible weighted brackets over a plain morphism."
        rng = self.rng
        fams = []
        for img in base.vertex_images:
            fam = {}
            if img and rng.random() < 0.8:
                rt, vmap = T.restrict_with_map(base.target, img)
                if rt not in self.bracketings:
                    self.bracketings[rt] = [
                        b.sorted_brackets() for b in B.enumerate_bracketings(rt)]
                inv = {nw: old for old, nw in vmap.items()}
                for bset in rng.choice(self.bracketings[rt]):
                    if rng.random() < 0.7:
                        fam[frozenset(inv[u] for u in bset)] = rng.choice(
                            (Fraction(1), Fraction(1, 2)))
            fams.append(fam)
        return D.OmegaTildeMorphism(base, fams)


def _handle_values(rng, handle, tree):
    if isinstance(handle, TerminalAlgebra):
        return tuple("*" for _ in O.tree_arities(tree))
    return tuple(EndoValue(n, [rng.randint(0, 1) for _ in range(1 << n)])
                 for n in O.tree_arities(tree))


ENUMERATED = ([("caterpillar", n) for n in range(3, 9)]
              + [("star", k) for k in range(2, 6)])

OMEGA_SHARES = (("assoc", 4), ("qconcat", 2), ("functorial", 2), ("segal", 2))


def build_omega(rng, count):
    """Chains of four weighted morphisms of caterpillar(4..6), composed in
    all five ways; chains of up to four plain morphisms, q-concatenated at
    every cut; nerve functoriality along chains of three and the Segal check,
    each for the terminal and the Boolean-function handle; and once each,
    the full and the maximal bracketings of caterpillar(3..8) and
    star(2..5)."""
    handles = (TerminalAlgebra(), EndoAlgebra())
    segal_shapes = [sh for _, _, sh in _shapes(4, 4, min_arity=1)]
    morphisms = _Morphisms(rng)

    def draw_assoc():
        plain = morphisms.plain_chain(4, T.caterpillar(rng.randint(4, 6)), 0.8)
        chain = [morphisms.tilde(m) for m in plain]
        return tuple(chain), Case("assoc", _run_assoc, _check_assoc, chain)

    def draw_qconcat():
        while True:
            chain = morphisms.plain_chain(
                4, T.caterpillar(rng.randint(4, 6)), 0.8)
            chain = [g for g in chain if g.source != g.target]
            if len(chain) >= 2:
                break
        return tuple(chain), Case("qconcat", _run_qconcat, _check_qconcat,
                                  chain)

    def draw_functorial():
        plain = morphisms.plain_chain(3, T.caterpillar(rng.randint(4, 5)), 0.8)
        chain = [morphisms.tilde(m) for m in plain]
        values = [_handle_values(rng, h, chain[-1].base.target)
                  for h in handles]
        return ((tuple(chain), values[1]),
                Case("functorial", _run_functorial, _check_functorial,
                     chain, handles, values))

    def draw_segal():
        tree = rng.choice(segal_shapes)
        values = [_handle_values(rng, h, tree) for h in handles]
        return ((tree, values[1]),
                Case("segal", _run_segal, _check_segal, handles, tree, values))

    cases = []
    for family, n in ENUMERATED:
        tree = T.caterpillar(n) if family == "caterpillar" else T.star(n)
        for maximal in (False, True):
            cases.append(Case("enumeration", _run_enumeration,
                              _check_enumeration, tree, maximal, family, n))
    draws = {"qconcat": draw_qconcat, "functorial": draw_functorial,
             "segal": draw_segal}
    quotas = dict(zip([k for k, _ in OMEGA_SHARES],
                      _quotas(max(0, count - len(cases)),
                              [w for _, w in OMEGA_SHARES])))
    # plain chains for q-concatenation are finitely many: whatever a kind
    # falls short of goes to associativity
    for kind in ("qconcat", "functorial", "segal"):
        got = _distinct(quotas[kind], draws[kind], exhaustible=True)
        quotas["assoc"] += quotas[kind] - len(got)
        cases += got
    cases += _distinct(quotas["assoc"], draw_assoc)
    rng.shuffle(cases)
    return cases


BUILDERS = {
    "w-roundtrip": build_roundtrip,
    "action-coherence": build_coherence,
    "coend-pointwise": build_coend,
    "omega-nerve": build_omega,
}
