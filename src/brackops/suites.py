"""Named verification suites behind the `verify` subcommand.

Each suite is a generator, given a RunConfig and its own seeded random
stream, of (check id, cases) pairs.  `run_suite` exhausts every check's
cases into a JSON-ready report: per-check counts, pass/fail, and the
first counterexample when something breaks.  Reports are deterministic
for a fixed RunConfig."""

import itertools
from fractions import Fraction

from . import trees as T
from .trees import caterpillar, star
from .bracketings import (enumerate_bracketings, maximal_bracketings,
                          nerve_statistics, WeightedBracketing)
from .operads import (OElement, BOElement, unit_BO, eta_BO,
                      eta_element, compose_O, compose_BO, sigma_act_BO)
from .wconstruction import compose_W, psi, psi_inverse
from . import dendroidal as D
from .plmaps import identity_map, average_of_steps, pl_convex_combination
from .cacti import (Cactus, cactus_map, phi, coend_compose,
                    cact1_compose, ms_compose, cactus_metric,
                    rescaling_identity_check)
from . import bo_action
from .algebras import TerminalAlgebra, CactusAlgebra
from . import randomgen as R


class RunConfig:
    "Seed, enumeration limit, and sample count for a suite run."

    def __init__(self, seed=0, limit=6, samples=1000):
        if limit < 1 or samples < 1:
            raise ValueError("bounds must be positive")
        if limit > 7:
            # the Euler suite enumerates every bracketing up to the limit
            raise ValueError("limit must be at most 7, got %d" % limit)
        self.seed = seed
        self.limit = limit
        self.samples = samples


def _record(cid, cases):
    """Exhaust an iterable of (description, ok) pairs into a check
    record: the count and the first failing description.  A case that
    raises counts as a failing case and ends the check.  A check that
    ran no case fails: it showed nothing."""
    count = 0
    failure = None
    try:
        for desc, ok in cases:
            count += 1
            if not ok and failure is None:
                failure = str(desc)
    except Exception as exc:
        count += 1
        if failure is None:
            failure = "case %d raised %s: %s" % (count, type(exc).__name__,
                                                 exc)
    if count == 0:
        failure = "no case ran"
    return {"id": cid, "count": count, "passed": failure is None,
            "counterexample": failure}


# ---------------------------------------------------------------------------
# Small enumeration helpers.

def _shapes(max_vertices, max_leaves, min_arity=0):
    out = []
    for nv in range(1, max_vertices + 1):
        for nl in range(0, max_leaves + 1):
            for sh in T.planar_trees(nv, nl):
                if min_arity == 0 or min(T.arities(sh)) >= min_arity:
                    out.append(sh)
    return out


def _decorate(shape, weight_choices):
    "All bracketed elements on a shape with identity labels."
    base = OElement(shape)
    out = []
    for br in enumerate_bracketings(shape):
        sets = br.sorted_brackets()
        for ws in itertools.product(weight_choices, repeat=len(sets)):
            out.append(BOElement(base, WeightedBracketing(
                shape, dict(zip(sets, ws)))))
    return out


def _random_tree_with_leaves(rng, nl):
    "A tree with nl leaves and 1 to 3 vertices."
    while True:
        shapes = T.planar_trees(rng.randint(1, 3), nl)
        if shapes:
            return rng.choice(shapes)


def _random_bo_with_leaves(rng, nl, weight_choices=(1, Fraction(1, 2))):
    return R.random_bo_element(rng, weight_choices=weight_choices,
                               tree=_random_tree_with_leaves(rng, nl))


# ---------------------------------------------------------------------------
# Suite: bracket counts against the named polytopes.

def suite_bracket_counts(cfg, rng):
    cases = [("caterpillar-3", caterpillar(3), 2),
             ("caterpillar-4", caterpillar(4), 5),
             ("caterpillar-5", caterpillar(5), 14),
             ("star-4", star(3), 6),
             # the associahedron's Catalan and the permutohedron's k!
             # vertices
             ("caterpillar-6", caterpillar(6), 42),
             ("caterpillar-7", caterpillar(7), 132),
             ("star-5", star(4), 24),
             ("star-6", star(5), 120)]
    for name, tree, want in cases:
        got = len(maximal_bracketings(tree))
        yield ("max-bracketings/%s" % name,
               [("expected %d maximal bracketings, got %d" % (want, got),
                 got == want)])

    def tubing_cases():
        for nv in range(1, 7):
            for tree in T.planar_trees(nv, 0):
                got = (len(enumerate_bracketings(tree)),
                       len(maximal_bracketings(tree)))
                want = tubing_counts(tree)
                yield ("tree %r: (all, maximal) bracketings %s, tubings %s"
                       % (tree, got, want), got == want)

    yield "tubings/inner-edges-leq-6-vertices", tubing_cases()


def tubing_counts(tree):
    """(all, maximal) tubings of the line graph of the tree's inner
    edges (Carr-Devadoss 2006), by backtracking, without the bracketing
    code.  A tube is a proper, nonempty, connected set of inner edges;
    two tubes are compatible when nested, or disjoint and sharing no
    vertex.  Edges are (parent, child) pairs of vertices numbered in
    depth-first order, read off the children tuples."""
    edges = []
    _inner_edges(tree, 0, edges)
    tubes = [t for r in range(1, len(edges))
             for t in map(frozenset,
                          itertools.combinations(range(len(edges)), r))
             if _edges_connected(edges, t)]
    ends = [frozenset().union(*[edges[e] for e in t]) for t in tubes]
    # fits[i]: the other tubes compatible with tube i, as a bit mask
    fits = [sum(1 << j for j, b in enumerate(tubes) if j != i and (
        a <= b or b <= a or not ends[i] & ends[j]))
        for i, a in enumerate(tubes)]
    counts = [0, 0]
    _extend_tubings(fits, counts, (1 << len(tubes)) - 1, 0)
    return tuple(counts)


def _inner_edges(node, v, edges):
    "Append the inner edges at and above vertex v; the next free id."
    nxt = v + 1
    for c in node.children:
        if not c.is_eta:
            edges.append(frozenset((v, nxt)))
            nxt = _inner_edges(c, nxt, edges)
    return nxt


def _edges_connected(edges, tube):
    "Whether the tube's edges, given by index, form one connected set."
    seen, todo = set(), [min(tube)]
    while todo:
        e = todo.pop()
        if e not in seen:
            seen.add(e)
            todo += [f for f in tube if edges[e] & edges[f]]
    return seen == tube


def _extend_tubings(fits, counts, free, start):
    """Count a tubing, whose unchosen tubes compatible with all of it are
    the bit mask `free`, as maximal too when there are none; then its
    extensions by the free tubes from `start` on."""
    counts[0] += 1
    if not free:
        counts[1] += 1
    for i in range(start, len(fits)):
        if free >> i & 1:
            _extend_tubings(fits, counts, free & fits[i], i + 1)


# ---------------------------------------------------------------------------
# Suite: Euler characteristic of the bracketing poset's order complex.

def suite_euler(cfg, rng):
    # The empty bracketing is a minimum, so the whole order complex is a
    # cone (chi = 1 always).  Its proper part, the chains without it, is
    # empty for nv = 1 and else a sphere of dimension nv - 3, with
    # chi = 1 + (-1)^(nv-3) (the exponent nv - 1 has the same parity and
    # is never negative).  f'[r] counts its chains: f[r] = f'[r] + f'[r-1]
    # with f'[-1] = 1.
    def cases():
        for nv in range(1, cfg.limit + 1):
            want = 0 if nv == 1 else 1 + (-1) ** (nv - 1)
            for sh in T.planar_trees(nv, 0):
                fvec, _ = nerve_statistics(sh)
                chi, prev = 0, 1
                for r, f in enumerate(fvec):
                    prev = f - prev
                    chi += (-1) ** r * prev
                yield ("tree %r: proper part has chi=%d, want %d"
                       % (sh, chi, want), chi == want)

    yield "euler-characteristic/leq-%d-vertices" % cfg.limit, cases()


# ---------------------------------------------------------------------------
# Suite: operad axioms for bracketed labelled trees.

def suite_bo_axioms(cfg, rng):
    shapes = _shapes(3, 2)
    pool = []
    for sh in shapes:
        pool.extend(_decorate(sh, (1, Fraction(1, 2))))
    by_leaves = {}
    for e in pool:
        by_leaves.setdefault(e.leaf_count, []).append(e)

    def unit_cases():
        for a in pool:
            yield ("left unit fails on %r" % (a,),
                   compose_BO(unit_BO(a.leaf_count), 1, a) == a)
            for i in range(1, a.arity + 1):
                yield ("right unit fails on %r slot %d" % (a, i),
                       compose_BO(a, i, unit_BO(a.slot_arity(i))) == a)

    yield "bo-axioms/unit", unit_cases()

    def eta_cases():
        for a in pool:
            for i in range(1, a.arity + 1):
                if a.slot_arity(i) != 1:
                    continue
                got = compose_BO(a, i, eta_BO())
                want = compose_O(a.base, i, eta_element())
                yield ("eta at slot %d of %r disagrees with the "
                       "unbracketed composite" % (i, a),
                       got.base == want)

    yield "bo-axioms/eta-discard", eta_cases()

    plain = {}
    for sh in shapes:
        e = OElement(sh)
        plain.setdefault(e.leaf_count, []).append(BOElement(e))

    def seq_cases():
        for a in sum(plain.values(), []):
            for i in range(1, a.arity + 1):
                for b in plain.get(a.slot_arity(i), []):
                    for j in range(1, b.arity + 1):
                        for c in plain.get(b.slot_arity(j), []):
                            lhs = compose_BO(compose_BO(a, i, b), i - 1 + j, c)
                            rhs = compose_BO(a, i, compose_BO(b, j, c))
                            yield ("(a o_%d b) o_%d c vs a o_%d (b o_%d c)"
                                   % (i, i - 1 + j, i, j), lhs == rhs)

    yield "bo-axioms/assoc-sequential-shapes", seq_cases()

    def par_cases():
        for a in sum(plain.values(), []):
            for i in range(1, a.arity + 1):
                for j in range(i + 1, a.arity + 1):
                    for b in plain.get(a.slot_arity(i), []):
                        for c in plain.get(a.slot_arity(j), []):
                            lhs = compose_BO(compose_BO(a, j, c), i, b)
                            rhs = compose_BO(compose_BO(a, i, b),
                                             j + b.arity - 1, c)
                            yield ("parallel slots %d,%d" % (i, j), lhs == rhs)

    yield "bo-axioms/assoc-parallel-shapes", par_cases()

    def random_assoc():
        for trial in range(cfg.samples):
            a = rng.choice(pool)
            i = rng.randint(1, a.arity)
            m = a.slot_arity(i)
            bs = by_leaves.get(m, [])
            b = rng.choice(bs) if bs and rng.random() < 0.9 else None
            if b is None:
                if m != 1:
                    continue
                b = eta_BO()
            if b.arity:
                j = rng.randint(1, b.arity)
                r = b.slot_arity(j)
                cs = by_leaves.get(r, [])
                if cs and rng.random() < 0.9:
                    c = rng.choice(cs)
                elif r == 1:
                    c = eta_BO()
                else:
                    continue
                lhs = compose_BO(compose_BO(a, i, b), i - 1 + j, c)
                rhs = compose_BO(a, i, compose_BO(b, j, c))
            else:
                lhs = rhs = compose_BO(a, i, b)
            yield ("trial %d: %r o_%d %r" % (trial, a, i, b), lhs == rhs)

    yield "bo-axioms/assoc-bracketed-random", random_assoc()

    def equivariance():
        for trial in range(cfg.samples // 2):
            a = rng.choice(pool)
            p = list(R.random_permutation(rng, a.arity))
            i = rng.randint(1, a.arity)
            m = a.slot_arity(p[i - 1] + 1)
            bs = by_leaves.get(m, [])
            if not bs:
                continue
            b = rng.choice(bs)
            n = b.arity
            lhs = compose_BO(sigma_act_BO(tuple(p), a), i, b)
            rhs0 = compose_BO(a, p[i - 1] + 1, b)
            i0 = p[i - 1]
            q = []
            for j in range(1, a.arity + n):
                if j < i:
                    s = p[j - 1]
                elif j < i + n:
                    q.append(i0 + (j - i))
                    continue
                else:
                    s = p[j - n]
                q.append(s if s < i0 else s + n - 1)
            yield ("trial %d equivariance" % trial,
                   sigma_act_BO(tuple(q), rhs0) == lhs)

    yield "bo-axioms/sigma-equivariance", equivariance()


# ---------------------------------------------------------------------------
# Suite: the bijection with normal-form edge-length trees.

def suite_psi(cfg, rng):
    weight_choices = (1, Fraction(2, 3), Fraction(1, 3))
    pool = []
    for sh in _shapes(4, 3):
        pool.extend(_decorate(sh, weight_choices))

    # both round trips start from w = psi_inverse(x) and y = psi(w); w is
    # normal when it has the root and one shape vertex per bracket, edge
    # lengths the weights, and identity labels but for the root's leaves.
    # The round trips are cases of the first check, so one that raises
    # fails it; the second check then fails every shape whose round trip
    # did not finish.
    normal_forms = []

    def roundtrip_bracketed():
        for x in pool:
            w = psi_inverse(x)
            y = psi(w)
            weights = sorted(wt for _, wt in x.weighted.weights)
            root, *above = w.decorations
            normal = (len(above) == len(weights)
                      and sorted(w.lengths) == weights
                      and root == OElement(root.tree, tau=root.tau)
                      and all(d == OElement(d.tree) for d in above))
            normal_forms.append(psi_inverse(y) == w and normal)
            yield ("psi o psi_inverse moves %r" % (x,), y == x)

    def roundtrip_normal_form():
        for n, x in enumerate(pool):
            if n < len(normal_forms):
                yield ("psi_inverse o psi moves a normal form of %r" % (x,),
                       normal_forms[n])
            else:
                yield ("the round trip of %r did not finish" % (x,), False)

    yield "psi/roundtrip-bracketed", roundtrip_bracketed()
    yield "psi/roundtrip-normal-form", roundtrip_normal_form()

    def operad_map():
        for trial in range(cfg.samples):
            a = R.random_bo_element(rng, max_vertices=3,
                                    weight_choices=weight_choices)
            i = rng.randint(1, a.arity)
            b = _random_bo_with_leaves(rng, a.slot_arity(i),
                                       weight_choices=weight_choices)
            lhs = psi(compose_W(psi_inverse(a), i, psi_inverse(b)))
            rhs = compose_BO(a, i, b)
            yield ("trial %d: %r o_%d %r" % (trial, a, i, b), lhs == rhs)

    yield "psi/operad-map", operad_map()


# ---------------------------------------------------------------------------
# Suite: thickened tree-category composition.

def _random_collapse(tree, rng):
    "A collapse of one random connected chunk of >= 2 vertices."
    subs = [s.vertex_set for s in T.enumerate_subtrees(tree, 2)]
    return D.collapse_morphism(tree, [set(rng.choice(subs))])


def _random_tilde(base_morph, rng):
    "Random admissible brackets on top of a plain morphism."
    fams = []
    for img in base_morph.vertex_images:
        fam = {}
        if img and rng.random() < 0.8:
            rt, old, _ = T.region(base_morph.target, img)
            for bset in rng.choice(enumerate_bracketings(rt)).brackets:
                if rng.random() < 0.7:
                    fam[frozenset(old[u] for u in bset)] = \
                        rng.choice([Fraction(1), Fraction(1, 2)])
        fams.append(fam)
    return D.OmegaTildeMorphism(base_morph, fams)


def _random_tilde_chain(rng, length, base_vertices=6):
    "A composable chain [innermost, ..., outermost] of thickened maps."
    tree = caterpillar(base_vertices)
    plain = []
    for _ in range(length):
        if tree.vertex_count < 2:
            g = D.identity_omega(tree)
        elif rng.random() < 0.8:
            g = _random_collapse(tree, rng)
        else:
            subs = [s.vertex_set for s in T.enumerate_subtrees(tree, 2)]
            g = D.subtree_inclusion(tree, set(rng.choice(subs)))
        plain.append(g)
        tree = g.source
    plain.reverse()
    return [_random_tilde(g, rng) for g in plain]


def suite_omega_tilde(cfg, rng):
    def worked_example():
        tree = caterpillar(6)
        g = D.collapse_morphism(tree, [{1, 2, 3}])
        s = g.source
        inc = D.subtree_inclusion(s, {0, 1, 2})
        cm = D.collapse_morphism(inc.source, [frozenset(range(3))])
        f = D.compose_omega(inc, cm)
        F = D.OmegaTildeMorphism(f, [{frozenset({1, 2}): 1}])
        gb = [dict() for _ in range(4)]
        gb[1] = {frozenset({2, 3}): 1}
        G = D.OmegaTildeMorphism(g, gb)
        comp = D.compose_omega_tilde(G, F)
        want = {frozenset({2, 3}), frozenset({1, 2, 3}),
                frozenset({1, 2, 3, 4})}
        got = {B for B, _ in comp.brackets[0]}
        yield ("composite brackets %r" % (sorted(map(sorted, got)),),
               got == want
               and all(w == 1 for _, w in comp.brackets[0])
               and comp.base == D.compose_omega(g, f))

    yield "omega-tilde/worked-example", worked_example()

    def associativity():
        for trial in range(max(1, cfg.samples // 5)):
            # chain is [innermost, mid, outermost]
            F, G, H = _random_tilde_chain(rng, 3)
            lhs = D.compose_omega_tilde(D.compose_omega_tilde(H, G), F)
            rhs = D.compose_omega_tilde(H, D.compose_omega_tilde(G, F))
            yield ("trial %d" % trial, lhs == rhs)

    yield "omega-tilde/associativity", associativity()

    def q_concat():
        for trial in range(max(1, cfg.samples // 5)):
            length = rng.randint(2, 3)
            tree = caterpillar(rng.randint(4, 6))
            chain = []
            for _ in range(length):
                if tree.vertex_count < 2:
                    break
                g = _random_collapse(tree, rng)
                chain.append(g)
                tree = g.source
            if len(chain) < 2:
                continue
            chain.reverse()  # innermost first
            cut = rng.randint(1, len(chain) - 1)
            lhs = D.q_morphism(chain)
            rhs = D.compose_omega_tilde(D.q_morphism(chain[cut:]),
                                        D.q_morphism(chain[:cut]))
            yield ("trial %d cut %d" % (trial, cut), lhs == rhs)

    yield "omega-tilde/q-concatenation", q_concat()

    def q_refinement():
        tree = caterpillar(4)
        total = D.collapse_morphism(tree, [{0, 1, 2, 3}])
        mid = D.collapse_morphism(tree, [{1, 2, 3}])
        two = [D.collapse_morphism(mid.source, [{0, 1}]), mid]
        g1 = D.collapse_morphism(tree, [{2, 3}])
        g2 = D.collapse_morphism(g1.source, [{1, 2}])
        g3 = D.collapse_morphism(g2.source, [{0, 1}])
        q2 = D.q_morphism(two)
        q3 = D.q_morphism([g3, g2, g1])
        b2 = {B for B, _ in q2.brackets[0]}
        b3 = {B for B, _ in q3.brackets[0]}
        yield ("2-step %r vs 3-step %r" % (sorted(map(sorted, b2)),
                                           sorted(map(sorted, b3))),
               q2.base == q3.base == total and b2 <= b3)

    yield "omega-tilde/q-refinement", q_refinement()


# ---------------------------------------------------------------------------
# Suite: the nerve of an algebra handle.

def suite_nerve(cfg, rng):
    terminal = TerminalAlgebra()
    cact = CactusAlgebra()

    def segal_terminal():
        for sh in _shapes(4, 4):
            yield ("tree %r" % (sh,), D.segal_check(
                terminal, sh, ("*",) * sh.vertex_count))

    yield "nerve/segal-terminal", segal_terminal()

    def segal_cacti():
        for sh in _shapes(4, 4, min_arity=1):
            vals = tuple(cact.sample(a, rng) for a in T.arities(sh))
            yield ("tree %r" % (sh,), D.segal_check(cact, sh, values=vals))

    yield "nerve/segal-cacti", segal_cacti()

    def functorial():
        for trial in range(max(1, cfg.samples // 5)):
            chain = _random_tilde_chain(rng, 2, base_vertices=4)
            F, G = chain
            comp = D.compose_omega_tilde(G, F)
            target = G.base.target
            for name, P, vals in [
                    ("terminal", terminal,
                     tuple("*" for _ in range(target.vertex_count))),
                    ("cacti", cact,
                     tuple(cact.sample(a, rng) for a in T.arities(target)))]:
                lhs = D.phi_morphism(P, comp, vals)
                rhs = D.phi_morphism(P, F, D.phi_morphism(P, G, vals))
                yield ("trial %d handle %s" % (trial, name), lhs == rhs)

    yield "nerve/functorial", functorial()

    def identity_fixed():
        for sh in _shapes(3, 3, min_arity=1):
            vals = tuple(cact.sample(a, rng) for a in T.arities(sh))
            idm = D.OmegaTildeMorphism(D.identity_omega(sh))
            yield ("tree %r" % (sh,),
                   D.phi_morphism(cact, idm, vals) == vals)

    yield "nerve/identity", identity_fixed()


# ---------------------------------------------------------------------------
# Suite: step maps and their composition calculus.

def suite_coend(cfg, rng):
    def average():
        for trial in range(cfg.samples):
            x = R.random_cactus(rng.randint(1, 5), rng)
            yield ("trial %d: %r" % (trial, x),
                   average_of_steps(cactus_map(x)) == identity_map())

    yield "coend/average-identity", average()

    def compose_pointwise():
        for trial in range(cfg.samples):
            a = R.random_ms_element(rng.randint(1, 4), rng)
            i = rng.randint(1, a.cactus.k)
            b = R.random_ms_element(rng.randint(1, 3), rng)
            # both sides are canonical PL maps: == is equality everywhere
            yield ("trial %d: %r o_%d %r" % (trial, a, i, b),
                   phi(ms_compose(a, i, b))
                   == coend_compose(phi(a), i, phi(b)))

    yield "coend/ms-compose-pointwise", compose_pointwise()

    def convex_pointwise():
        for trial in range(cfg.samples):
            maps = [R.random_reparam(rng, rng.randint(1, 3))
                    for _ in range(rng.randint(2, 3))]
            ws = [rng.randint(1, 5) for _ in maps]
            cs = [Fraction(w, sum(ws)) for w in ws]
            got = pl_convex_combination(cs, maps)
            pts = {t for m in maps for t in m.breakpoints}
            yield ("trial %d: %s of %r" % (trial, ", ".join(map(str, cs)),
                                           maps),
                   pts.issuperset(got.breakpoints)
                   and all(_interpolate(got, t)
                           == sum(c * _interpolate(m, t)
                                  for c, m in zip(cs, maps))
                           for t in pts))

    yield "coend/convex-combination-pointwise", convex_pointwise()


def _interpolate(m, t):
    "m(t) read off m's breakpoints and values, not through PLMap.at."
    xs, ys = m.breakpoints, m.values
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x0 <= t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    raise ValueError("%s lies outside [0, 1]" % t)


# ---------------------------------------------------------------------------
# Suite: the rescaling identity.

def suite_rescaling(cfg, rng):
    def cases():
        for trial in range(cfg.samples):
            k = rng.randint(1, 4)
            x = R.random_cactus(k, rng)
            ys = [R.random_cactus(rng.randint(1, 4), rng) for _ in range(k)]
            yield ("trial %d: x=%r" % (trial, x),
                   rescaling_identity_check(x, ys))

    yield "rescaling/identity", cases()


# ---------------------------------------------------------------------------
# Suite: the recorded non-associativity witness.

def nonassoc_witness():
    """The recorded triple of 2-lobe cacti whose two association orders
    differ, with the exact distance between the outcomes."""
    h = Fraction(1, 2)
    x = Cactus(2, [(0, Fraction(1, 4), 1),
                   (Fraction(1, 4), Fraction(3, 4), 2),
                   (Fraction(3, 4), 1, 1)])
    halves = Cactus(2, [(0, h, 1), (h, 1, 2)])
    left = cact1_compose(cact1_compose(x, 1, halves), 1, halves)
    right = cact1_compose(x, 1, cact1_compose(halves, 1, halves))
    return {"x": x, "y": halves, "z": halves,
            "left": left, "right": right,
            "distance": cactus_metric(left, right)}


def suite_witness(cfg, rng):
    w = nonassoc_witness()
    yield ("witness/nonassoc",
           [("left %r vs right %r at distance %s"
             % (w["left"], w["right"], w["distance"]),
             w["left"] != w["right"]
             and w["distance"] == Fraction(1, 4))])


# ---------------------------------------------------------------------------
# Suite: coherence of the cactus action.

def _corner_value(tree, brackets, xs, S):
    """The value of the region S (a bracket, or every vertex) at a
    maximal bracketing with every weight 1, from regions and Cact^1
    composition alone: S's maximal inner brackets and its other vertices
    are two pieces joined by one edge, and the upper piece's value goes
    in at that edge's leaf of the lower piece's region tree.  A region's
    root is its least DFS id."""
    if len(S) == 1:
        return xs[min(S)]
    inner = [b for b in brackets if b < S]
    top = [b for b in inner if not any(b < c for c in inner)]
    pieces = top + [frozenset([v]) for v in S.difference(*top)]
    if len(pieces) != 2:
        raise ValueError("not a maximal bracketing: %d pieces in %s"
                         % (len(pieces), sorted(S)))
    low, up = pieces if min(S) in pieces[0] else pieces[::-1]
    joint = ("out", min(up))
    exits = T.region(tree, low)[2]
    if [e for e in exits if e[0] == "out" and e[1] in up] != [joint]:
        raise ValueError("not a maximal bracketing: %s and %s are not "
                         "joined by one edge" % (sorted(low), sorted(up)))
    return cact1_compose(_corner_value(tree, brackets, xs, low),
                         exits.index(joint) + 1,
                         _corner_value(tree, brackets, xs, up))


def _coherence_configs(shapes, weight_choices, rng):
    "Every (host, slot, guest) on the shapes, at most 5 vertices together."
    configs = []
    for sa in shapes:
        nva = sa.vertex_count
        for a in _decorate_sampled(sa, weight_choices, rng):
            for i in range(1, a.arity + 1):
                m = a.slot_arity(i)
                for sb in shapes:
                    # composite vertex count is nva + nvb - 1
                    if (sb.vertex_count + nva > 5
                            or sb.leaf_count != m):
                        continue
                    for b in _decorate_sampled(sb, weight_choices, rng):
                        configs.append((a, i, b))
    return configs


def _decorate_sampled(shape, weight_choices, rng):
    "One element per bracketing, weights drawn from the choices."
    base = OElement(shape)
    out = []
    for br in enumerate_bracketings(shape):
        ws = {b: rng.choice(weight_choices) for b in br.brackets}
        out.append(BOElement(base, WeightedBracketing(shape, ws)))
    return out


def suite_coherence(cfg, rng):
    shapes = _shapes(3, 4, min_arity=1)

    def corner_cases():
        for tree in _shapes(4, 5, min_arity=1):
            every = frozenset(range(tree.vertex_count))
            for br in maximal_bracketings(tree):
                xs = [R.random_cactus(a, rng) for a in T.arities(tree)]
                e = BOElement(OElement(tree), WeightedBracketing(
                    tree, {b: 1 for b in br.brackets}))
                yield ("corner %r on %r" % (sorted(map(sorted, br.brackets)),
                                            tree),
                       bo_action.lam(e, xs)
                       == _corner_value(tree, br.brackets, xs, every))

    yield "coherence/corners-every-tree", corner_cases()

    def comp_cases(weight_choices):
        configs = _coherence_configs(shapes, weight_choices, rng)
        for n in range(max(len(configs), cfg.samples // 10)):
            a, i, b = configs[n % len(configs)]
            xs = R.random_labelled_cacti(a, rng)
            ys = R.random_labelled_cacti(b, rng)
            comp = compose_BO(a, i, b)
            lhs = bo_action.lam(comp, xs[:i - 1] + ys + xs[i:])
            rhs = bo_action.lam(a, xs[:i - 1]
                                + [bo_action.lam(b, ys)] + xs[i:])
            yield ("%r o_%d %r" % (a, i, b), lhs == rhs)

    yield "coherence/weight-1", comp_cases((Fraction(1),))
    yield ("coherence/interpolated",
           comp_cases((Fraction(1, 3), Fraction(2, 3), Fraction(1))))

    def equivariance():
        for trial in range(max(1, cfg.samples // 20)):
            e = R.random_bo_element(rng, tree=rng.choice(shapes))
            xs = R.random_labelled_cacti(e, rng)
            perm = R.random_permutation(rng, e.arity)
            lhs = bo_action.lam(sigma_act_BO(perm, e),
                                [xs[p] for p in perm])
            yield ("trial %d" % trial, lhs == bo_action.lam(e, xs))

    yield "coherence/sigma-equivariance", equivariance()


# ---------------------------------------------------------------------------
# Suite: a zero-weight bracket acts like no bracket at all.

def suite_weight_zero(cfg, rng):
    pool = []  # each shape with its nonempty bracketings, when it has any
    for sh in _shapes(4, 4, min_arity=1):
        brs = [b for b in enumerate_bracketings(sh) if b.brackets]
        if brs:
            pool.append((sh, brs))

    def cases():
        for trial in range(max(1, cfg.samples // 5)):
            sh, brs = rng.choice(pool)
            br = rng.choice(brs)
            sets = br.sorted_brackets()
            zero = rng.choice(sets)
            items = [(b, Fraction(1) if b != zero else Fraction(0))
                     for b in sets]
            kept = [(b, w) for b, w in items if w != 0]
            base = OElement(sh)
            xs = R.random_labelled_cacti(base, rng)
            lhs = bo_action._ms_action(base, items, xs)[0].cactus
            rhs = bo_action._ms_action(base, kept, xs)[0].cactus
            yield ("trial %d: zero bracket %r on %r"
                   % (trial, sorted(zero), sh), lhs == rhs)

    yield "weight-zero/seam", cases()


# ---------------------------------------------------------------------------
# Registry.

SUITES = {
    "bracket-counts": suite_bracket_counts,
    "euler-characteristic": suite_euler,
    "bo-associativity": suite_bo_axioms,
    "psi-roundtrip": suite_psi,
    "omega-tilde": suite_omega_tilde,
    "nerve": suite_nerve,
    "coend-embedding": suite_coend,
    "rescaling": suite_rescaling,
    "nonassoc-witness": suite_witness,
    "bo-action-coherence": suite_coherence,
    "weight-zero": suite_weight_zero,
}


def run_suite(name, cfg=None):
    if cfg is None:
        cfg = RunConfig()
    if name != "all" and name not in SUITES:
        raise KeyError("unknown suite %r (try: %s, all)"
                       % (name, ", ".join(sorted(SUITES))))
    checks = []
    for key in sorted(SUITES) if name == "all" else [name]:
        # each suite draws from its own stream, seeded alike
        for cid, cases in SUITES[key](cfg, R.rng_from_seed(cfg.seed)):
            checks.append(_record(cid, cases))
    checks.sort(key=lambda c: c["id"])
    return {"suite": name, "seed": cfg.seed, "limit": cfg.limit,
            "samples": cfg.samples, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
