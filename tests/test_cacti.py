import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brackops.plmaps import PLMap, identity_map
from brackops.cacti import (Cactus, CactusError, EMPTY_CACTUS, unit_cactus,
                            MSElement, ms_unit, cactus_map, cactus_from_maps,
                            coend_compose, phi, cactus_metric, scaling_map,
                            relabel_cactus, cact1_compose, _insert, ms_compose,
                            gamma_cact1, rescaling_identity_check,
                            cactus_to_obj, cactus_from_obj)
from brackops import randomgen as R
from pl_reference import RefMap, interpolate, ref_compose, same

F = Fraction
HALVES = Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)])


REFUSED = [
    (2, [(0, 1, 1)]),                                 # lobe 2 missing
    (2, [(0, F(1, 3), 1), (F(1, 3), 1, 2)]),          # unequal lengths
    (2, [(0, F(1, 2), 1), (F(3, 4), 1, 2)]),          # gap
    # 1,2,1,2 pattern: the two lobes interleave
    (2, [(0, F(1, 4), 1), (F(1, 4), F(1, 2), 2),
         (F(1, 2), F(3, 4), 1), (F(3, 4), 1, 2)]),
    (0, [(0, 1, 1)]),                                 # no lobes
    (1, []),                                          # no arcs
    (1, [(F(1, 2), F(1, 4), 1)]),                     # only an empty arc
    (2, [(F(1, 4), F(1, 2), 1), (F(1, 2), 1, 2)]),    # starts past 0
    (2, [(0, F(1, 2), 1), (F(1, 4), 1, 2)]),          # overlap
    (2, [(0, F(1, 2), 1), (F(1, 2), 1, 3)]),          # label 3 of 2
    (3, [(0, F(1, 2), 1), (F(1, 2), 1, 2)]),          # lobe 3 missing
    (4, [(0, F(1, 4), 1), (F(1, 4), 1, 3)]),          # lobe 2 missing
    (10 ** 20, [(0, 1, 1)]),                          # lobe 1 too long
]


def test_validation_rules():
    for k, arcs in REFUSED:
        with pytest.raises(CactusError):
            Cactus(k, arcs)


def test_a_count_or_label_that_is_not_an_int_is_refused():
    halves = [(0, F(1, 2), 1), (F(1, 2), 1, 2)]
    for k in (2.5, "2", 2.0, True, F(2)):
        with pytest.raises(CactusError, match="must be ints"):
            Cactus(k, halves)
    for label in (1.7, 1.0, "1", True):
        with pytest.raises(CactusError, match="must be ints"):
            Cactus(2, [(0, F(1, 2), label), (F(1, 2), 1, 2)])
    assert Cactus(2, halves) == HALVES


def test_an_arc_end_that_is_not_an_int_or_a_fraction_is_refused():
    for k, arcs in [(1, [(False, True, 1)]),
                    (2, [("0", "1/2", 1), ("1/2", "1", 2)]),
                    (2, [(0, 0.5, 1), (0.5, 1, 2)]),
                    (10, [(i / 10, (i + 1) / 10, i + 1) for i in range(10)])]:
        with pytest.raises(CactusError, match="ends must be ints or Fractions"):
            Cactus(k, arcs)
    assert Cactus(2, iter([(0, F(1, 2), 1), (F(1, 2), 1, 2)])) == HALVES
    assert Cactus(1, [(0, 1, 1)]) == Cactus(1, [(F(0), F(1), 1)])


def pairwise_interleaving(labels):
    "The first pair (i, j) whose restricted word has > 2 cyclic blocks."
    for i in sorted(set(labels)):
        for j in sorted(set(labels)):
            if i >= j:
                continue
            word = [l for l in labels if l in (i, j)]
            blocks = [word[0]]
            for l in word[1:]:
                if l != blocks[-1]:
                    blocks.append(l)
            if len(blocks) > 1 and blocks[0] == blocks[-1]:
                blocks.pop()
            if len(blocks) > 2:
                return i, j
    return None


def test_interleaving_matches_the_pairwise_rule():
    rng = R.rng_from_seed(21)
    refused = 0
    for _ in range(3000):
        k = rng.randint(1, 6)
        word = list(range(1, k + 1)) + [rng.randint(1, k)
                                        for _ in range(rng.randint(0, 10 - k))]
        rng.shuffle(word)
        # lobe j's c_j arcs have length 1/(k c_j) each
        arcs, pos = [], F(0)
        for lab in word:
            end = pos + F(1, k * word.count(lab))
            arcs.append((pos, end, lab))
            pos = end
        want = pairwise_interleaving(word)
        if want is None:
            Cactus(k, arcs)
            continue
        refused += 1
        with pytest.raises(CactusError, match="interleave") as exc:
            Cactus(k, arcs)
        i, j = map(int, str(exc.value).split()[1:4:2])
        # the named pair interleaves, though it may not be the first one
        assert pairwise_interleaving([l for l in word if l in (i, j)]) \
            == (i, j)
    assert 0 < refused < 3000


# ---------------------------------------------------------------------------
# A Fraction reference: cacti held as Fraction arcs, as they were before
# they moved to integer cuts over one denominator.

class RefCactus:
    def __init__(self, k, arcs):
        k = int(k)
        if k < 1:
            raise CactusError("lobe count must be >= 1 (the empty cactus is EMPTY_CACTUS)")
        merged = []
        for a, b, lab in arcs:
            a, b, lab = Fraction(a), Fraction(b), int(lab)
            if b <= a:
                continue
            if merged and merged[-1][2] == lab and merged[-1][1] == a:
                merged[-1] = (merged[-1][0], b, lab)
            else:
                merged.append((a, b, lab))
        self.k = k
        self.arcs = tuple(merged)
        if not self.arcs:
            raise CactusError("no arcs")
        if self.arcs[0][0] != 0 or self.arcs[-1][1] != 1:
            raise CactusError("arcs must cover [0,1]")
        for (a0, b0, _), (a1, b1, _) in zip(self.arcs, self.arcs[1:]):
            if b0 != a1:
                raise CactusError("arcs must be consecutive")
        totals = {}
        for a, b, lab in self.arcs:
            if not 1 <= lab <= k:
                raise CactusError("label %d outside 1..%d" % (lab, k))
            totals[lab] = totals.get(lab, F(0)) + (b - a)
        for lab in range(1, k + 1):
            if totals.get(lab, F(0)) != F(1, k):
                raise CactusError("lobe %d has length %s, expected %s"
                                  % (lab, totals.get(lab, F(0)), F(1, k)))
        labels = [lab for _, _, lab in self.arcs]
        stack, seen, closed_by = [], set(), {}
        for lab in labels:
            if lab in closed_by:
                i, j = sorted((closed_by[lab], lab))
                raise CactusError(
                    "lobes %d and %d interleave (pattern %s)"
                    % (i, j, [l for l in labels if l in (i, j)]))
            if lab in seen:
                while stack[-1] != lab:
                    closed_by[stack.pop()] = lab
            else:
                stack.append(lab)
                seen.add(lab)


def ref_scaled_ends(x, m):
    ends = [F(0)]
    for a, b, lab in x.arcs:
        ends.append(ends[-1] + (b - a) * x.k * m[lab - 1] / sum(m))
    return ends


def ref_scaling_map(x, m):
    return RefMap([F(0)] + [b for _, b, _ in x.arcs], ref_scaled_ends(x, m))


def ref_gamma_cact1(x, ys):
    k = x.k
    m = [y.k for y in ys]
    n = sum(m)
    offset = [sum(m[:r]) for r in range(k)]
    seen = [F(0)] * k
    arcs = []
    for (a, b, lab), ga in zip(x.arcs, ref_scaled_ends(x, m)):
        ca = seen[lab - 1]
        cb = seen[lab - 1] = ca + (b - a) * k
        for p, q, ly in ys[lab - 1].arcs:
            lo, hi = max(p, ca), min(q, cb)
            if hi > lo:
                arcs.append((ga + (lo - ca) * m[lab - 1] / n,
                             ga + (hi - ca) * m[lab - 1] / n,
                             offset[lab - 1] + ly))
    return RefCactus(n, arcs)


def ref_ms_compose(x, f, i, y, g):
    "The (cactus, reparametrization) of ms_compose((x, f), i, (y, g))."
    k = x.k
    ends = [F(0)]
    for a0, b0, lab in x.arcs:
        if lab == i:
            ends.append(ends[-1] + (b0 - a0) * k)
    g_ends = [interpolate(g, t) for t in ends]
    spans = zip(ends, ends[1:], g_ends, g_ends[1:])
    new_arcs = []
    gt_x, gt_y = [F(0)], [F(0)]
    pos = F(0)
    for a0, b0, lab in x.arcs:
        if lab == i:
            ca, cb, gca, gcb = next(spans)
            for p, gp in zip(g.breakpoints, g.values):
                if ca <= p <= cb:
                    t = a0 + (p - ca) / k
                    if t > gt_x[-1]:
                        gt_x.append(t)
                        gt_y.append(pos + (gp - gca) / k)
            newlen = (gcb - gca) / k
        else:
            newlen = b0 - a0
        pos += newlen
        new_arcs.append((pos - newlen, pos, lab))
        if b0 > gt_x[-1]:
            gt_x.append(b0)
            gt_y.append(pos)
    xt = RefCactus(k, new_arcs)
    ys = [RefCactus(1, [(0, 1, 1)])] * k
    ys[i - 1] = y
    h = ref_scaling_map(xt, [c.k for c in ys])
    return (ref_gamma_cact1(xt, ys),
            ref_compose(h, ref_compose(RefMap(gt_x, gt_y),
                                       RefMap(f.breakpoints, f.values))))


def ref_metric(x, y):
    "The per-lobe double loop over the two cacti's arcs."
    overlap = F(0)
    for lab in range(1, x.k + 1):
        for a, b, l in x.arcs:
            for c, d, m in y.arcs:
                if l == m == lab and min(b, d) > max(a, c):
                    overlap += min(b, d) - max(a, c)
    return 1 - overlap


def ref(x):
    return RefCactus(x.k, x.arcs)


def test_integer_cacti_match_the_fraction_reference():
    for k, arcs in REFUSED:
        with pytest.raises(CactusError) as want:
            RefCactus(k, arcs)
        with pytest.raises(CactusError) as got:
            Cactus(k, arcs)
        assert str(got.value) == str(want.value)
    rng = R.rng_from_seed(31)
    for _ in range(2000):
        k = rng.randint(1, 5)
        a = R.random_ms_element(k, rng)
        b = R.random_ms_element(rng.randint(1, 5), rng)
        # identity reparametrizations, given as maps equal to the identity
        if rng.random() < 0.2:
            a = MSElement(a.cactus, PLMap.of(*[(0, F(1, 3), 1)] * 2))
        if rng.random() < 0.4:
            b = MSElement(b.cactus, PLMap.of(*[(0, F(2, 5), 1)] * 2))
        x = a.cactus
        assert Cactus(k, x.arcs) == x and ref(x).arcs == x.arcs
        ys = [R.random_cactus(rng.randint(1, 5), rng) for _ in range(k)]
        if rng.random() < 0.2:
            ys = [R.random_cactus(1, rng) for _ in range(k)]  # all units
            with pytest.raises(ValueError, match="one cactus per lobe"):
                gamma_cact1(x, ys + ys[:1])
        assert gamma_cact1(x, ys).arcs \
            == ref_gamma_cact1(x, [ref(y) for y in ys]).arcs
        m = [c.k for c in ys]
        assert same(scaling_map(x, m), ref_scaling_map(x, m))
        i = rng.randint(1, k)
        z = ms_compose(a, i, b)
        want, reparam = ref_ms_compose(ref(x), a.reparam, i,
                                       ref(b.cactus), b.reparam)
        assert z.cactus.arcs == want.arcs and same(z.reparam, reparam)


def test_metric_matches_the_per_lobe_double_loop():
    rng = R.rng_from_seed(32)
    for _ in range(500):
        k = rng.randint(1, 5)
        x, y = R.random_cactus(k, rng), R.random_cactus(k, rng)
        assert cactus_metric(x, y) == ref_metric(x, y)


def test_return_arcs_are_legal():
    x = Cactus(2, [(0, F(1, 4), 1), (F(1, 4), F(3, 4), 2), (F(3, 4), 1, 1)])
    assert len(x.arcs) == 3


def test_canonical_form_merges_adjacent_arcs():
    x = Cactus(2, [(0, F(1, 4), 1), (F(1, 4), F(1, 2), 1), (F(1, 2), 1, 2)])
    assert x == HALVES


def test_unit_cactus():
    u = unit_cactus()
    assert u.k == 1 and u.arcs == ((0, 1, 1),)
    assert EMPTY_CACTUS.k == 0


def test_cactus_map_step_shape():
    maps = cactus_map(HALVES)
    assert maps[0](F(1, 2)) == 1 and maps[0](F(1, 4)) == F(1, 2)
    assert maps[1](F(1, 2)) == 0 and maps[1](1) == 1


def test_cactus_from_maps_roundtrip():
    rng = R.rng_from_seed(0)
    for _ in range(40):
        x = R.random_cactus(rng.randint(1, 5), rng)
        assert cactus_from_maps(cactus_map(x)) == x


def test_metric_axioms():
    rng = R.rng_from_seed(1)
    for _ in range(30):
        x = R.random_cactus(3, rng)
        y = R.random_cactus(3, rng)
        assert cactus_metric(x, x) == 0
        assert cactus_metric(x, y) == cactus_metric(y, x)
        assert 0 <= cactus_metric(x, y) <= 1
        if x != y:
            assert cactus_metric(x, y) > 0
    assert cactus_metric(EMPTY_CACTUS, EMPTY_CACTUS) == 0


def test_scaling_map_identity_multipliers():
    x = HALVES
    assert scaling_map(x, (1, 1)) == identity_map()
    with pytest.raises(ValueError):
        scaling_map(x, (0, 1))


def test_scaling_map_doubles_a_lobe():
    g = scaling_map(HALVES, (2, 1))
    # lobe 1 takes 2/3 of the mass: [0,1/2] maps onto [0,2/3]
    assert g(F(1, 2)) == F(2, 3)


def test_relabel():
    y = relabel_cactus(HALVES, (2, 1))
    assert y == Cactus(2, [(0, F(1, 2), 2), (F(1, 2), 1, 1)])


def test_relabel_refuses_what_is_not_a_permutation_of_ints():
    # a float or a bool would become a label through _from_arcs, which
    # skips Cactus's int check
    for perm in [(1, 1), (0, 1), (2.0, 1.0), (True, 2)]:
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
            relabel_cactus(HALVES, perm)


def test_cact1_compose_worked_example():
    y = Cactus(3, [(0, F(1, 3), 1), (F(1, 3), F(2, 3), 2), (F(2, 3), 1, 3)])
    z = cact1_compose(HALVES, 1, y)
    assert z == Cactus(4, [(0, F(1, 4), 1), (F(1, 4), F(1, 2), 2),
                           (F(1, 2), F(3, 4), 3), (F(3, 4), 1, 4)])


def test_cact1_compose_unit_laws():
    rng = R.rng_from_seed(2)
    for _ in range(30):
        x = R.random_cactus(rng.randint(1, 4), rng)
        i = rng.randint(1, x.k)
        assert cact1_compose(x, i, unit_cactus()) == x
        assert cact1_compose(unit_cactus(), 1, x) == x


def test_single_insertion_is_simultaneous_insertion_with_units():
    rng = R.rng_from_seed(7)
    for _ in range(40):
        x = R.random_cactus(rng.randint(1, 4), rng)
        i = rng.randint(1, x.k)
        y = R.random_cactus(rng.randint(1, 4), rng)
        ys = [unit_cactus()] * x.k
        ys[i - 1] = y
        assert cact1_compose(x, i, y) == gamma_cact1(x, ys)
        assert _insert(x, i, y)[1] == scaling_map(x, [c.k for c in ys])


def test_nonassociativity_of_cact1():
    x = Cactus(2, [(0, F(1, 4), 1), (F(1, 4), F(3, 4), 2), (F(3, 4), 1, 1)])
    left = cact1_compose(cact1_compose(x, 1, HALVES), 1, HALVES)
    right = cact1_compose(x, 1, cact1_compose(HALVES, 1, HALVES))
    assert left != right
    assert cactus_metric(left, right) == F(1, 4)


def test_ms_compose_is_associative():
    rng = R.rng_from_seed(3)
    for _ in range(25):
        a = R.random_ms_element(rng.randint(1, 3), rng)
        i = rng.randint(1, a.cactus.k)
        b = R.random_ms_element(rng.randint(1, 3), rng)
        j = rng.randint(1, b.cactus.k)
        c = R.random_ms_element(rng.randint(1, 2), rng)
        lhs = ms_compose(ms_compose(a, i, b), i + j - 1, c)
        rhs = ms_compose(a, i, ms_compose(b, j, c))
        assert lhs == rhs


def test_ms_compose_parallel_slots_commute():
    # inserting into two different lobes of a: either order, once the
    # later lobe is shifted past the first insertion
    rng = R.rng_from_seed(4)
    for _ in range(200):
        a = R.random_ms_element(rng.randint(2, 4), rng)
        i, j = sorted(rng.sample(range(1, a.cactus.k + 1), 2))
        b = R.random_ms_element(rng.randint(1, 3), rng)
        c = R.random_ms_element(rng.randint(1, 3), rng)
        lhs = ms_compose(ms_compose(a, j, c), i, b)
        rhs = ms_compose(ms_compose(a, i, b), j + b.cactus.k - 1, c)
        assert lhs == rhs


def test_phi_turns_ms_compose_into_coend_compose():
    rng = R.rng_from_seed(4)
    ts = [F(r, 24) for r in range(25)]
    for _ in range(20):
        a = R.random_ms_element(rng.randint(1, 3), rng)
        i = rng.randint(1, a.cactus.k)
        b = R.random_ms_element(rng.randint(1, 3), rng)
        lhs = phi(ms_compose(a, i, b))
        rhs = coend_compose(phi(a), i, phi(b))
        assert len(lhs) == len(rhs)
        for f, g in zip(lhs, rhs):
            assert all(f(t) == g(t) for t in ts)


def test_rescaling_identity():
    rng = R.rng_from_seed(5)
    for _ in range(40):
        k = rng.randint(1, 3)
        x = R.random_cactus(k, rng)
        ys = [R.random_cactus(rng.randint(1, 3), rng) for _ in range(k)]
        assert rescaling_identity_check(x, ys)


def test_ms_unit_is_the_unit_cactus():
    assert ms_unit().cactus == unit_cactus()
    assert ms_unit().reparam == identity_map()


def test_json_roundtrip():
    rng = R.rng_from_seed(6)
    for _ in range(20):
        x = R.random_cactus(rng.randint(1, 4), rng)
        assert cactus_from_obj(json.loads(json.dumps(cactus_to_obj(x)))) == x


@given(st.integers(0, 10 ** 6))
def test_average_of_cactus_steps_is_identity(seed):
    from brackops.plmaps import average_of_steps
    rng = R.rng_from_seed(seed)
    x = R.random_cactus(rng.randint(1, 5), rng)
    assert average_of_steps(cactus_map(x)) == identity_map()
