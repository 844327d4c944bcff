"""End-to-end acceptance runs: one test per verification suite, at the
default configuration (seed 0, limit 6, 1000 samples), with the agreed
wall-clock budgets and the case count of every check.  Everything is
exact arithmetic; a failure report carries the first counterexample
found."""

import time
from fractions import Fraction

from brackops.trees import caterpillar, star
from brackops.bracketings import maximal_bracketings
from brackops.suites import RunConfig, run_suite, nonassoc_witness

F = Fraction

# The checks of each suite at the default configuration, with their case
# counts: a change that keeps the behaviour keeps every count.
COUNTS = {
    "bo-associativity": {
        "bo-axioms/assoc-bracketed-random": 670,
        "bo-axioms/assoc-parallel-shapes": 25840,
        "bo-axioms/assoc-sequential-shapes": 68032,
        "bo-axioms/eta-discard": 182,
        "bo-axioms/sigma-equivariance": 426,
        "bo-axioms/unit": 876,
    },
    "coend-embedding": {
        "coend/average-identity": 1000,
        "coend/convex-combination-pointwise": 1000,
        "coend/ms-compose-pointwise": 1000,
    },
    "bo-action-coherence": {
        "coherence/corners-every-tree": 4190,
        "coherence/interpolated": 4814,
        "coherence/sigma-equivariance": 50,
        "coherence/weight-1": 4814,
    },
    "euler-characteristic": {"euler-characteristic/leq-6-vertices": 65},
    "bracket-counts": {
        "max-bracketings/caterpillar-3": 1,
        "max-bracketings/caterpillar-4": 1,
        "max-bracketings/caterpillar-5": 1,
        "max-bracketings/star-4": 1,
        "max-bracketings/caterpillar-6": 1,
        "max-bracketings/caterpillar-7": 1,
        "max-bracketings/star-5": 1,
        "max-bracketings/star-6": 1,
        "tubings/inner-edges-leq-6-vertices": 65,
    },
    "nerve": {
        "nerve/functorial": 400,
        "nerve/identity": 40,
        "nerve/segal-cacti": 337,
        "nerve/segal-terminal": 1942,
    },
    "omega-tilde": {
        "omega-tilde/associativity": 200,
        "omega-tilde/q-concatenation": 173,
        "omega-tilde/q-refinement": 1,
        "omega-tilde/worked-example": 1,
    },
    "psi-roundtrip": {
        "psi/operad-map": 1000,
        "psi/roundtrip-bracketed": 40288,
        "psi/roundtrip-normal-form": 40288,
    },
    "rescaling": {"rescaling/identity": 1000},
    "weight-zero": {"weight-zero/seam": 200},
    "nonassoc-witness": {"witness/nonassoc": 1},
}


def timed(name, budget=None):
    cfg = RunConfig(seed=0, limit=6, samples=1000)
    t0 = time.perf_counter()
    report = run_suite(name, cfg)
    elapsed = time.perf_counter() - t0
    bad = [c for c in report["checks"] if not c["passed"]]
    assert report["passed"], "failing checks: %s" % (
        [(c["id"], c["counterexample"]) for c in bad],)
    assert {c["id"]: c["count"] for c in report["checks"]} == COUNTS[name]
    if budget is not None:
        assert elapsed < budget, "%s took %.1fs (budget %ds)" % (
            name, elapsed, budget)
    return report


def test_maximal_bracketing_counts():
    t0 = time.perf_counter()
    assert [len(maximal_bracketings(caterpillar(n)))
            for n in (3, 4, 5)] == [2, 5, 14]
    assert len(maximal_bracketings(star(3))) == 6
    timed("bracket-counts")
    assert time.perf_counter() - t0 < 1


def test_bracketing_posets_are_contractible():
    timed("euler-characteristic", budget=30)


def test_bracketed_operad_axioms():
    timed("bo-associativity")


def test_edge_length_correspondence_roundtrip():
    timed("psi-roundtrip", budget=60)


def test_thickened_tree_morphism_composition():
    timed("omega-tilde", budget=60)


def test_nerve_is_functorial_and_segal():
    timed("nerve")


def test_cacti_embed_in_the_coend():
    timed("coend-embedding", budget=60)


def test_rescaling_identity():
    timed("rescaling")


def test_nonassociativity_witness():
    w = nonassoc_witness()
    assert w["distance"] == F(1, 4)
    assert w["left"].k == 4 and w["right"].k == 4
    assert w["left"] != w["right"]
    timed("nonassoc-witness")


def test_action_coherence_under_composition():
    timed("bo-action-coherence", budget=300)


def test_weight_zero_brackets_are_invisible():
    timed("weight-zero")
