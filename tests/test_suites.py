import pytest

from brackops import bo_action, suites
from brackops import randomgen as R
from brackops.plmaps import IDENTITY
from brackops.suites import SUITES, RunConfig, run_suite


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        RunConfig(limit=0)
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    # the Euler suite would enumerate every bracketing of 8-vertex trees
    with pytest.raises(ValueError):
        RunConfig(limit=8)


def test_report_schema():
    cfg = RunConfig(seed=3, limit=5, samples=40)
    report = run_suite("bracket-counts", cfg)
    assert report["suite"] == "bracket-counts"
    assert report["seed"] == 3
    assert report["limit"] == 5
    assert report["samples"] == 40
    assert report["passed"] is True
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    for c in report["checks"]:
        assert set(c) == {"id", "count", "passed", "counterexample"}
        assert c["count"] >= 1
        assert c["counterexample"] is None


def test_fast_suites_pass():
    cfg = RunConfig(samples=30)
    for name in ("nonassoc-witness", "omega-tilde", "weight-zero"):
        assert run_suite(name, cfg)["passed"]


def test_a_check_that_ran_no_case_fails():
    assert suites._record("empty", iter(())) == {
        "id": "empty", "count": 0, "passed": False,
        "counterexample": "no case ran"}
    # five samples make one q-concatenation trial, and at seed 0 its
    # chain of collapses stops short of two
    report = run_suite("omega-tilde", RunConfig(samples=5))
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["omega-tilde/q-concatenation"]["count"] == 0
    assert checks["omega-tilde/q-concatenation"]["passed"] is False
    assert report["passed"] is False


def test_a_case_that_raises_fails_its_check_not_the_run(monkeypatch):
    def broken(f):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(suites, "average_of_steps", broken)
    report = run_suite("coend-embedding", RunConfig(samples=7))
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["coend/average-identity"] == {
        "id": "coend/average-identity", "count": 1, "passed": False,
        "counterexample": "case 1 raised ValueError: broken on purpose"}
    # the suite's later check still runs
    assert checks["coend/ms-compose-pointwise"]["passed"] is True
    assert checks["coend/ms-compose-pointwise"]["count"] == 7
    assert report["passed"] is False


def test_a_raising_case_after_a_failing_one_keeps_the_first_failure():
    def cases():
        yield "first", True
        yield "second", False
        raise ValueError("late")

    assert suites._record("c", cases()) == {
        "id": "c", "count": 3, "passed": False, "counterexample": "second"}


def test_euler_suite_fails_on_a_poset_that_is_not_a_sphere(monkeypatch):
    # the pentagon's bracketing poset with one maximal bracketing removed:
    # still a cone over the empty bracketing, but its proper part is a
    # path, not a circle
    monkeypatch.setattr(suites, "nerve_statistics",
                        lambda tree: ((10, 17, 8), 1))
    report = run_suite("euler-characteristic", RunConfig(limit=4))
    assert report["passed"] is False
    assert "chi=1, want" in report["checks"][0]["counterexample"]


@pytest.mark.parametrize("mutant", ["invert-is-identity", "compose-swapped"])
def test_the_corner_check_fails_under_each_action_mutant(monkeypatch,
                                                         mutant):
    """At seed 0, an action whose bracket maps never undo a sub-action's
    reparametrization fails 234 of the 4190 corner cases.  One that
    composes its PL maps the other way round fails 6, all on trees with
    5 leaves, so a grid of at most 4 leaves would miss it."""
    compose = bo_action.pl_compose
    if mutant == "invert-is-identity":
        monkeypatch.setattr(bo_action, "pl_invert", lambda m: IDENTITY)
    else:
        monkeypatch.setattr(bo_action, "pl_compose",
                            lambda f, g: compose(g, f))
    cid, cases = next(suites.suite_coherence(RunConfig(), R.rng_from_seed(0)))
    record = suites._record(cid, cases)
    assert cid == "coherence/corners-every-tree"
    assert record["count"] == 4190
    assert record["passed"] is False


def test_reports_are_deterministic():
    cfg = RunConfig(seed=11, samples=25)
    a = run_suite("weight-zero", cfg)
    b = run_suite("weight-zero", RunConfig(seed=11, samples=25))
    assert a == b


def test_registry_matches_run_all():
    assert set(SUITES) == {
        "bracket-counts", "euler-characteristic", "bo-associativity",
        "psi-roundtrip", "omega-tilde", "nerve", "coend-embedding",
        "rescaling", "nonassoc-witness", "bo-action-coherence",
        "weight-zero"}
