import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from brackops import bo_action, suites
from brackops import dendroidal as D
from brackops.cli import main
from brackops.trees import ETA, PlanarTree, caterpillar, corolla, num_leaves
from brackops.operads import OElement, bo_element, bo_to_obj
from brackops.wconstruction import (WTree, psi, psi_inverse, w_from_obj,
                                    w_to_obj)
from brackops.cacti import EMPTY_CACTUS, Cactus, cactus_to_obj

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_brackets_enumerate_counts(capsys):
    code, out = run(capsys, "brackets", "enumerate",
                    "--tree", "caterpillar:4", "--max")
    assert code == 0
    assert json.loads(out)["count"] == 5
    code, out = run(capsys, "brackets", "enumerate", "--tree", "corolla:3")
    assert json.loads(out)["count"] == 1


def test_brackets_fvector(capsys):
    code, out = run(capsys, "brackets", "enumerate",
                    "--tree", "caterpillar:3", "--fvector")
    data = json.loads(out)
    assert code == 0 and data["chi"] == 1


def test_bo_compose(tmp_path, capsys):
    e = bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3),
                   {frozenset({1, 2}): F(1, 2)})
    u = bo_element(caterpillar(1), (0,), (0, 1))
    lhs = write(tmp_path, "lhs.json", json.dumps(bo_to_obj(e)))
    rhs = write(tmp_path, "rhs.json", json.dumps(bo_to_obj(u)))
    code, out = run(capsys, "bo", "compose", "--lhs", lhs,
                    "--slot", "1", "--rhs", rhs)
    assert code == 0
    assert json.loads(out)["brackets"] == [
        {"vertices": [1, 2], "w": "1/2"}]


def test_cacti_compose_and_metric(tmp_path, capsys):
    x = Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)])
    y = Cactus(2, [(0, F(1, 4), 1), (F(1, 4), F(3, 4), 2), (F(3, 4), 1, 1)])
    xp = write(tmp_path, "x.json", json.dumps(cactus_to_obj(x)))
    yp = write(tmp_path, "y.json", json.dumps(cactus_to_obj(y)))
    code, out = run(capsys, "cacti", "compose", "--lhs", xp,
                    "--slot", "1", "--rhs", yp)
    assert code == 0 and json.loads(out)["k"] == 3
    code, out = run(capsys, "cacti", "metric", "--lhs", xp, "--rhs", xp)
    assert json.loads(out)["distance"] == "0/1"


def test_cacti_validate_rejects_bad_input(tmp_path, capsys):
    bad = write(tmp_path, "bad.json",
                json.dumps({"k": 2, "arcs": [["0/1", "1/1", 1]]}))
    code, out = run(capsys, "cacti", "validate", "--input", bad)
    assert code == 1 and json.loads(out)["valid"] is False
    good = write(tmp_path, "good.json",
                 json.dumps(cactus_to_obj(Cactus(1, [(0, 1, 1)]))))
    code, out = run(capsys, "cacti", "validate", "--input", good)
    assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize("obj", [{"k": 0, "arcs": [["0", "1", 1]]},
                                 {"k": 0, "arcs": "junk"}])
def test_cacti_validate_rejects_arcs_on_the_empty_cactus(tmp_path, capsys,
                                                         obj):
    bad = write(tmp_path, "bad.json", json.dumps(obj))
    code, out = run(capsys, "cacti", "validate", "--input", bad)
    assert code == 1 and json.loads(out)["valid"] is False


@pytest.mark.parametrize("obj", [{"k": 2, "arcs": [[None, "1", 1]]},
                                 {"k": [1], "arcs": []},
                                 [1, 2]])
def test_cacti_validate_reports_a_value_of_the_wrong_type(tmp_path, capsys,
                                                          obj):
    bad = write(tmp_path, "bad.json", json.dumps(obj))
    code, out = run(capsys, "cacti", "validate", "--input", bad)
    assert code == 1 and json.loads(out)["valid"] is False


@pytest.mark.parametrize("obj", [
    {"k": 2.5, "arcs": [["0", "1/2", 1], ["1/2", "1", 2]]},
    {"k": 2, "arcs": [["0", "1/2", 1.9], ["1/2", "1", 2]]},
    {"k": 1, "arcs": [["0", "1", True]]}])
def test_cacti_validate_refuses_a_float_or_bool_integer_field(tmp_path, capsys,
                                                              obj):
    bad = write(tmp_path, "bad.json", json.dumps(obj))
    code, out = run(capsys, "cacti", "validate", "--input", bad)
    assert code == 1 and json.loads(out)["valid"] is False
    code, out = run(capsys, "cacti", "compose", "--lhs", bad,
                    "--slot", "1", "--rhs", bad)
    assert code == 2 and "expected an integer" in json.loads(out)["error"]


def test_witness_nonassoc(capsys):
    code, out = run(capsys, "witness", "nonassoc")
    assert code == 0
    data = json.loads(out)
    assert data["distance"] == "1/4"
    # the recorded pair of 4-lobe cacti
    assert data["left"]["k"] == 4 and data["right"]["k"] == 4
    assert data["left"] != data["right"]


def test_witness_unknown_name():
    # argparse refuses the name, with the exit code of all bad input
    with pytest.raises(SystemExit) as exc:
        main(["witness", "pentagon"])
    assert exc.value.code == 2


def test_omega_segal_terminal(capsys):
    code, out = run(capsys, "omega", "segal", "--tree", "caterpillar:3")
    assert code == 0 and json.loads(out)["segal"] is True


def test_omega_segal_on_the_vertexless_tree_is_a_structured_error(
        tmp_path, capsys):
    eta = write(tmp_path, "eta.json", json.dumps("eta"))
    code, out = run(capsys, "omega", "segal", "--tree", eta)
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError: the vertexless tree has no Segal map"}


def test_cacti_metric_of_the_zero_lobe_point(tmp_path, capsys):
    p = write(tmp_path, "e.json", json.dumps(cactus_to_obj(EMPTY_CACTUS)))
    code, out = run(capsys, "cacti", "metric", "--lhs", p, "--rhs", p)
    assert code == 0 and json.loads(out) == {"distance": "0/1"}


@pytest.mark.parametrize("tree, inputs, vertex", [
    (corolla(0), [EMPTY_CACTUS], 0),
    (PlanarTree((corolla(0), ETA)),
     [Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)]), EMPTY_CACTUS], 1)])
def test_bo_action_on_a_nullary_vertex_is_a_structured_error(
        tmp_path, capsys, tree, inputs, vertex):
    e = bo_element(tree, tuple(range(len(inputs))),
                   tuple(range(num_leaves(tree))))
    ep = write(tmp_path, "e.json", json.dumps(bo_to_obj(e)))
    xp = write(tmp_path, "xs.json",
               json.dumps([cactus_to_obj(x) for x in inputs]))
    code, out = run(capsys, "bo-action", "eval",
                    "--element", ep, "--inputs", xp)
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError: vertex %d has arity 0; the cactus action "
                 "needs an input at every vertex" % vertex}


def test_bo_action_eval_with_trace(tmp_path, capsys, monkeypatch):
    e = bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3),
                   {frozenset({1, 2}): F(1, 2)})
    xs = [Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)])] * 3
    ep = write(tmp_path, "e.json", json.dumps(bo_to_obj(e)))
    xp = write(tmp_path, "xs.json",
               json.dumps([cactus_to_obj(x) for x in xs]))
    calls = []
    ms_action = bo_action._ms_action

    def counted(*args):
        calls.append(args)
        return ms_action(*args)

    monkeypatch.setattr(bo_action, "_ms_action", counted)
    code, out = run(capsys, "bo-action", "eval",
                    "--element", ep, "--inputs", xp)
    assert code == 0
    assert json.loads(out)["result"]["k"] == 4
    plain = len(calls)
    code, out = run(capsys, "bo-action", "eval",
                    "--element", ep, "--inputs", xp, "--trace")
    # the trace comes from the same single evaluation as the result
    assert len(calls) == 2 * plain
    data = json.loads(out)
    tr = data["trace"]
    assert len(tr["g"]) == 3
    assert len(tr["h"]) == 1
    assert tr["brackets"] == [[1, 2]]
    assert set(tr["ms"]) == {"cactus", "reparam"}


@pytest.mark.parametrize("tree", ["caterpillar:-1", "caterpillar:0",
                                  "star:-2", "corolla:-1", "caterpillar:x",
                                  "corolla:10001", "caterpillar:10001"])
def test_bad_tree_shorthand_is_a_structured_error(capsys, tree):
    code, out = run(capsys, "brackets", "enumerate", "--tree", tree)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_fvector_over_the_limit_is_a_structured_error(capsys):
    code, out = run(capsys, "brackets", "enumerate", "--tree", "caterpillar:9",
                    "--fvector")
    assert code == 2
    assert list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("form", [[], ["--max"]])
def test_enumeration_over_the_limit_is_a_structured_error(capsys, form):
    code, out = run(capsys, "brackets", "enumerate", "--tree", "caterpillar:12",
                    *form)
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError: tree exceeds the enumeration limit (7 vertices)"}


def test_verify_zero_samples_is_a_structured_error(capsys):
    code, out = run(capsys, "verify", "bracket-counts", "--samples", "0")
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_verify_limit_above_7_is_a_structured_error(capsys):
    # the Euler suite would enumerate every bracketing of 8-vertex trees
    code, out = run(capsys, "verify", "bracket-counts", "--limit", "8")
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_verify_reports_a_case_that_raises(capsys, monkeypatch):
    def broken(f):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(suites, "average_of_steps", broken)
    code, out = run(capsys, "verify", "coend-embedding", "--samples", "7",
                    "--json")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    checks = {c["id"]: c for c in json.loads(lines[0])["checks"]}
    assert checks["coend/average-identity"]["counterexample"] == (
        "case 1 raised ValueError: broken on purpose")
    assert checks["coend/ms-compose-pointwise"]["passed"] is True


@pytest.mark.parametrize("element", ["{}", "not json"])
def test_bad_bo_action_element_is_a_structured_error(tmp_path, capsys,
                                                     element):
    ep = write(tmp_path, "e.json", element)
    xp = write(tmp_path, "xs.json", "[]")
    code, out = run(capsys, "bo-action", "eval",
                    "--element", ep, "--inputs", xp)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_bo_action_eval_without_inputs_is_a_structured_error(tmp_path,
                                                             capsys):
    e = bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3))
    ep = write(tmp_path, "e.json", json.dumps(bo_to_obj(e)))
    xp = write(tmp_path, "xs.json", "[]")
    code, out = run(capsys, "bo-action", "eval",
                    "--element", ep, "--inputs", xp)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_bo_compose_slot_out_of_range_is_a_structured_error(tmp_path, capsys):
    u = write(tmp_path, "u.json",
              json.dumps(bo_to_obj(bo_element(caterpillar(1), (0,), (0, 1)))))
    code, out = run(capsys, "bo", "compose", "--lhs", u,
                    "--slot", "9", "--rhs", u)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def _with_bracket(vertices):
    "A 3-vertex element whose one bracket has the given vertex ids."
    obj = bo_to_obj(bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3)))
    obj["brackets"] = [{"vertices": vertices, "w": "1"}]
    return json.dumps(obj)


def test_bo_compose_bracket_outside_the_tree_is_a_structured_error(
        tmp_path, capsys):
    a = write(tmp_path, "a.json", _with_bracket([0, 7]))
    u = write(tmp_path, "u.json",
              json.dumps(bo_to_obj(bo_element(caterpillar(1), (0,), (0, 1)))))
    code, out = run(capsys, "bo", "compose", "--lhs", a,
                    "--slot", "1", "--rhs", u)
    assert code == 2
    assert "not proper" in json.loads(out)["error"]


def test_bo_action_bracket_outside_the_tree_is_a_structured_error(
        tmp_path, capsys):
    ep = write(tmp_path, "e.json", _with_bracket([0, -1]))
    xs = [Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)])] * 3
    xp = write(tmp_path, "xs.json",
               json.dumps([cactus_to_obj(x) for x in xs]))
    code, out = run(capsys, "bo-action", "eval",
                    "--element", ep, "--inputs", xp)
    assert code == 2
    assert "not proper" in json.loads(out)["error"]


def test_cacti_compose_slot_out_of_range_is_a_structured_error(tmp_path,
                                                               capsys):
    x = write(tmp_path, "x.json", json.dumps(cactus_to_obj(
        Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)]))))
    code, out = run(capsys, "cacti", "compose", "--lhs", x,
                    "--slot", "9", "--rhs", x)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("image", [[3, 9], [3, -1]])
@pytest.mark.parametrize("action", ["image", "compose"])
def test_omega_image_outside_the_target_is_a_structured_error(
        tmp_path, capsys, action, image):
    obj = D.morphism_to_obj(D.collapse_morphism(caterpillar(5), [{3, 4}]))
    obj["vertices"][-1] = image
    g = write(tmp_path, "g.json", json.dumps(obj))
    args = ["--input", g] if action == "image" else ["--lhs", g, "--rhs", g]
    code, out = run(capsys, "omega", action, *args)
    assert code == 2
    assert "do not match the edge map" in json.loads(out)["error"]


def test_omega_image_of_a_too_short_edge_name_is_a_structured_error(
        tmp_path, capsys):
    obj = D.morphism_to_obj(D.collapse_morphism(caterpillar(3), [{1, 2}]))
    obj["edges"][0][0] = ["out"]
    g = write(tmp_path, "g.json", json.dumps(obj))
    code, out = run(capsys, "omega", "image", "--input", g)
    assert code == 2
    assert "IndexError" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["bo", "bo-action"])
def test_a_float_vertex_label_is_a_structured_error(tmp_path, capsys,
                                                    command):
    obj = bo_to_obj(bo_element(caterpillar(2), (0, 1), (0, 1, 2)))
    obj["sigma"] = [float(v) for v in obj["sigma"]]
    ep = write(tmp_path, "e.json", json.dumps(obj))
    if command == "bo":
        args = ["compose", "--lhs", ep, "--slot", "1", "--rhs", ep]
    else:
        xs = [Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)])] * 2
        xp = write(tmp_path, "xs.json",
                   json.dumps([cactus_to_obj(x) for x in xs]))
        args = ["eval", "--element", ep, "--inputs", xp]
    code, out = run(capsys, command, *args)
    assert code == 2
    assert json.loads(out) == {
        "error": "%s: ValueError: expected an integer, got 1.0" % ep}


@pytest.mark.parametrize("command, tree", [
    (["brackets", "enumerate"], "caterpillar:1000"),
    (["omega", "segal"], "caterpillar:900"),
    (["brackets", "enumerate"], None)])
def test_a_tree_too_deep_to_recurse_on_is_a_structured_error(tmp_path, capsys,
                                                             command, tree):
    if tree is None:  # a tree JSON file nested 1200 vertices deep
        n = 1200
        tree = write(tmp_path, "deep.json",
                     '{"node": [' * n + '"leaf"' + "]}" * n)
    code, out = run(capsys, *command, "--tree", tree)
    assert code == 2
    # a tree knows its size, so the enumeration limit refuses this one
    # before anything recurses on it
    expected = {"caterpillar:1000": "exceeds the enumeration limit"}.get(
        tree, "RecursionError")
    assert expected in json.loads(out)["error"]


def test_verify_exit_codes_and_determinism(capsys):
    code, out1 = run(capsys, "verify", "nonassoc-witness",
                     "--samples", "10", "--json")
    assert code == 0
    code, out2 = run(capsys, "verify", "nonassoc-witness",
                     "--samples", "10", "--json")
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True


@pytest.mark.parametrize("suite", ["omega-tilde", "nerve"])
def test_verify_output_does_not_depend_on_the_hash_seed(suite):
    # trees hash by identity and strings by the hash seed: neither may
    # order anything a report shows
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "brackops.cli", "verify", suite,
             "--samples", "100", "--json"],
            env=env, capture_output=True, timeout=60, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["passed"] is True


def test_verify_summary_lines(capsys):
    code, out = run(capsys, "verify", "omega-tilde", "--samples", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "omega-tilde: PASS"
    assert all(": pass (" in ln for ln in lines[:-1])


def test_verify_unknown_suite():
    # argparse refuses the name, with the exit code of all bad input
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_figure_export(tmp_path, capsys):
    code, out = run(capsys, "figure", "pentagon", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "pentagon.json").read_text())
    assert len(data["vertices"]) == 5 and len(data["edges"]) == 5
    svg = (tmp_path / "pentagon.svg").read_text()
    assert svg.startswith("<svg")
    code, _ = run(capsys, "figure", "hexagon", "--out", str(tmp_path))
    assert len(json.loads((tmp_path / "hexagon.json").read_text())
               ["vertices"]) == 6
    code, _ = run(capsys, "figure", "cact-composition", "--out",
                  str(tmp_path))
    assert (tmp_path / "cact-composition.svg").exists()


def test_figure_out_below_a_file_is_a_structured_error(tmp_path, capsys):
    blocker = write(tmp_path, "file", "")
    code, out = run(capsys, "figure", "pentagon", "--out",
                    os.path.join(blocker, "figs"))
    assert code == 2
    assert "NotADirectoryError" in json.loads(out)["error"]


def test_figure_unknown_name(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "heptagon", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_w_psi_reads_a_tree_with_a_zero_length_edge(tmp_path, capsys):
    w = psi_inverse(bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3),
                               {frozenset({1, 2}): F(1)}))
    w = WTree(w.shape, w.leaf_order, (F(0),), w.decorations)
    path = write(tmp_path, "w.json", json.dumps(w_to_obj(w)))
    code, out = run(capsys, "w", "psi", "--input", path)
    assert code == 0
    assert json.loads(out) == bo_to_obj(bo_element(
        caterpillar(3), (0, 1, 2), (0, 1, 2, 3)))
    code, out = run(capsys, "w", "normalize", "--input", path)
    assert code == 0
    assert w_from_obj(json.loads(out)) == psi_inverse(psi(w))


def _w_compose_inputs(tmp_path):
    """Two trees that are not in normal form: a has a zero-length edge,
    b a unary shape root decorated by a corolla with swapped leaves."""
    w = psi_inverse(bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3),
                               {frozenset({1, 2}): F(1)}))
    a = WTree(w.shape, w.leaf_order, (F(0),), w.decorations)
    b = WTree(PlanarTree((corolla(2),)), (1, 0), (F(1, 2),),
              (OElement(corolla(2), (0,), (1, 0)),
               OElement(PlanarTree((corolla(1), ETA)), (1, 0), (0, 1))))
    return (write(tmp_path, "a.json", json.dumps(w_to_obj(a))),
            write(tmp_path, "b.json", json.dumps(w_to_obj(b))))


def test_w_compose_of_trees_not_in_normal_form(tmp_path, capsys):
    a, b = _w_compose_inputs(tmp_path)
    code, out = run(capsys, "w", "compose", "--lhs", a, "--slot", "2",
                    "--rhs", b)
    assert code == 0
    # the zero-length edge collapses, b's unary root merges, and b's two
    # vertices hang on an edge of length 1
    assert json.loads(out) == {
        "shape": {"node": ["leaf", "leaf", {"node": ["leaf", "leaf"]}]},
        "leaf_order": [1, 3, 4, 2],
        "lengths": ["1/1"],
        "decorations": [
            {"tree": {"node": [{"node": ["leaf", {"node": ["leaf", "leaf"]}]},
                               "leaf"]},
             "sigma": [1, 3, 2], "tau": [2, 3, 1, 4]},
            {"tree": {"node": [{"node": ["leaf"]}, "leaf"]},
             "sigma": [1, 2], "tau": [1, 2]}]}


@pytest.mark.parametrize("slot, lhs, message", [
    ("4", "a", "IndexError: input 4 out of range"),
    ("2", "b", "ValueError: color mismatch: input 2 wants 1, argument "
               "offers 2")], ids=["slot-out-of-range", "color-mismatch"])
def test_w_compose_that_does_not_fit_is_a_structured_error(
        tmp_path, capsys, slot, lhs, message):
    a, b = _w_compose_inputs(tmp_path)
    code, out = run(capsys, "w", "compose", "--lhs", {"a": a, "b": b}[lhs],
                    "--slot", slot, "--rhs", b)
    assert code == 2
    assert json.loads(out) == {"error": message}


def test_cacti_with_a_huge_lobe_count_is_invalid(tmp_path, capsys):
    bad = write(tmp_path, "bad.json",
                json.dumps({"k": 10 ** 20, "arcs": [["0", "1", 1]]}))
    message = "lobe 1 has length 1, expected 1/%d" % 10 ** 20
    code, out = run(capsys, "cacti", "validate", "--input", bad)
    assert code == 1
    assert json.loads(out) == {"valid": False, "error": message}
    for args in (["compose", "--lhs", bad, "--slot", "1", "--rhs", bad],
                 ["metric", "--lhs", bad, "--rhs", bad]):
        code, out = run(capsys, "cacti", *args)
        assert code == 2 and message in json.loads(out)["error"]


# a zero denominator, a float that JSON reads as an infinity, and a
# decimal exponent that would take seconds to expand
BAD_RATIONALS = [pytest.param('"1/0"', '"1/0"', id="zero-denominator"),
                 pytest.param("1e400", "Infinity", id="infinity"),
                 pytest.param('"1e-10000000"', '"1e-10000000"',
                              id="huge-exponent")]


def with_bad_rational(obj, token):
    "The JSON text of obj with its one 'BAD' string replaced by token."
    text = json.dumps(obj)
    assert text.count('"BAD"') == 1
    return text.replace('"BAD"', token)


@pytest.mark.parametrize("token, shown", BAD_RATIONALS)
def test_a_bad_rational_arc_end_is_a_structured_error(tmp_path, capsys,
                                                      token, shown):
    bad = write(tmp_path, "bad.json", with_bad_rational(
        {"k": 1, "arcs": [["0", "BAD", 1]]}, token))
    message = "expected a rational, got %s" % shown
    code, out = run(capsys, "cacti", "validate", "--input", bad)
    assert code == 1
    assert json.loads(out) == {"valid": False, "error": message}
    code, out = run(capsys, "cacti", "compose", "--lhs", bad,
                    "--slot", "1", "--rhs", bad)
    assert code == 2
    assert json.loads(out) == {"error": "%s: ValueError: %s" % (bad, message)}


@pytest.mark.parametrize("token, shown", BAD_RATIONALS)
def test_a_bad_rational_bracket_weight_is_a_structured_error(tmp_path, capsys,
                                                             token, shown):
    obj = bo_to_obj(bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3),
                               {frozenset({1, 2}): F(1, 2)}))
    obj["brackets"][0]["w"] = "BAD"
    ep = write(tmp_path, "e.json", with_bad_rational(obj, token))
    code, out = run(capsys, "bo", "compose", "--lhs", ep, "--slot", "1",
                    "--rhs", ep)
    assert code == 2
    assert json.loads(out) == {
        "error": "%s: ValueError: expected a rational, got %s" % (ep, shown)}


@pytest.mark.parametrize("token, shown", BAD_RATIONALS)
def test_a_bad_rational_edge_length_is_a_structured_error(tmp_path, capsys,
                                                          token, shown):
    obj = w_to_obj(psi_inverse(bo_element(
        caterpillar(3), (0, 1, 2), (0, 1, 2, 3), {frozenset({1, 2}): F(1)})))
    obj["lengths"][0] = "BAD"
    path = write(tmp_path, "w.json", with_bad_rational(obj, token))
    code, out = run(capsys, "w", "normalize", "--input", path)
    assert code == 2
    assert json.loads(out) == {
        "error": "%s: ValueError: expected a rational, got %s" % (path, shown)}


@pytest.mark.parametrize("token, shown", BAD_RATIONALS)
def test_a_bad_rational_thickened_weight_is_a_structured_error(
        tmp_path, capsys, token, shown):
    g = D.collapse_morphism(caterpillar(4), [{1, 2, 3}])
    obj = D.tilde_to_obj(D.OmegaTildeMorphism(
        g, [{}, {frozenset({1, 2}): F(1, 2)}]))
    obj["brackets"][1][0][1] = "BAD"
    path = write(tmp_path, "m.json", with_bad_rational(obj, token))
    code, out = run(capsys, "omega", "compose", "--lhs", path, "--rhs", path)
    assert code == 2
    assert json.loads(out) == {
        "error": "%s: ValueError: expected a rational, got %s" % (path, shown)}
