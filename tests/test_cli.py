import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from brackops import bo_action, figures, suites
from brackops import dendroidal as D
from brackops import trees as T
from brackops import cli
from brackops.cli import build_parser, main
from brackops.trees import ETA, PlanarTree, caterpillar, corolla
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


def test_a_distance_too_long_to_write_is_a_structured_error(tmp_path,
                                                           capsys):
    # cuts at 1/(3p) with coprime p of 3001 digits: the distance's
    # denominator is longer than int's 4300-digit limit for str()
    paths = []
    for n, p in enumerate([10 ** 3000 + 3, 10 ** 3000 + 7]):
        s = F(1, 3 * p)
        x = Cactus(2, [(0, s, 1), (s, s + F(1, 2), 2), (s + F(1, 2), 1, 1)])
        paths.append(write(tmp_path, "x%d.json" % n,
                           json.dumps(cactus_to_obj(x))))
    code, out = run(capsys, "cacti", "metric", "--lhs", paths[0],
                    "--rhs", paths[1])
    assert code == 2
    assert json.loads(out)["error"].startswith("ValueError: Exceeds the limit")


@pytest.mark.parametrize("tree, inputs, vertex", [
    (corolla(0), [EMPTY_CACTUS], 0),
    (PlanarTree((corolla(0), ETA)),
     [Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)]), EMPTY_CACTUS], 1)])
def test_bo_action_on_a_nullary_vertex_is_a_structured_error(
        tmp_path, capsys, tree, inputs, vertex):
    e = bo_element(tree, tuple(range(len(inputs))),
                   tuple(range(tree.leaf_count)))
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


def test_enumeration_limit_above_9_is_a_structured_error(capsys):
    # star:9 (10 vertices) would enumerate for minutes; the limit is
    # refused before the tree is read
    code, out = run(capsys, "brackets", "enumerate", "--tree", "corolla:1",
                    "--limit", "10")
    assert code == 2
    assert json.loads(out) == {"error": "limit must be at most 9, got 10"}


def test_fvector_limit_above_7_is_a_structured_error(capsys):
    # the f-vector of star:7 (8 vertices) takes minutes; the limit is
    # refused before the tree is read
    code, out = run(capsys, "brackets", "enumerate", "--tree", "corolla:1",
                    "--fvector", "--limit", "8")
    assert code == 2
    assert json.loads(out) == {
        "error": "limit must be at most 7 with --fvector, got 8"}


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


def test_verify_reports_a_round_trip_that_raises(capsys, monkeypatch):
    # the round trips are cases of psi/roundtrip-bracketed, not set-up
    # of the suite, so the later checks still run
    calls = []
    real = suites.psi_inverse

    def broken(x):
        calls.append(x)
        if len(calls) == 500:
            raise ValueError("broken on purpose")
        return real(x)

    monkeypatch.setattr(suites, "psi_inverse", broken)
    code, out = run(capsys, "verify", "psi-roundtrip", "--samples", "20",
                    "--json")
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["psi/roundtrip-bracketed"]["counterexample"] == (
        "case 250 raised ValueError: broken on purpose")
    # the normal-form check still runs over the whole pool, and fails
    # from the shape whose round trip raised
    normal_form = checks["psi/roundtrip-normal-form"]
    assert normal_form["count"] == 40288
    assert normal_form["passed"] is False
    assert normal_form["counterexample"].startswith("the round trip of ")
    assert normal_form["counterexample"].endswith(" did not finish")
    assert checks["psi/operad-map"]["passed"] is True
    assert checks["psi/operad-map"]["count"] > 0


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


def test_omega_compose_prints_the_thickened_composite(tmp_path, capsys):
    tree = caterpillar(6)
    g = D.collapse_morphism(tree, [{1, 2, 3}])
    inc = D.subtree_inclusion(g.source, {0, 1, 2})
    f = D.compose_omega(inc, D.collapse_morphism(inc.source, [{0, 1, 2}]))
    G = D.OmegaTildeMorphism(g, [{}, {frozenset({2, 3}): F(1, 2)}, {}, {}])
    Fm = D.OmegaTildeMorphism(f, [{frozenset({1, 2}): F(1, 3)}])
    lhs = write(tmp_path, "g.json", json.dumps(D.tilde_to_obj(G)))
    rhs = write(tmp_path, "f.json", json.dumps(D.tilde_to_obj(Fm)))
    code, out = run(capsys, "omega", "compose", "--lhs", lhs, "--rhs", rhs)
    assert code == 0
    assert json.loads(out) == D.tilde_to_obj(D.compose_omega_tilde(G, Fm))


@pytest.mark.parametrize("build, vertices", [
    (lambda: D.collapse_morphism(caterpillar(4), [{1, 2}]), [[0], [1, 2], [3]]),
    # a degeneracy of the unary vertex, then a collapse onto the root
    (lambda: D.compose_omega(
        D.collapse_morphism(PlanarTree((corolla(2),)), [{0, 1}]),
        D.degeneracy(PlanarTree((PlanarTree((ETA,)), ETA)), 1)),
     [[0, 1], []]),
])
def test_omega_image_prints_the_vertex_images_and_their_corollas(
        tmp_path, capsys, build, vertices):
    g = build()
    path = write(tmp_path, "g.json", json.dumps(D.morphism_to_obj(g)))
    code, out = run(capsys, "omega", "image", "--input", path)
    assert code == 0
    assert json.loads(out) == {
        "vertices": vertices,
        "corollas": [T.tree_to_obj(T.region(g.target, set(s))[0]) if s
                     else "eta" for s in vertices]}


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
    assert json.loads(out)["error"].endswith(
        'ValueError: expected an edge ["leaf" or "out", int], got ["out"]')


# each end of an edge entry is read by one reader, which names it
@pytest.mark.parametrize("end", [0, 1], ids=["source", "target"])
@pytest.mark.parametrize("edge", [{"out": 0}, 0, ["out"]],
                         ids=["dict", "int", "short"])
def test_omega_compose_refuses_an_edge_that_is_no_pair(tmp_path, capsys,
                                                       end, edge):
    obj = D.tilde_to_obj(D.OmegaTildeMorphism(
        D.collapse_morphism(caterpillar(3), [{1, 2}])))
    obj["edges"][0][end] = edge
    path = write(tmp_path, "m.json", json.dumps(obj))
    code, out = run(capsys, "omega", "compose", "--lhs", path, "--rhs", path)
    assert code == 2
    assert json.loads(out) == {
        "error": '%s: ValueError: expected an edge ["leaf" or "out", int], '
                 'got %s' % (path, json.dumps(edge))}


def _set_in(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# every field of a thickened morphism's file that is not of its shape is
# refused by name: `expected <what the field holds>, got <the field>`
@pytest.mark.parametrize("action, path, value, expected", [
    ("image", ("edges", 0), [["out", 0]], "an edge pair [edge, edge]"),
    ("image", ("edges",), {"a": 1}, "a list of edge pairs"),
    ("image", ("vertices", 0), 0, "a list of vertex ids"),
    ("image", ("vertices", 0), {"a": 0}, "a list of vertex ids"),
    ("image", ("vertices",), 3, "a list of vertex images"),
    ("compose", ("brackets", 1), {"a": 1},
     "a list of [vertices, weight] pairs"),
    ("compose", ("brackets", 1), 5, "a list of [vertices, weight] pairs"),
    ("compose", ("brackets", 1, 0), [[1, 2]], "a [vertices, weight] pair"),
    ("compose", ("brackets", 1, 0), {"v": [1, 2]},
     "a [vertices, weight] pair"),
    ("compose", ("brackets", 1, 0, 0), 1, "a list of vertex ids"),
    ("compose", ("brackets",), {"a": 1}, "a list of bracket families"),
], ids=["edge-entry", "edges", "vertices-int", "vertices-dict", "vertices",
        "family-dict", "family-int", "bracket-short", "bracket-dict",
        "bracket-vertices", "brackets"])
def test_omega_refuses_a_field_of_the_wrong_shape_by_name(
        tmp_path, capsys, action, path, value, expected):
    obj = D.tilde_to_obj(D.OmegaTildeMorphism(
        D.collapse_morphism(caterpillar(4), [{1, 2, 3}]),
        [{}, {frozenset({1, 2}): F(1, 2)}]))
    _set_in(obj, path, value)
    m = write(tmp_path, "m.json", json.dumps(obj))
    args = ["--input", m] if action == "image" else ["--lhs", m, "--rhs", m]
    code, out = run(capsys, "omega", action, *args)
    assert code == 2
    assert json.loads(out) == {"error": "%s: ValueError: expected %s, got %s"
                               % (m, expected, json.dumps(value))}


def test_omega_image_of_an_edge_listed_twice_is_a_structured_error(
        tmp_path, capsys):
    obj = D.morphism_to_obj(D.identity_omega(caterpillar(2)))
    obj["edges"].insert(0, [["out", 0], ["out", 1]])
    g = write(tmp_path, "g.json", json.dumps(obj))
    code, out = run(capsys, "omega", "image", "--input", g)
    assert code == 2
    assert "('out', 0) is listed twice" in json.loads(out)["error"]


@pytest.mark.parametrize("node", ['{"leaf": 0}', '""', "{}"])
def test_a_tree_whose_node_is_not_a_list_is_a_structured_error(
        tmp_path, capsys, node):
    tree = write(tmp_path, "t.json", '{"node": %s}' % node)
    code, out = run(capsys, "omega", "segal", "--tree", tree)
    assert code == 2
    assert "malformed tree object" in json.loads(out)["error"]


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


def outputs_under_two_hash_seeds(*argv):
    "The CLI's standard output in fresh interpreters with hash seeds 0 and 1."
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "brackops.cli", *argv],
                              env=env, capture_output=True, timeout=60,
                              check=True)
        outs.append(proc.stdout)
    return outs


@pytest.mark.parametrize("suite", ["omega-tilde", "nerve"])
def test_verify_output_does_not_depend_on_the_hash_seed(suite):
    # trees hash by identity and strings by the hash seed: neither may
    # order anything a report shows
    outs = outputs_under_two_hash_seeds("verify", suite, "--samples", "100",
                                        "--json")
    assert outs[0] == outs[1] and json.loads(outs[0])["passed"] is True


@pytest.mark.parametrize("action", ["normalize", "compose"])
def test_w_output_does_not_depend_on_the_hash_seed(tmp_path, action):
    # the normal form's JSON shows the representative psi_inverse picks,
    # which the hash seed may not move either
    a, b = _w_compose_inputs(tmp_path)
    argv = {"normalize": ["--input", a],
            "compose": ["--lhs", a, "--slot", "2", "--rhs", b]}[action]
    outs = outputs_under_two_hash_seeds("w", action, *argv)
    assert outs[0] == outs[1]
    assert w_from_obj(json.loads(outs[0])).decorations


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


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_figure_lines_join_neighbours_on_the_circle(tmp_path, capsys, name):
    # the polygon is drawn without crossings: every line joins two dots
    # next to each other in the order round the circle
    run(capsys, "figure", name, "--out", str(tmp_path))
    svg = (tmp_path / (name + ".svg")).read_text()
    num = r'"(-?[0-9.]+)"'
    dots = [(float(x), float(y)) for x, y in re.findall(
        "<circle cx=%s cy=%s" % (num, num), svg)]
    lines = [tuple(map(float, m)) for m in re.findall(
        "<line x1=%s y1=%s x2=%s y2=%s" % (num, num, num, num), svg)]
    n = len(dots)
    round_order = sorted(dots, key=lambda d: math.atan2(d[1] - 150,
                                                        d[0] - 150))
    rank = {d: k for k, d in enumerate(round_order)}
    assert n == {"pentagon": 5, "hexagon": 6}[name] == len(lines)
    for x1, y1, x2, y2 in lines:
        assert (rank[x1, y1] - rank[x2, y2]) % n in (1, n - 1)


def test_every_lattice_edge_has_two_endpoints():
    # the associahedron K5 of caterpillar(5): its edges are the 21
    # bracketings with nv - 3 = 2 brackets
    data = figures._lattice(caterpillar(5), "k5")
    assert (len(data["vertices"]), len(data["edges"])) == (14, 21)
    assert all(len(e["endpoints"]) == 2 for e in data["edges"])


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
    # vertices hang on an edge of length 1, at the slot of their root
    assert json.loads(out) == {
        "shape": {"node": ["leaf", {"node": ["leaf", "leaf"]}, "leaf"]},
        "leaf_order": [1, 2, 3, 4],
        "lengths": ["1/1"],
        "decorations": [
            {"tree": {"node": [{"node": ["leaf", {"node": ["leaf", "leaf"]}]},
                               "leaf"]},
             "sigma": [1, 2, 3], "tau": [2, 3, 1, 4]},
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


# a zero denominator, a float that JSON reads as an infinity, a float
# (Fraction would read it at its binary value), null, and a decimal
# exponent that would take seconds to expand
BAD_RATIONALS = [pytest.param('"1/0"', '"1/0"', id="zero-denominator"),
                 pytest.param("1e400", "Infinity", id="infinity"),
                 pytest.param("0.1", "0.1", id="float"),
                 pytest.param("null", "null", id="null"),
                 pytest.param('"1e-10000000"', '"1e-10000000"',
                              id="huge-exponent"),
                 pytest.param("true", "true", id="bool"),
                 # int() refuses a part of over 4300 digits
                 pytest.param('"1/%s"' % ("3" * 5000), '"1/%s"' % ("3" * 5000),
                              id="over-4300-digits")]


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


def leaf_parsers(parser, path=()):
    "(subcommand path, parser) for every parser with no subcommands below."
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for a in subs:
        for name, sub in a.choices.items():
            yield from leaf_parsers(sub, path + (name,))


def test_every_leaf_subcommand_has_a_handler():
    leaves = dict(leaf_parsers(build_parser()))
    assert len(leaves) == 15
    for path, parser in leaves.items():
        assert callable(parser.get_default("func")), path
    # every row of the operations table, and nothing else, runs through
    # the one handler of the table
    assert {path for path, parser in leaves.items()
            if parser.get_default("func") is cli.cmd_operation} == set(
                cli.OPERATIONS)


def operation_argv(row, lhs, rhs=None):
    """The argv of a row of the operations table: every file operand is
    lhs, but --rhs is rhs if that is given."""
    argv = list(row)
    for name in cli.OPERATIONS[row][3]:
        argv += ["--" + name, {"slot": "1", "rhs": rhs or lhs}.get(name, lhs)]
    return argv


@pytest.mark.parametrize("contents, kind", [(None, "FileNotFoundError"),
                                            ("not json", "JSONDecodeError")],
                         ids=["unreadable", "not-json"])
@pytest.mark.parametrize("row", sorted(cli.OPERATIONS), ids="-".join)
def test_a_bad_operand_of_each_operation_is_a_structured_error(
        tmp_path, capsys, row, contents, kind):
    path = tmp_path / "operand.json"
    if contents is not None:
        path.write_text(contents)
    code, out = run(capsys, *operation_argv(row, str(path)))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
    assert json.loads(lines[0])["error"].startswith("%s: %s: " % (path, kind))


@pytest.mark.parametrize("row", [row for row in sorted(cli.OPERATIONS)
                                 if "lhs" in cli.OPERATIONS[row][3]],
                         ids="-".join)
def test_each_operation_reads_its_lhs_first(tmp_path, capsys, row):
    lhs = str(tmp_path / "missing.json")
    rhs = write(tmp_path, "rhs.json", "not json")
    code, out = run(capsys, *operation_argv(row, lhs, rhs))
    assert code == 2
    assert json.loads(out)["error"].startswith(lhs + ": FileNotFoundError: ")


def test_caterpillar_0_is_refused_by_the_builder(capsys):
    code, out = run(capsys, "brackets", "enumerate", "--tree", "caterpillar:0")
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError: caterpillar needs an int count >= 1, got 0"}


def test_a_shorthand_count_too_long_for_int_is_a_structured_error(capsys):
    # int() refuses a string of more than 4300 digits
    rest = "1" * 5000
    code, out = run(capsys, "brackets", "enumerate", "--tree",
                    "caterpillar:" + rest)
    assert code == 2
    assert json.loads(out) == {
        "error": "caterpillar:N needs an integer 1 <= N <= 10000, got %r"
                 % rest}


@pytest.mark.parametrize("rest", ["0003", pytest.param("0" * 5000 + "3",
                                                      id="5000-zeros-3")])
def test_a_shorthand_count_may_have_leading_zeros(capsys, rest):
    code, out = run(capsys, "brackets", "enumerate", "--tree",
                    "caterpillar:" + rest, "--max")
    assert code == 0
    assert json.loads(out)["tree"] == T.tree_to_obj(caterpillar(3))
