"""No case path leaves a reference cycle, so a case's temporaries die by
reference count instead of waiting for the cyclic collector.

A nested function that calls itself holds itself through its closure
cell: that cycle keeps every list and tree the call built alive until
the collector runs.  The static rule refuses such a function anywhere in
src/brackops; the run-time check makes one seeded batch of the calls a
case is made of with the collector off and finds no garbage after it."""

import ast
import gc
from fractions import Fraction
from pathlib import Path

from brackops import bo_action as BA
from brackops import bracketings as B
from brackops import dendroidal as D
from brackops import operads as OP
from brackops import randomgen as R
from brackops import trees as T
from brackops import wconstruction as W
from brackops.algebras import CactusAlgebra, TerminalAlgebra
from brackops.suites import _random_collapse, _random_tilde_chain, _shapes

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brackops"
THIRDS = (1, Fraction(2, 3), Fraction(1, 3))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_referring_nested_functions(source):
    "(outer, nested) names of each nested function naming itself."
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, FUNCS):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name
                   for n in ast.walk(inner)):
                found.append((outer.name, inner.name))
    return found


def test_the_static_rule_sees_a_recursive_closure():
    source = ("def f(xs):\n"
              "    def rec(v):\n"
              "        return [rec(c) for c in v]\n"
              "    return rec(xs)\n")
    assert _self_referring_nested_functions(source) == [("f", "rec")]


def test_no_nested_function_in_the_package_refers_to_itself():
    found = {path.name: _self_referring_nested_functions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def _bo(rng, tree):
    return R.random_bo_element(rng, weight_choices=THIRDS, tree=tree)


def _batch(rng):
    """Seeded inputs for every call of the batch; built before the
    collector is turned off."""
    guests = _shapes(3, 3)
    compositions = []
    for _ in range(30):
        x = _bo(rng, rng.choice(_shapes(4, 3)))
        i = rng.choice([i for i in range(1, x.arity + 1)
                        if x.slot_arity(i) <= 3])
        b = _bo(rng, rng.choice([t for t in guests
                                 if t.leaf_count == x.slot_arity(i)]))
        compositions.append((x, i, b))
    actions = []
    for _ in range(10):
        elem = _bo(rng, rng.choice(_shapes(3, 3, min_arity=1)))
        actions.append((elem, R.random_labelled_cacti(elem, rng)))
    chains = []
    for _ in range(10):
        tree, chain = T.caterpillar(rng.randint(4, 6)), []
        for _ in range(rng.randint(2, 3)):
            if tree.vertex_count < 2:
                break
            chain.append(_random_collapse(tree, rng))
            tree = chain[-1].source
        chains.append(chain[::-1])  # innermost first
    tildes = []
    for _ in range(10):
        F, G = _random_tilde_chain(rng, 2, base_vertices=4)
        target = G.base.target
        tildes.append((F, G, tuple(CactusAlgebra().sample(a, rng)
                                   for a in T.arities(target))))
    trees = [T.caterpillar(4), T.star(3), T.PlanarTree(
        (T.corolla(2), T.corolla(2), T.ETA))]
    return compositions, actions, chains, tildes, trees


def _run_batch(compositions, actions, chains, tildes, trees):
    for x, i, b in compositions:
        w = W.psi_inverse(x)
        assert W.psi(w) == x
        assert W.psi(W.compose_W(w, i, W.psi_inverse(b))) == \
            OP.compose_BO(x, i, b)
    for elem, xs in actions:
        BA.lam(elem, xs)
    for chain in chains:
        D.q_morphism(chain)
    for F, G, values in tildes:
        comp = D.compose_omega_tilde(G, F)
        D.phi_morphism(CactusAlgebra(), comp, values)
        D.phi_morphism(TerminalAlgebra(), comp,
                       ("*",) * comp.base.target.vertex_count)
    for tree in trees:
        B.enumerate_bracketings(tree)
        T.enumerate_subtrees(tree)
        assert D.isomorphisms(tree, tree)


def test_a_seeded_batch_of_case_calls_leaves_no_cyclic_garbage():
    inputs = _batch(R.rng_from_seed(5))
    gc.collect()
    gc.disable()
    try:
        _run_batch(*inputs)
        assert gc.collect() == 0
    finally:
        gc.enable()
