"""Every top-level definition in src/brackops/ is used by the program:
named somewhere outside its own body in src/ or bench/, not only by a
test, except the few in TESTED_ONLY, kept on purpose.  Of the rest,
the ones that only bench/ uses are exactly those in BENCH_ONLY.  Every method,
property and module constant is named in src/, tests/ or bench/, and
every imported name in src/ and tests/ is used by the file that
imports it.

A definition is a top-level function or class, a method or property, or
a module-level assignment; dunder names are exempt.  A name counts as
used when it appears as an attribute, or as a string that is a (dotted)
identifier, as in a getattr() or a table of names to wrap.  A bare name
counts too, unless an enclosing function binds it (as a parameter, a
local or a nested def), and except for a method or property, which a
local variable of the same name must not keep alive.  Import lines do
not count as uses.

Every parameter default of such a function or method is overridden by
some call of that name in src/, tests/ or bench/: one that passes the
parameter by keyword or by position, or passes *args or **kwargs.

No top-level function in src/brackops/ only reads an attribute of a
parameter (its whole body, docstring aside, `return param.attr`): the
caller reads the attribute itself, so its owner stays the one name."""

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brackops"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]
PROGRAM = [ROOT / "src", ROOT / "bench"]
IMPORTING = [ROOT / "src", ROOT / "tests"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_in(node, bare=True):
    """Every name use under node, with multiplicity; imports excluded,
    and bare names too unless `bare`."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    if bare:
        _count_free_names(node, frozenset(), out)
    return out


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
NESTED = SCOPES + (ast.ClassDef,)


def _bound_in(func):
    """The names a function binds: its parameters, the names it assigns
    and its nested defs and classes, less those it declares global."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    declared = set()
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, NESTED):
            if not isinstance(node, ast.Lambda):
                bound.add(node.name)
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _count_free_names(node, bound, out):
    "Count the bare names under node that no enclosing function binds."
    if isinstance(node, SCOPES):
        bound = bound | _bound_in(node)
    elif isinstance(node, ast.Name) and node.id not in bound:
        out[node.id] += 1
    for child in ast.iter_child_nodes(node):
        _count_free_names(child, bound, out)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _files(tops):
    return sorted(path for top in tops for path in top.rglob("*.py"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned_names(stmt):
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


# Top-level definitions only tests call, each kept for one reason.
TESTED_ONLY = {
    # the inverse of cactus_map: it shows that cactus_map is injective,
    # which is why coend/ms-compose-pointwise compares embeddings
    "cacti.py:cactus_from_maps",
    # the generators of Omega, whose identities the tests check
    "dendroidal.py:inner_face",
    "dendroidal.py:outer_face",
    "dendroidal.py:degeneracy",
    "dendroidal.py:isomorphisms",
}

# Top-level definitions only the benchmark and the tests use: bench/
# pins their names, so they go when the benchmark changes
BENCH_ONLY = {
    "algebras.py:EndoAlgebra",
    "bo_action.py:augment",
    "operads.py:bo_element",
    "trees.py:collapse_with_map",
    "trees.py:restrict_with_map",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, _parse(path).body


def _top_level_definitions(modules):
    "(where, name, node) per top-level function and class."
    for mod, body in modules:
        for stmt in body:
            if isinstance(stmt, DEFS):
                yield "%s:%s" % (mod, stmt.name), stmt.name, stmt


def _methods(modules):
    "(where, name, node) per method and property."
    for mod, body in modules:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                for meth in stmt.body:
                    if isinstance(meth, DEFS[:2]):
                        yield ("%s:%s.%s" % (mod, stmt.name, meth.name),
                               meth.name, meth)


def _module_constants(modules):
    "(where, name, node) per module-level assignment."
    for mod, body in modules:
        for stmt in body:
            for name in _assigned_names(stmt):
                yield "%s:%s" % (mod, name), name, stmt


def _unreferenced(definitions, sources, bare=True):
    """The definitions whose name the parsed sources use no more often
    than their own body does; bare names count only when `bare`."""
    used = Counter()
    for tree in sources:
        used += _names_in(tree, bare)
    return [where for where, name, node in definitions
            if not _is_dunder(name)
            and used[name] <= _names_in(node, bare)[name]]


def _searched(tops=SEARCHED):
    return [_parse(path) for path in _files(tops)]


def test_every_top_level_definition_is_referenced():
    dead = set(_unreferenced(_top_level_definitions(_modules()),
                             _searched(PROGRAM)))
    assert not dead - TESTED_ONLY, (
        "unreferenced by src/ and bench/: " + ", ".join(sorted(dead - TESTED_ONLY)))
    assert not TESTED_ONLY - dead, (
        "used by the program, not only by tests: "
        + ", ".join(sorted(TESTED_ONLY - dead)))


def test_the_bench_only_definitions_are_the_listed_ones():
    dead = set(_unreferenced(_top_level_definitions(_modules()),
                             _searched([ROOT / "src"])))
    assert dead - TESTED_ONLY == BENCH_ONLY


def test_every_method_and_module_constant_is_referenced():
    sources = _searched()
    dead = (_unreferenced(_methods(_modules()), sources, bare=False)
            + _unreferenced(_module_constants(_modules()), sources))
    assert not dead, "unreferenced: " + ", ".join(dead)


def test_a_local_variable_does_not_keep_a_method_alive():
    module = ast.parse(textwrap.dedent("""
        class Box:
            def size(self):
                return 1

            def used(self):
                return 2

        def measure(box):
            size = box.used()
            return size

        size = measure(Box())
    """))
    methods = list(_methods([("box.py", module.body)]))
    assert _unreferenced(methods, [module], bare=False) == ["box.py:Box.size"]
    # counting bare names, the module variable hides the dead method
    assert _unreferenced(methods, [module]) == []


def test_a_parameter_or_local_def_does_not_keep_a_function_alive():
    module = ast.parse(textwrap.dedent("""
        def graft(a, b):
            return a + b

        def used():
            return 1

        def fold(value, graft):
            def rec():
                return graft(value, used())
            return rec()

        def project():
            def graft(a, b):
                return a
            return fold(1, graft)

        RESULT = project()
    """))
    defs = list(_top_level_definitions([("nest.py", module.body)]))
    assert _unreferenced(defs, [module]) == ["nest.py:graft"]


def _defaults(modules):
    """(where, call name, parameter, position) per parameter with a
    default; position counts the call's own arguments, so it skips a
    method's self and is None for a keyword-only parameter.  An __init__
    is called by its class name."""
    funcs = [(where, name, node, 0)
             for where, name, node in _top_level_definitions(modules)
             if not isinstance(node, ast.ClassDef)]
    for where, name, node in _methods(modules):
        cls = where.split(":")[1].split(".")[0]
        funcs.append((where, cls if name == "__init__" else name, node, 1))
    for where, name, node, skip in funcs:
        args = node.args
        params = args.posonlyargs + args.args
        first = len(params) - len(args.defaults)
        for pos in range(first, len(params)):
            yield where, name, params[pos].arg, pos - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield where, name, arg.arg, None


def _overrides(call, param, pos):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return pos is not None and len(call.args) > pos


def test_every_default_is_overridden_somewhere():
    calls = {}
    for tree in _searched():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    fixed = ["%s(%s)" % (where, param)
             for where, name, param, pos in _defaults(_modules())
             if not any(_overrides(call, param, pos)
                        for call in calls.get(name, ()))]
    assert not fixed, "defaults nothing overrides: " + ", ".join(fixed)


def test_every_imported_name_is_used():
    unused = []
    for path in _files(IMPORTING):
        tree = _parse(path)
        used = _names_in(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if not used[bound]:
                        unused.append("%s:%s" % (path.relative_to(ROOT), bound))
    assert not unused, "imported but unused: " + ", ".join(unused)


def _attribute_wrappers(modules):
    """The top-level functions whose whole body, docstring aside, is
    `return <parameter>.<attribute>`."""
    out = []
    for where, _, node in _top_level_definitions(modules):
        if isinstance(node, ast.ClassDef):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        params = {a.arg for a in node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs}
        if (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Attribute)
                and isinstance(body[0].value.value, ast.Name)
                and body[0].value.value.id in params):
            out.append(where)
    return out


def test_no_function_only_reads_an_attribute_of_a_parameter():
    wrappers = _attribute_wrappers(_modules())
    assert not wrappers, ("read the attribute at the call instead: "
                          + ", ".join(wrappers))


def test_the_attribute_wrapper_rule():
    module = ast.parse(textwrap.dedent("""
        def size(tree):
            "The vertex count."
            return tree.vertex_count

        def arity(idx, v):
            return idx.arity

        def first(tree):
            return tree.children[0]

        def eta():
            return ETA.leaf_count

        def count(tree):
            n = tree.vertex_count
            return n
    """))
    assert _attribute_wrappers([("w.py", module.body)]) == [
        "w.py:size", "w.py:arity"]


# The derived constructors: private builders of a value a library
# operation derived from already checked values, which skip checks of
# the value's public constructor.
DERIVED = {"_from_arcs", "_labelled", "_set_fields", "_substitute",
           "_tilde_in_order", "_weighted_in_order"}

# Every place in src/ that builds a value around its public constructor:
# a derived constructor, or a function (or method) holding an
# object.__new__(C) or C.__new__(C) call or calling a derived
# constructor; each with the reason it may.
BYPASSES = {
    "bracketings.py:_weighted_in_order":
        "derived families are put in canonical order, not checked again",
    "cacti.py:_from_arcs":
        "integer arcs of a derived cactus: _set checks them, only the "
        "Fraction reading of Cactus() is skipped",
    "cacti.py:gamma_cact1": "builds its composite's integer arcs",
    "cacti.py:ms_compose": "builds its composite's integer arcs",
    "cacti.py:relabel_cactus": "relabels the arcs of a checked cactus",
    "dendroidal.py:OmegaMorphism.__init__":
        "fills its slots through _set_fields after its own checks",
    "dendroidal.py:_set_fields":
        "fills the slots of a morphism known to be one",
    "dendroidal.py:compose_omega": "a composite of morphisms is one",
    "dendroidal.py:_tilde_in_order":
        "derived families are put in canonical order, not checked again",
    "dendroidal.py:compose_omega_tilde":
        "merges the checked families of its factors",
    "dendroidal.py:q_morphism":
        "corolla images are connected, nested, and filtered to large "
        "proper sets",
    "dendroidal.py:phi_morphism":
        "relabels checked brackets and exits by the increasing old ids",
    "operads.py:_labelled":
        "derived labellings are tuples already known to be labellings",
    "operads.py:compose_O_with_maps":
        "the factors' checked labellings, carried by the vertex maps",
    "operads.py:compose_BO":
        "transported checked brackets, filtered to large proper sets",
    "trees.py:PlanarTree.__new__":
        "hash-consing: every tree is made here, after its children check",
    "trees.py:_Eta.__new__": "the one vertexless tree",
    "trees.py:_substitute": "a tau already known to fit the vertex",
    "trees.py:substitute_with_maps": "calls _substitute after its checks",
    "wconstruction.py:project_with_provenance":
        "the splice's labellings of checked decorations",
}


def _functions(modules):
    "(where, node) per top-level function and per method."
    for where, _, node in _top_level_definitions(modules):
        if not isinstance(node, ast.ClassDef):
            yield where, node
    for where, _, node in _methods(modules):
        yield where, node


def _bypasses(modules, derived):
    """The functions and methods that are a derived constructor, hold a
    `__new__` call, or call a derived constructor by name."""
    found = set()
    for where, node in _functions(modules):
        if node.name in derived:
            found.add(where)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "__new__" or name in derived:
                found.add(where)
    return found


def _readers_and_cli(found):
    return sorted(where for where in found
                  if where.startswith("cli.py:") or where.endswith("_from_obj"))


def test_every_constructor_bypass_is_listed_with_a_reason():
    found = _bypasses(list(_modules()), DERIVED)
    assert found == set(BYPASSES), (
        "unlisted: %s; listed but no bypass: %s"
        % (sorted(found - set(BYPASSES)), sorted(set(BYPASSES) - found)))
    assert all(BYPASSES.values())
    assert {where.split(":")[1] for where in found} >= DERIVED
    # outside input is always checked
    assert _readers_and_cli(found) == []


def test_the_constructor_bypass_rule():
    module = ast.parse(textwrap.dedent("""
        class Box:
            def __init__(self, n):
                self.n = check(n)

        def _boxed(n):
            box = object.__new__(Box)
            box.n = n
            return box

        def double(box):
            return _boxed(2 * box.n)

        def copy(box):
            return Box.__new__(Box)

        def box_from_obj(obj):
            return _boxed(obj["n"])

        def box_to_obj(box):
            return {"n": box.n}
    """))
    found = _bypasses([("box.py", module.body)], {"_boxed"})
    assert found == {"box.py:_boxed", "box.py:double", "box.py:copy",
                     "box.py:box_from_obj"}
    assert _readers_and_cli(found) == ["box.py:box_from_obj"]
