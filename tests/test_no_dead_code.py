"""Every definition in src/brackops/ is named somewhere outside its own
body, in src/, tests/ or bench/, and every imported name in src/ and
tests/ is used by the file that imports it.

A definition is a top-level function or class, a method or property, or
a module-level assignment; dunder names are exempt.  A name counts as
used when it appears as a name or attribute, or as a string that is a
(dotted) identifier, as in a getattr() or a table of names to wrap.
Import lines do not count as uses."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brackops"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]
IMPORTING = [ROOT / "src", ROOT / "tests"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_in(node):
    "Every name use under node, with multiplicity; imports excluded."
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _files(tops):
    return sorted(path for top in tops for path in top.rglob("*.py"))


def _used_names():
    used = Counter()
    for path in _files(SEARCHED):
        used += _names_in(_parse(path))
    return used


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned_names(stmt):
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, _parse(path).body


def _top_level_definitions():
    "(where, name, node) per top-level function and class."
    for mod, body in _modules():
        for stmt in body:
            if isinstance(stmt, DEFS):
                yield "%s:%s" % (mod, stmt.name), stmt.name, stmt


def _member_definitions():
    "(where, name, node) per method, property and module-level assignment."
    for mod, body in _modules():
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                for meth in stmt.body:
                    if isinstance(meth, DEFS[:2]):
                        yield ("%s:%s.%s" % (mod, stmt.name, meth.name),
                               meth.name, meth)
            for name in _assigned_names(stmt):
                yield "%s:%s" % (mod, name), name, stmt


def _unreferenced(definitions):
    used = _used_names()
    return [where for where, name, node in definitions
            if not _is_dunder(name) and used[name] <= _names_in(node)[name]]


def test_every_top_level_definition_is_referenced():
    dead = _unreferenced(_top_level_definitions())
    assert not dead, "unreferenced: " + ", ".join(dead)


def test_every_method_and_module_constant_is_referenced():
    dead = _unreferenced(_member_definitions())
    assert not dead, "unreferenced: " + ", ".join(dead)


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
