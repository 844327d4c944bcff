"""Every top-level function and class in src/brackops/ is named somewhere
in src/, tests/ or bench/.  A name counts as used when it appears as a
name or attribute, or as a string that is a (dotted) identifier, as in a
getattr() or a table of names to wrap.  Uses inside the definition's own
body and import lines do not count."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brackops"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_in(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names():
    used = set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for stmt in _parse(path).body:
                names = _names_in(stmt)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.discard(stmt.name)
                used |= names
    return used


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield "%s:%s" % (path.name, stmt.name), stmt.name


def test_every_top_level_definition_is_referenced():
    used = _used_names()
    dead = [where for where, name in _definitions() if name not in used]
    assert not dead, "unreferenced: " + ", ".join(dead)
