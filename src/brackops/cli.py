"""Command-line front end: enumeration, composition, verification
suites, figure export, and the recorded witnesses.

All output is deterministic for a fixed seed and configuration; exact
rationals are rendered as "p/q" strings throughout."""

import argparse
import json
import os
import re
import sys

from . import trees as T
from .trees import caterpillar, corolla, frac_to_str, star
from .bracketings import (check_enumeration_limit, enumerate_bracketings,
                          maximal_bracketings, nerve_statistics,
                          bracketing_to_obj)
from .operads import bo_from_obj, bo_to_obj, compose_BO
from .wconstruction import (w_from_obj, w_to_obj, normalize_W, compose_W,
                            psi)
from . import dendroidal as D
from .cacti import (cactus_from_obj, cactus_to_obj, cact1_compose,
                    cactus_metric)
from .plmaps import pl_to_obj
from . import bo_action
from .algebras import TerminalAlgebra
from .figures import FIGURES, figure_data, figure_svg
from .suites import SUITES, RunConfig, run_suite, nonassoc_witness


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj):
    sys.stdout.write(_dump(obj) + "\n")


class InputError(Exception):
    "Bad input on the command line or in an input file (exit code 2)."


def _load(path, parse=lambda obj: obj):
    "Read a JSON file and build an object from it with `parse`."
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            RecursionError) as exc:
        raise InputError("%s: %s: %s"
                         % (path, type(exc).__name__, exc)) from exc


def _apply(op, *args):
    "Run an operation; input that does not fit it is bad input (exit code 2)."
    try:
        return op(*args)
    except (ValueError, IndexError, RecursionError) as exc:
        raise InputError("%s: %s" % (type(exc).__name__, exc)) from exc


# an N above _SHORTHAND_MOST is refused before anything is built, since
# memory grows linearly in N; each builder refuses an N below its least
_SHORTHANDS = {"caterpillar": caterpillar, "star": star, "corolla": corolla}
_SHORTHAND_MOST = 10000


def _tree_from_arg(arg):
    """A tree argument: a JSON file path, or one of the shorthands
    caterpillar:N (N >= 1), star:N, corolla:N (N >= 0), N <= 10000."""
    kind, sep, rest = arg.partition(":")
    if sep and kind in _SHORTHANDS:
        # int() refuses over 4300 digits: read 5 past the leading zeros
        m = re.fullmatch("0*([0-9]{1,5})", rest)
        if not m or int(m[1]) > _SHORTHAND_MOST:
            raise InputError("%s:N needs an integer %d <= N <= %d, got %r"
                             % (kind, T.LEAST_COUNT[kind], _SHORTHAND_MOST,
                                rest))
        return _apply(_SHORTHANDS[kind], int(m[1]))
    return _load(arg, T.tree_from_obj)


# The file operations: (command, action) -> (reader, operation, writer,
# operands, help).  Each operand but --slot is a JSON file read by the
# reader, left to right; the operation takes them in that order.
_INPUT, _PAIR, _SLOT = ("input",), ("lhs", "rhs"), ("lhs", "slot", "rhs")
OPERATIONS = {
    ("bo", "compose"): (bo_from_obj, compose_BO, bo_to_obj, _SLOT, None),
    ("w", "normalize"): (w_from_obj, normalize_W, w_to_obj, _INPUT, None),
    ("w", "compose"): (w_from_obj, compose_W, w_to_obj, _SLOT, None),
    ("w", "psi"): (w_from_obj, psi, bo_to_obj, _INPUT, None),
    ("omega", "compose"): (D.tilde_from_obj, D.compose_omega_tilde,
                           D.tilde_to_obj, _PAIR,
                           "g o f: --lhs is the outer g, --rhs the inner f"),
    ("cacti", "compose"): (cactus_from_obj, cact1_compose, cactus_to_obj,
                           _SLOT, None),
    ("cacti", "metric"): (cactus_from_obj, cactus_metric,
                          lambda d: {"distance": frac_to_str(d)}, _PAIR, None),
}


# ---------------------------------------------------------------------------
# Subcommand handlers.

def cmd_brackets(args):
    # star:8 (9 vertices) takes seconds and prints 34 MB, star:9 minutes
    if args.limit > 9:
        raise InputError("limit must be at most 9, got %d" % args.limit)
    # the f-vector compares each pair of bracketings once: star:7 takes minutes
    if args.fvector and args.limit > 7:
        raise InputError("limit must be at most 7 with --fvector, got %d"
                         % args.limit)
    tree = _tree_from_arg(args.tree)
    _apply(check_enumeration_limit, tree, args.limit)
    if args.fvector:
        fvec, chi = nerve_statistics(tree)
        _emit({"tree": T.tree_to_obj(tree), "fvector": list(fvec),
               "chi": chi})
        return 0
    items = maximal_bracketings(tree) if args.max else enumerate_bracketings(tree)
    objs = sorted(bracketing_to_obj(b) for b in items)
    _emit({"tree": T.tree_to_obj(tree), "count": len(objs),
           "bracketings": objs})
    return 0


def cmd_operation(args):
    read, op, write, operands, _ = OPERATIONS[args.command, args.action]
    result = _apply(op, *[args.slot if name == "slot"
                          else _load(getattr(args, name), read)
                          for name in operands])
    # a writer refuses a number of over 4300 digits
    _emit(_apply(write, result))
    return 0


def cmd_omega(args):
    if args.action == "image":
        g = _load(args.input, D.morphism_from_obj)
        images = g.vertex_images
        _emit({"vertices": [sorted(s) for s in images],
               "corollas": [T.tree_to_obj(T.region(g.target, s)[0]) if s
                            else "eta" for s in images]})
        return 0
    tree = _tree_from_arg(args.tree)
    ok = _apply(D.segal_check, TerminalAlgebra(), tree,
                ("*",) * tree.vertex_count)
    _emit({"tree": T.tree_to_obj(tree), "segal": bool(ok)})
    return 0 if ok else 1


def cmd_cacti_validate(args):
    obj = _load(args.input)
    try:
        cactus_from_obj(obj)
    except (ValueError, KeyError, TypeError) as exc:
        _emit({"valid": False, "error": str(exc)})
        return 1
    _emit({"valid": True})
    return 0


def cmd_witness(args):
    w = nonassoc_witness()
    _emit({"x": cactus_to_obj(w["x"]), "y": cactus_to_obj(w["y"]),
           "z": cactus_to_obj(w["z"]),
           "left": cactus_to_obj(w["left"]),
           "right": cactus_to_obj(w["right"]),
           "distance": frac_to_str(w["distance"])})
    return 0


def cmd_bo_action(args):
    elem = _load(args.element, bo_from_obj)
    inputs = _load(args.inputs,
                   lambda objs: [cactus_from_obj(o) for o in objs])
    if not args.trace or elem.base.tree.is_eta:
        _emit({"result": cactus_to_obj(_apply(bo_action.lam, elem, inputs))})
        return 0
    result, ms, (brackets, gs, hs) = _apply(bo_action.lam_traced, elem,
                                            inputs)
    _emit({
        "result": cactus_to_obj(result),
        "trace": {
            "g": [pl_to_obj(g) for g in gs],
            "h": [pl_to_obj(h) for h in hs],
            "brackets": [sorted(b) for b in brackets],
            "ms": {"cactus": cactus_to_obj(ms.cactus),
                   "reparam": pl_to_obj(ms.reparam)},
        }})
    return 0


def cmd_verify(args):
    try:
        cfg = RunConfig(seed=args.seed, limit=args.limit, samples=args.samples)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = run_suite(args.suite, cfg)
    if args.json:
        _emit(report)
    else:
        for c in report["checks"]:
            line = "%s: %s (%d cases)" % (c["id"],
                                          "pass" if c["passed"] else "FAIL",
                                          c["count"])
            if not c["passed"]:
                line += " first counterexample: %s" % c["counterexample"]
            print(line)
        print("%s: %s" % (report["suite"],
                          "PASS" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


def cmd_figure(args):
    data = figure_data(args.name)
    jpath = os.path.join(args.out, args.name + ".json")
    spath = os.path.join(args.out, args.name + ".svg")
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(jpath, "w") as fh:
            fh.write(_dump(data) + "\n")
        with open(spath, "w") as fh:
            fh.write(figure_svg(data))
    except OSError as exc:
        raise InputError("%s: %s" % (type(exc).__name__, exc)) from exc
    print(jpath)
    print(spath)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

def _actions(sub, command, text):
    "The action subparsers of a command."
    return sub.add_parser(command, help=text).add_subparsers(
        dest="action", required=True)


def _add_operation(actions, command, action):
    "The subparser of one row of OPERATIONS."
    *_, operands, text = OPERATIONS[command, action]
    p = actions.add_parser(action, description=text)
    for name in operands:
        p.add_argument("--" + name, required=True,
                       type=int if name == "slot" else None)
    p.set_defaults(func=cmd_operation)


def build_parser():
    p = argparse.ArgumentParser(
        prog="brackops",
        description="Exact-arithmetic operads of bracketed trees and "
                    "normalized cacti.")
    sub = p.add_subparsers(dest="command", required=True)

    be = _actions(sub, "brackets", "bracketing enumeration").add_parser(
        "enumerate")
    be.add_argument("--tree", required=True,
                    help="tree JSON file or caterpillar:N / star:N / corolla:N")
    be.add_argument("--max", action="store_true",
                    help="only maximal bracketings")
    be.add_argument("--fvector", action="store_true",
                    help="f-vector and Euler characteristic instead")
    be.add_argument("--limit", type=int, default=7,
                    help="refuse trees with more vertices "
                         "(at most 9, or 7 with --fvector; default 7)")
    be.set_defaults(func=cmd_brackets)

    _add_operation(_actions(sub, "bo", "bracketed-tree operad"), "bo",
                   "compose")

    ws = _actions(sub, "w", "edge-length trees")
    for action in ("normalize", "compose", "psi"):
        _add_operation(ws, "w", action)

    oms = _actions(sub, "omega", "tree-category morphisms")
    _add_operation(oms, "omega", "compose")
    omi = oms.add_parser("image")
    omi.add_argument("--input", required=True)
    omi.set_defaults(func=cmd_omega)
    omg = oms.add_parser("segal")
    omg.add_argument("--tree", required=True)
    omg.set_defaults(func=cmd_omega)

    cs = _actions(sub, "cacti", "normalized cacti")
    _add_operation(cs, "cacti", "compose")
    cv = cs.add_parser("validate")
    cv.add_argument("--input", required=True)
    cv.set_defaults(func=cmd_cacti_validate)
    _add_operation(cs, "cacti", "metric")

    bae = _actions(sub, "bo-action", "the action on cacti").add_parser("eval")
    bae.add_argument("--element", required=True)
    bae.add_argument("--inputs", required=True)
    bae.add_argument("--trace", action="store_true",
                     help="emit the intermediate scaling maps")
    bae.set_defaults(func=cmd_bo_action)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--limit", type=int, default=6,
                   help="largest tree the Euler suite enumerates "
                        "(1 to 7, default 6)")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--json", action="store_true",
                   help="full JSON report instead of a summary")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("figure", help="export figure data")
    f.add_argument("name", choices=sorted(FIGURES))
    f.add_argument("--out", default=".")
    f.set_defaults(func=cmd_figure)

    wi = sub.add_parser("witness", help="recorded counterexamples")
    wi.add_argument("name", choices=["nonassoc"])
    wi.set_defaults(func=cmd_witness)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _emit({"error": str(exc)})
        return 2
    except RecursionError as exc:
        # a tree read and checked, but too deep for the writers
        _emit({"error": "RecursionError: %s" % exc})
        return 2


if __name__ == "__main__":
    sys.exit(main())
