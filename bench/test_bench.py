"""Tests of the benchmark's own checks: each passes on real brackops
output and fails on a corrupted copy of it.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction as F
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from brackops import bracketings as B  # noqa: E402
from brackops.algebras import EndoAlgebra, TerminalAlgebra  # noqa: E402
from brackops import cacti as C  # noqa: E402
from brackops import dendroidal as D  # noqa: E402
from brackops import operads as OP  # noqa: E402
from brackops import trees as T  # noqa: E402
from brackops import wconstruction as W  # noqa: E402

import calibrate  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def cactus(k, arcs):
    "A cactus-shaped record that brackops never validated."
    return SimpleNamespace(k=k, arcs=tuple((F(a), F(b), lab) for a, b, lab in arcs))


class ClosedForms(unittest.TestCase):
    def test_sequences(self):
        self.assertEqual([O.little_schroeder(n) for n in range(8)],
                         [1, 1, 3, 11, 45, 197, 903, 4279])
        self.assertEqual([O.catalan(n) for n in range(6)], [1, 1, 2, 5, 14, 42])
        self.assertEqual([O.ordered_bell(n) for n in range(6)],
                         [1, 1, 3, 13, 75, 541])

    def test_counts_pass_and_fail(self):
        cat = B.enumerate_bracketings(T.caterpillar(5))
        self.assertIsNone(O.bracketing_count_problem("caterpillar", 5, False, cat))
        self.assertIsNotNone(
            O.bracketing_count_problem("caterpillar", 5, False, cat[1:]))
        self.assertIsNotNone(O.bracketing_count_problem(
            "caterpillar", 5, False, cat[:-1] + cat[:1]))
        top = B.maximal_bracketings(T.star(3))
        self.assertIsNone(O.bracketing_count_problem("star", 3, True, top))
        # right count, but one entry is not maximal
        wrong = top[:-1] + [B.enumerate_bracketings(T.star(3))[1]]
        self.assertIsNotNone(O.bracketing_count_problem("star", 3, True, wrong))


class Cacti(unittest.TestCase):
    def test_validator(self):
        good = C.cact1_compose(C.unit_cactus(), 1,
                               C.Cactus(2, [(0, F(1, 2), 1), (F(1, 2), 1, 2)]))
        self.assertIsNone(O.cactus_problem(good, 2))
        self.assertIsNotNone(O.cactus_problem(good, 3))
        gap = cactus(2, [(0, F(1, 4), 1), (F(1, 3), 1, 2)])
        self.assertIn("gap", O.cactus_problem(gap))
        short = cactus(2, [(0, F(1, 3), 1), (F(1, 3), 1, 2)])
        self.assertIn("length", O.cactus_problem(short))
        woven = cactus(2, [(0, F(1, 4), 1), (F(1, 4), F(1, 2), 2),
                           (F(1, 2), F(3, 4), 1), (F(3, 4), 1, 2)])
        self.assertIn("interleave", O.cactus_problem(woven))
        # the two ends of [0,1] meet on the circle: 1 2 1 is not woven
        wrapped = cactus(2, [(0, F(1, 4), 1), (F(1, 4), F(3, 4), 2),
                             (F(3, 4), 1, 1)])
        self.assertIsNone(O.cactus_problem(wrapped))

    def test_step_maps(self):
        x = C.Cactus(3, [(0, F(1, 6), 1), (F(1, 6), F(1, 2), 2),
                         (F(1, 2), F(2, 3), 1), (F(2, 3), 1, 3)])
        from brackops.randomgen import random_reparam, rng_from_seed
        elem = C.MSElement(x, random_reparam(rng_from_seed(3)))
        ts = workloads.STEP_POINTS
        values = [[f(t) for t in ts] for f in C.phi(elem)]
        self.assertIsNone(O.step_map_problem(elem, ts, values))
        values[1][17] += F(1, 100)
        self.assertIsNotNone(O.step_map_problem(elem, ts, values))
        self.assertIsNotNone(O.step_map_problem(elem, ts, values[:2]))


class Trees(unittest.TestCase):
    def setUp(self):
        tree = T.caterpillar(3)
        self.x = OP.bo_element(tree, (2, 0, 1), (1, 0, 3, 2),
                               {frozenset({0, 1}): F(1, 3)})
        self.y = OP.bo_element(T.PlanarTree((T.corolla(1), T.ETA)), (1, 0),
                               (1, 0))

    def test_psi_inverse(self):
        w = W.psi_inverse(self.x)
        self.assertIsNone(O.psi_inverse_problem(self.x, w))
        bad_len = W.WTree(w.shape, w.leaf_order, [F(2, 3)], w.decorations)
        self.assertIn("lengths", O.psi_inverse_problem(self.x, bad_len))
        flat = W.psi_inverse(OP.BOElement(self.x.base))
        self.assertIn("vertices", O.psi_inverse_problem(self.x, flat))

    def test_composite_sizes(self):
        ab = OP.compose_BO(self.x, 1, self.y)
        self.assertIsNone(O.composite_problem(self.x, 1, self.y, ab))
        self.assertIsNotNone(O.composite_problem(self.x, 1, self.y, self.x))

    def test_thickened_images(self):
        tree = T.caterpillar(4)
        g = D.collapse_morphism(tree, [{1, 2}])
        f = D.collapse_morphism(g.source, [{0, 1}])
        comp = D.compose_omega_tilde(D.OmegaTildeMorphism(g),
                                     D.OmegaTildeMorphism(f))
        images = O.image_union([f, g])
        self.assertIsNone(O.thickened_problem(comp, images))
        self.assertIsNotNone(O.thickened_problem(comp, images[::-1]))
        self.assertIsNotNone(O.thickened_problem(D.OmegaTildeMorphism(g), images))


def corrupt(case, out):
    "A copy of a case's output with one part replaced by a wrong value."
    if case.kind == "segal":
        return [False] + out[1:]
    if case.kind == "enumeration":
        return out[1:]
    if case.kind == "qconcat":
        return out[0], [None]
    if case.kind == "functorial":
        return [(out[0][0], None)] + out[1:]
    out = list(out)
    out[1] = None
    return out


def plain(case):
    "A case's arguments, with algebra handles replaced by their class name."
    handles = (EndoAlgebra, TerminalAlgebra)
    return [[type(h).__name__ for h in a]
            if isinstance(a, tuple) and a and isinstance(a[0], handles)
            else a for a in case.args]


class Workloads(unittest.TestCase):
    def test_cases_pass_and_corruptions_fail(self):
        for name in workloads.BUILDERS:
            cases = workloads.build(name, 7, 24)
            kinds = set()
            for case in cases:
                if case.kind in kinds or (
                        case.kind == "enumeration" and case.args[3] > 5):
                    continue
                kinds.add(case.kind)
                out = case.run()
                self.assertTrue(case.check(out), (name, case.kind))
                self.assertFalse(case.check(corrupt(case, out)),
                                 (name, case.kind))
            self.assertTrue(kinds, name)

    def test_same_seed_same_cases(self):
        for name in workloads.BUILDERS:
            a = workloads.build(name, 5, 30)
            b = workloads.build(name, 5, 30)
            self.assertEqual([plain(c) for c in a], [plain(c) for c in b])
            self.assertEqual(len(a), 30)


class Harness(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertIsNone(run.tail_percentile(99))
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 99), 990)
        self.assertEqual(run.percentile(values, 50), 500)

    def test_scale_uses_the_nearest_samples(self):
        meter = calibrate.Speedometer()
        # a core that runs at nominal speed for 20 spans, then at half
        meter.positions = list(range(40))
        meter.samples = [calibrate.NOMINAL_NS] * 20 + [2 * calibrate.NOMINAL_NS] * 20
        self.assertEqual(meter.scale(0), 1)
        self.assertEqual(meter.scale(5), 1)
        self.assertEqual(meter.scale(35), 0.5)
        self.assertEqual(meter.scale(39), 0.5)

    def test_refuses_without_sources(self):
        bare = os.path.join(BENCH, "out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "omega-nerve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
