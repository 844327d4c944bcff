"""The benchmark's tracer (bench/tracing.py) finds the brackops names it
wraps by string.  This suite does not collect bench/, so without this
test a renamed or moved name would show only in a benchmark run."""

import fractions
import importlib.util
from pathlib import Path

from brackops import bo_action, cacti, plmaps, wconstruction
from brackops import randomgen as R
from brackops.operads import bo_element, unit_BO
from brackops.trees import caterpillar


def load_tracing():
    # the tracer looks each layer up in sys.modules; the CLI imports them all
    importlib.import_module("brackops.cli")
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_counts_and_uninstalls():
    tracing = load_tracing()
    originals = (plmaps.PLMap.__dict__["__call__"], cacti.ms_compose,
                 fractions.Fraction.__dict__["__new__"])
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        assert plmaps.PLMap.__dict__["__call__"] is not originals[0]
        assert cacti.ms_compose is not originals[1]
        rng = R.rng_from_seed(7)
        a, b = R.random_ms_element(2, rng), R.random_ms_element(2, rng)
        tracer.active = True
        z = cacti.ms_compose(a, 1, b)
        # ms_compose evaluates maps on integers; one public evaluation
        # drives PLMap.__call__ and the Fraction count
        z.reparam(fractions.Fraction(1, 3))
        tracer.active = False
    finally:
        tracer.uninstall(undo)
    assert (plmaps.PLMap.__dict__["__call__"], cacti.ms_compose,
            fractions.Fraction.__dict__["__new__"]) == originals
    metrics = tracer.metrics()
    assert list(metrics) == tracing.metric_names()
    for name in ("cacti.ms_compose.calls", "plmaps.PLMap.calls",
                 "plmaps.PLMap.__call__.calls", "plmaps.pl_compose.calls",
                 "fractions.Fraction.calls"):
        assert metrics[name][0] > 0, name


def test_the_tracer_counts_the_tree_surgery():
    # psi_inverse, compose_W and augment build their trees in one walk
    # each; their per-layer counts must not read 0
    tracing = load_tracing()
    bracket = frozenset({1, 2})
    x = bo_element(caterpillar(3), (0, 1, 2), (0, 1, 2, 3),
                   {bracket: fractions.Fraction(1, 2)})
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        tracer.active = True
        w = wconstruction.psi_inverse(x)
        wconstruction.compose_W(w, 1, wconstruction.psi_inverse(unit_BO(2)))
        bo_action.augment(x.base, [bracket])
        tracer.active = False
    finally:
        tracer.uninstall(undo)
    metrics = tracer.metrics()
    for name in ("wconstruction.psi_inverse.calls",
                 "wconstruction.compose_W.calls", "bo_action.augment.calls"):
        assert metrics[name][0] > 0, name
