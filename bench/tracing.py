"""Traced mode: per-layer call counts and self times.

The tracer wraps the public functions of each brackops layer from the
outside.  A module-level function is rebound in every brackops module
that holds it under its own name; a constructor or method is patched on
its class.  Spans are aggregated in memory while
the tracer is active, that is, inside the timed call of a case, and the
per-layer metrics are computed once at the end of the run."""

import fractions
import sys
import time

# layer -> the names wrapped in it; "Cls" wraps the constructor of a
# class, "Cls.meth" one of its methods
LAYERS = {
    "trees": ("index", "substitute_with_maps", "restrict_with_map",
              "collapse_with_map", "enumerate_subtrees"),
    "bracketings": ("enumerate_bracketings", "maximal_bracketings",
                    "WeightedBracketing"),
    "operads": ("compose_O_with_maps", "compose_BO", "sigma_act_O"),
    "wconstruction": ("normalize_W", "psi", "psi_inverse", "compose_W",
                      "project_with_provenance"),
    "dendroidal": ("compose_omega", "compose_omega_tilde", "q_morphism",
                   "phi_morphism", "segal_check"),
    "plmaps": ("PLMap", "PLMap.__call__", "pl_compose",
               "pl_convex_combination", "pl_invert"),
    "cacti": ("Cactus", "cactus_map", "ms_compose", "cact1_compose",
              "scaling_map"),
    "bo_action": ("lam", "xi_map", "augment", "lambda_MS"),
    "algebras": ("EndoAlgebra.act",),
}


def metric_names():
    "Every per-layer metric name, in report order."
    names = []
    for layer, funcs in LAYERS.items():
        for f in funcs:
            names += ["%s.%s.calls" % (layer, f), "%s.%s.self_s" % (layer, f)]
        names.append("%s.self_s" % layer)
        if layer == "trees":
            names.append("trees.index.distinct_ratio")
        if layer == "plmaps":
            names.append("fractions.Fraction.calls")
    return names


class Tracer:
    """Counts calls and self time (span minus the spans of wrapped calls
    made inside it) per wrapped function."""

    def __init__(self):
        self.active = False
        self.calls = {}
        self.self_ns = {}
        self.child_ns = [0]  # time spent in wrapped callees, per open span
        self.indexed = set()  # distinct trees passed to trees.index
        self.fractions = 0

    def wrap(self, key, fn):
        calls, self_ns, child_ns = self.calls, self.self_ns, self.child_ns
        calls[key] = 0
        self_ns[key] = 0
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = child_ns.pop()
                child_ns[-1] += span
                calls[key] += 1
                self_ns[key] += span - inner

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self):
        """Wrap every listed function.  Returns the list of undo actions."""
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "brackops"]
        for layer, funcs in LAYERS.items():
            home = sys.modules["brackops." + layer]
            for name in funcs:
                key = "%s.%s" % (layer, name)
                cls_name, _, meth = name.partition(".")
                if name[0].isupper():
                    cls = getattr(home, cls_name)
                    attr = meth or "__init__"
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(key, original))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(home, name)
                wrapper = self.wrap(key, original)
                if key == "trees.index":
                    wrapper = self._index_counter(wrapper)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
        undo.append(self._count_fractions())
        return undo

    def _index_counter(self, wrapper):
        indexed = self.indexed

        def index(tree):
            if self.active:
                indexed.add(tree)
            return wrapper(tree)

        return index

    def _count_fractions(self):
        cls = fractions.Fraction
        original = cls.__dict__["__new__"]
        make = original.__func__

        def counted(*args, **kwargs):
            if self.active:
                self.fractions += 1
            return make(*args, **kwargs)

        cls.__new__ = staticmethod(counted)
        return (cls, "__new__", original)

    @staticmethod
    def uninstall(undo):
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def metrics(self):
        out = {}
        for layer, funcs in LAYERS.items():
            layer_ns = 0
            for f in funcs:
                key = "%s.%s" % (layer, f)
                out[key + ".calls"] = (self.calls[key], "count")
                out[key + ".self_s"] = (self.self_ns[key] / 1e9, "s")
                layer_ns += self.self_ns[key]
            out[layer + ".self_s"] = (layer_ns / 1e9, "s")
        calls = self.calls["trees.index"]
        out["trees.index.distinct_ratio"] = (
            len(self.indexed) / calls if calls else 0.0, "ratio")
        out["fractions.Fraction.calls"] = (self.fractions, "count")
        return {name: out[name] for name in metric_names()}
