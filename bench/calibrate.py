"""Core-speed calibration.

The host this benchmark was built on shares its cores: the same case
list takes up to a third more CPU time in one run than in another a few
minutes later, and the speed also changes from second to second.  A run
therefore times a fixed piece of pure-Python work, `reference_work`,
before its first case, after every CALIBRATE_EVERY_NS of case CPU time
and after its last case, always outside the timed spans.  A measured
time is scaled by NOMINAL_NS over the median of the calibration samples
taken nearest to it, which expresses it at the core speed at which
`reference_work` takes exactly NOMINAL_NS.

`reference_work` does the kinds of work brackops does (rational
arithmetic, hashing of frozensets and tuples, small objects, recursion)
and never changes, so a change to brackops moves the scaled times as
much as the measured ones."""

import bisect
import gc
import statistics
import time
from fractions import Fraction

NOMINAL_NS = 1_000_000
CALIBRATE_EVERY_NS = 40_000_000
WINDOW = 7  # samples per median


class _Node:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = children


def _depth(node):
    return 1 + max((_depth(c) for c in node.children), default=0)


def reference_work():
    acc = Fraction(0)
    for k in range(1, 56):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1) - Fraction(1, k + 2)
    seen = {}
    for k in range(320):
        key = frozenset((k % 11, k % 7, k % 5))
        seen[key] = seen.get(key, ()) + (k,)
    tree = _Node(())
    for k in range(96):
        tree = _Node((tree, _Node(())) if k % 2 else (tree,))
    return acc, len(seen), _depth(tree)


def sample_ns():
    """Process CPU time of one round of reference_work, with the collector
    paused so that it does not collect the garbage of earlier cases."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time_ns()
        reference_work()
        return time.process_time_ns() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Calibration samples along a sequence of timed spans, by position:
    sample k was taken before span `positions[k]`."""

    def __init__(self):
        self.positions = []
        self.samples = []
        self._since = 0

    def sample(self, position, rounds=1):
        for _ in range(rounds):
            self.positions.append(position)
            self.samples.append(sample_ns())

    def after_span(self, position, cpu_ns):
        "Record a span's CPU time; calibrate again when enough has passed."
        self._since += cpu_ns
        if self._since >= CALIBRATE_EVERY_NS:
            self._since = 0
            self.sample(position + 1)

    def scale(self, position):
        "NOMINAL_NS over the median of the WINDOW samples nearest position."
        k = bisect.bisect_right(self.positions, position)
        lo = max(0, min(k - WINDOW // 2, len(self.samples) - WINDOW))
        return NOMINAL_NS / statistics.median(self.samples[lo:lo + WINDOW])
