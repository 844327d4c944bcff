"""Algebra handles: concrete value spaces a bracketed labelled tree can
act on.  A handle provides unit() (the distinguished arity-1 value),
act(element, inputs) for a bracketed labelled tree, and sample(n, rng)
for test data of a given arity."""

from .cacti import unit_cactus
from .operads import check_inputs, fold_inputs
from . import bo_action
from . import randomgen


class TerminalAlgebra:
    "Every value space is a single point; brackets and weights vanish."

    def unit(self):
        return "*"

    def act(self, elem, inputs):
        if len(inputs) != elem.base.arity:
            raise ValueError("need one input per slot")
        if any(x != "*" for x in inputs):
            raise ValueError("terminal values are all the point")
        return "*"

    def sample(self, n, rng):
        return "*"


_BITS = frozenset((0, 1))
_BIT_TYPES = frozenset((int, bool))


class EndoValue:
    """An n-ary boolean function as a truth table of length 2**n;
    argument j is bit n-j of the table index (argument 1 highest)."""

    __slots__ = ("n", "table")

    def __init__(self, n, table):
        table = tuple(table)
        kinds = set(map(type, table))
        if (len(table) != 1 << n or not kinds <= _BIT_TYPES
                or not _BITS.issuperset(table)):
            raise ValueError("need a 0/1 table of length 2**%d" % n)
        if bool in kinds:
            table = tuple(map(int, table))
        self.n = n
        self.table = table

    def __call__(self, args):
        if len(args) != self.n:
            raise ValueError("arity mismatch")
        if not set(map(type, args)) <= _BIT_TYPES or not _BITS.issuperset(args):
            raise ValueError("arguments must be 0 or 1")
        idx = 0
        for a in args:
            idx = (idx << 1) | a
        return self.table[idx]

    def __eq__(self, other):
        return (isinstance(other, EndoValue) and self.n == other.n
                and self.table == other.table)

    def __hash__(self):
        return hash((self.n, self.table))

    def __repr__(self):
        return "EndoValue(%d, %s)" % (self.n, "".join(map(str, self.table)))


def endo_identity():
    return EndoValue(1, (0, 1))


def endo_compose(a, i, b):
    """Substitute b into argument i of a.  With lo = a.n - i, entry idx
    of the result is entry ((idx >> (lo + b.n)) << (lo + 1)) |
    (b.table[mid] << lo) | (idx & (2**lo - 1)) of a, mid being the b.n
    bits of idx above its lo lowest.  So each block of a's table that
    fixes the arguments before i is two halves, argument i = 0 and 1,
    and each entry of b's table picks one."""
    if not 1 <= i <= a.n:
        raise IndexError("slot %d out of range" % i)
    lo = a.n - i
    half = 1 << lo
    at = a.table
    table = []
    for h in range(0, 1 << a.n, 1 << (lo + 1)):
        halves = (at[h:h + half], at[h + half:h + 2 * half])
        for bit in b.table:
            table += halves[bit]
    return EndoValue(a.n + b.n - 1, table)


class EndoAlgebra:
    """Boolean functions under substitution: a strict operad, so the
    action forgets brackets and weights entirely."""

    def unit(self):
        return endo_identity()

    def act(self, elem, inputs):
        base = elem.base
        check_inputs(base, [x.n for x in inputs])
        if base.tree.is_eta:
            return endo_identity()
        acc = fold_inputs(base, inputs, endo_compose)
        # the fold orders arguments by planar leaf position; argument j
        # (bit n-1-j of a word) is the one at position tau[j], so entry
        # word of the result is entry perm[word] of acc, perm built by
        # doubling over the word's bits, lowest first
        n = len(base.tau)
        perm = [0]
        for p in reversed(base.tau):
            step = 1 << (n - 1 - p)
            perm += [q + step for q in perm]
        table = acc.table
        return EndoValue(n, [table[q] for q in perm])

    def sample(self, n, rng):
        return EndoValue(n, [rng.randint(0, 1) for _ in range(1 << n)])


class CactusAlgebra:
    "Normalized cacti with the bracketed-tree action."

    def unit(self):
        return unit_cactus()

    def act(self, elem, inputs):
        return bo_action.lam(elem, inputs)

    def sample(self, n, rng):
        return randomgen.random_cactus(n, rng)
