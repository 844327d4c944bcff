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
        if any(x != "*" for x in inputs):
            raise ValueError("terminal values are all the point")
        return "*"

    def sample(self, n, rng=None):
        return "*"


class EndoValue:
    """An n-ary boolean function as a truth table of length 2**n;
    argument j is bit n-j of the table index (argument 1 highest)."""

    __slots__ = ("n", "table")

    def __init__(self, n, table):
        table = tuple(int(b) for b in table)
        if len(table) != 1 << n or any(b not in (0, 1) for b in table):
            raise ValueError("need a 0/1 table of length 2**%d" % n)
        self.n = n
        self.table = table

    def __call__(self, args):
        if len(args) != self.n:
            raise ValueError("arity mismatch")
        idx = 0
        for a in args:
            idx = (idx << 1) | int(a)
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
    "Substitute b into argument i of a."
    if not 1 <= i <= a.n:
        raise IndexError("slot %d out of range" % i)
    n = a.n + b.n - 1
    table = []
    for idx in range(1 << n):
        args = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        mid = b(args[i - 1:i - 1 + b.n])
        table.append(a(args[:i - 1] + [mid] + args[i - 1 + b.n:]))
    return EndoValue(n, table)


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
        # the fold orders arguments by planar leaf position; relabel by tau
        labels = base.leaf_labels()
        n = len(labels)
        table = []
        for word in range(1 << n):
            args = [(word >> (n - 1 - j)) & 1 for j in range(n)]
            table.append(acc([args[j] for j in labels]))
        return EndoValue(n, table)

    def sample(self, n, rng=None):
        if rng is None:
            return EndoValue(n, [0] * (1 << n))
        return EndoValue(n, [rng.randint(0, 1) for _ in range(1 << n)])


class CactusAlgebra:
    "Normalized cacti with the bracketed-tree action."

    def unit(self):
        return unit_cactus()

    def act(self, elem, inputs):
        return bo_action.lam(elem, inputs)

    def sample(self, n, rng=None):
        if rng is None:
            raise ValueError("sampling cacti needs a random source")
        return randomgen.random_cactus(n, rng)
