"""The earlier Boolean kernels, kept as an independent reference for the
tests.  Both build an argument list for every table entry and evaluate
an EndoValue on it.  brackops.algebras.endo_compose reads the result
off a's table by index arithmetic, and EndoAlgebra.act relabels the
fold's table through one bit permutation."""

from brackops.algebras import EndoValue, endo_identity
from brackops.operads import check_inputs, fold_inputs


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


def act(elem, inputs):
    "EndoAlgebra.act: the element's action on Boolean functions."
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
