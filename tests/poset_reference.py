"""The earlier nerve_statistics, kept as an independent reference for
the tests.  It lists the bracketings below each one by comparing every
ordered pair, sorts them by bracket count and grows its rows and its
f-vector one entry at a time.  brackops.bracketings.nerve_statistics
walks the enumeration once."""

from brackops.bracketings import (
    check_enumeration_limit, enumerate_bracketings,
)


def nerve_statistics(tree, limit=7):
    """f-vector and Euler characteristic of the order complex of the
    bracketing poset: f[r] counts chains of r+1 distinct bracketings;
    chi = sum (-1)^r f[r].  Contractibility shows up as chi == 1."""
    check_enumeration_limit(tree, limit)
    elems = enumerate_bracketings(tree)
    n = len(elems)
    below = [[] for _ in range(n)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i != j and a.brackets < b.brackets:
                below[j].append(i)
    # chains_ending[j][r] = number of (r+1)-element chains with top j
    chains_ending = [None] * n
    order = sorted(range(n), key=lambda j: len(elems[j].brackets))
    for j in order:
        row = [1]
        for i in below[j]:
            for r, cnt in enumerate(chains_ending[i]):
                while len(row) <= r + 1:
                    row.append(0)
                row[r + 1] += cnt
        chains_ending[j] = row
    fvec = []
    for j in range(n):
        for r, cnt in enumerate(chains_ending[j]):
            while len(fvec) <= r:
                fvec.append(0)
            fvec[r] += cnt
    chi = sum((-1) ** r * f for r, f in enumerate(fvec))
    return tuple(fvec), chi
