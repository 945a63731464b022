"""Reference constructions that only the tests use; the package never needs them."""

import itertools


def fock_basis(m):
    """Occupation basis in sector order: (k, subset) for k = 0..m, subsets lex."""
    out = []
    for k in range(m + 1):
        out.extend((k, s) for s in itertools.combinations(range(m), k))
    return out
