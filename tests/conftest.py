import math
import sys

import numpy as np
import pytest

from sconv import hyptest, quasifree
from sconv.operators import HermitianOperator, rand_density


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def qubit_pair(rng):
    """A fixed full-rank non-commuting qubit pair."""
    return rand_density(2, rng), rand_density(2, rng)


@pytest.fixture
def qutrit_pair(rng):
    return rand_density(3, rng), rand_density(3, rng)


def classical_pair(p, q):
    """Diagonal (commuting) pair from two probability vectors."""
    return (
        HermitianOperator(np.diag(np.asarray(p, dtype=float))),
        HermitianOperator(np.diag(np.asarray(q, dtype=float))),
    )


@pytest.fixture(autouse=True)
def cold_sector_cache():
    """Start every test without memoised Hamming-sector spectra or Fock
    densities, so a count test never depends on which tests ran before it."""
    hyptest._SECTOR_CACHE.clear()
    quasifree._FOCK_CACHE.clear()


@pytest.fixture
def sector_calls(monkeypatch):
    """Shapes of the ``eigvalsh`` calls made from ``hyptest`` (the sector spectra)."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "sconv.hyptest":
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of every ``eigh`` call, from any module."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


@pytest.fixture
def hamming_blocks(monkeypatch):
    """``(n, k)`` of every Hamming block ``hyptest`` is asked for; a block of
    more than 4096 rows raises instead of being allocated."""
    calls = []
    build = hyptest._hamming_block

    def guarded(rho_ref, n, k):
        calls.append((n, k))
        if math.comb(n, k) > 4096:
            raise AssertionError(f"a {math.comb(n, k)}-row Hamming block was requested")
        return build(rho_ref, n, k)

    monkeypatch.setattr(hyptest, "_hamming_block", guarded)
    return calls
