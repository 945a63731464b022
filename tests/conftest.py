import numpy as np
import pytest

from sconv import hyptest
from sconv.operators import rand_density


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


@pytest.fixture
def sector_calls(monkeypatch):
    """``(n, k)`` of every Hamming-sector spectrum ``hyptest`` builds; a sector
    of a block over the work cap raises instead of being built."""
    calls = []
    build = hyptest._sector_spectrum

    def counted(coeffs, log_binom, n, k):
        calls.append((n, k))
        if hyptest._sector_terms(n) > hyptest.MAX_TYPE_CLASSES:
            raise AssertionError(f"a sector of over-cap block {n} was requested")
        return build(coeffs, log_binom, n, k)

    monkeypatch.setattr(hyptest, "_sector_spectrum", counted)
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
