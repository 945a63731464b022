"""The one psi evaluator per state pair: ``renyi.psi_curve`` does the
order-free work once, refuses what ``psi`` refuses, and reads only read-only
state."""

import math
import threading

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power

from sconv import renyi
from sconv.families import iid_rate
from sconv.hoeffding import hoeffding_anti
from sconv.operators import HermitianOperator, power_on_support, rand_density
from sconv.renyi import psi, psi_curve

ORDERS = [0.3, 0.5, 2.0 / 3.0, 0.9, 1.0, 1.5, 3.0]
NOT_PSD = HermitianOperator(np.diag([1.2, -0.2]))


def _pairs(rng):
    """Seeded full-rank and rank-deficient pairs of dimensions 2 to 4."""
    pairs = [(rand_density(d, rng), rand_density(d, rng)) for d in (2, 3, 4)]
    pairs += [(rand_density(3, rng, rank=2), rand_density(3, rng)),
              (rand_density(3, rng, rank=1), rand_density(3, rng, rank=2)),
              (rand_density(4, rng), rand_density(4, rng, rank=3))]
    return pairs


def _dense_sandwiched_psi(rho, sigma, t):
    """``log Tr (rho^(1/2) sigma^((1-t)/t) rho^(1/2))^t`` of full-rank states,
    every power by scipy's Schur-Pade ``fractional_matrix_power``."""
    sq = fractional_matrix_power(rho.entries, 0.5)
    m = sq @ fractional_matrix_power(sigma.entries, (1.0 - t) / t) @ sq
    m = fractional_matrix_power(0.5 * (m + m.conj().T), t)
    return math.log(np.trace(m).real)


def test_sigma_power_is_power_on_support_to_the_bit(rng):
    for rho, sigma in _pairs(rng):
        base = renyi._sandwiched_base(rho, sigma)
        for t in ORDERS:
            _, a, _ = base(t)
            assert np.array_equal(a, power_on_support(sigma, (1.0 - t) / t).entries), t


def test_sandwiched_psi_matches_dense_oracle(rng):
    for rho, sigma in _pairs(rng)[:3]:  # the full-rank ones
        curve = psi_curve(rho, sigma, "sandwiched")
        for t in ORDERS + [8.0]:
            assert curve(t) == pytest.approx(_dense_sandwiched_psi(rho, sigma, t), abs=1e-12)


def test_one_anti_divergence_takes_one_square_root_of_rho(rng, monkeypatch):
    rho, sigma = rand_density(2, rng), rand_density(2, rng)
    roots = []

    def counted(op, t):
        if op is rho and t == 0.5:
            roots.append(t)
        return power_on_support(op, t)

    monkeypatch.setattr(renyi, "power_on_support", counted)
    rate = iid_rate(rho, sigma, "sandwiched")
    h = hoeffding_anti(rate, rate.right_derivative_at_1 + 0.1)
    assert math.isfinite(h.value)
    assert len(roots) == 1


class TestRefusals:
    def test_nonpositive_order_before_any_psd_check(self, qubit_pair):
        with pytest.raises(ValueError, match=r"sandwiched quantities need t > 0, got -1\.0"):
            psi(qubit_pair[0], NOT_PSD, -1.0, "sandwiched")
        with pytest.raises(ValueError, match=r"need t > 0, got 0\.0"):
            psi_curve(*qubit_pair, "sandwiched")(0.0)

    def test_unknown_variant_first(self, qubit_pair):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            psi(qubit_pair[0], NOT_PSD, -1.0, "bogus")
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            psi_curve(qubit_pair[0], NOT_PSD, "bogus")

    def test_sigma_not_psd_when_built(self, qubit_pair):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psi_curve(qubit_pair[0], NOT_PSD, "sandwiched")
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psi(qubit_pair[0], NOT_PSD, 2.0, "sandwiched")


def _closed_over(fn):
    """Every value in the closure of ``fn`` and of the functions it closes over."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        yield value
        if callable(value) and hasattr(value, "__closure__"):
            yield from _closed_over(value)


@pytest.mark.parametrize("variant", renyi.VARIANTS)
def test_curve_reads_only_read_only_state(qubit_pair, variant):
    curve = psi_curve(*qubit_pair, variant)
    arrays = [a for v in _closed_over(curve)
              for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    # so threads may share it: each thread gets the values of a lone caller
    ts = np.linspace(0.5, 6.0, 40)
    expect = [psi(*qubit_pair, t, variant) for t in ts]
    got = {}
    threads = [threading.Thread(target=lambda k=k: got.update({k: list(map(curve, ts))}))
               for k in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert got == {k: expect for k in range(4)}
