"""Unit tests for the plain and sandwiched Renyi quantities."""

import math

import numpy as np
import pytest

from sconv.operators import (
    HermitianOperator,
    rand_density,
    tensor_power,
)
from sconv.renyi import (
    max_relative_entropy,
    psi,
    psi_derivative,
    relative_entropy,
    renyi_divergence,
)

from helpers import (
    classical_pair,
    classical_psi,
    classical_renyi_divergence,
    divergence_scaling_residual,
    psi_scaling_residual,
)


ALPHAS = [0.3, 0.6, 1.5, 2.0, 4.0]


class TestClassicalReduction:
    """On commuting (diagonal) pairs both variants collapse to the classical
    formulas, which gives an independent closed-form oracle."""

    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.4, 0.4, 0.2])

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.9, 1.5, 3.0])
    @pytest.mark.parametrize("variant", ["plain", "sandwiched"])
    def test_psi_matches_classical(self, t, variant):
        rho, sigma = classical_pair(self.p, self.q)
        expect = classical_psi(self.p, self.q, t)
        assert psi(rho, sigma, t, variant=variant) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_divergence_matches_classical(self, alpha):
        rho, sigma = classical_pair(self.p, self.q)
        expect = classical_renyi_divergence(self.p, self.q, alpha)
        for variant in ("plain", "sandwiched"):
            got = renyi_divergence(rho, sigma, alpha, variant=variant)
            assert got == pytest.approx(expect, abs=1e-11)

    def test_q_value_direct_sum(self):
        rho, sigma = classical_pair(self.p, self.q)
        t = 1.7
        expect = float((self.p**t * self.q ** (1 - t)).sum())
        assert math.exp(psi(rho, sigma, t)) == pytest.approx(expect, rel=1e-12)


class TestStateIdentities:
    def test_psi_vanishes_at_one(self, qutrit_pair):
        rho, sigma = qutrit_pair
        for variant in ("plain", "sandwiched"):
            assert abs(psi(rho, sigma, 1.0, variant=variant)) < 1e-12

    def test_order_one_is_relative_entropy(self, qutrit_pair):
        rho, sigma = qutrit_pair
        d1 = relative_entropy(rho, sigma)
        for variant in ("plain", "sandwiched"):
            assert renyi_divergence(rho, sigma, 1.0, variant=variant) == pytest.approx(
                d1, abs=1e-12
            )

    def test_additivity_under_tensor_powers(self, qubit_pair):
        rho, sigma = qubit_pair
        for variant in ("plain", "sandwiched"):
            base = psi(rho, sigma, 1.8, variant=variant)
            for k in (2, 3):
                rk, sk = tensor_power(rho, k), tensor_power(sigma, k)
                assert psi(rk, sk, 1.8, variant=variant) == pytest.approx(
                    k * base, abs=1e-10
                )

    @pytest.mark.parametrize("alpha", [1.2, 2.0, 3.5])
    def test_sandwiched_below_plain_above_one(self, rng, alpha):
        # Araki-Lieb-Thirring ordering of the two families
        for _ in range(5):
            rho, sigma = rand_density(3, rng), rand_density(3, rng)
            ds = renyi_divergence(rho, sigma, alpha, variant="sandwiched")
            dp = renyi_divergence(rho, sigma, alpha, variant="plain")
            assert ds <= dp + 1e-10

    def test_monotone_in_alpha(self, qutrit_pair):
        rho, sigma = qutrit_pair
        for variant in ("plain", "sandwiched"):
            vals = [
                renyi_divergence(rho, sigma, a, variant=variant)
                for a in (0.4, 0.8, 1.0, 1.5, 2.5, 6.0)
            ]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_sandwiched_caps_at_max_relative_entropy(self, qubit_pair):
        rho, sigma = qubit_pair
        dmax = max_relative_entropy(rho, sigma)
        assert renyi_divergence(rho, sigma, 200.0, variant="sandwiched") <= dmax + 1e-9
        # and approaches it for large order
        assert renyi_divergence(rho, sigma, 200.0, variant="sandwiched") == pytest.approx(
            dmax, abs=0.05
        )

    def test_scaling_residuals_vanish(self, qubit_pair):
        rho, sigma = qubit_pair
        assert psi_scaling_residual(rho, sigma, 0.7, 1.3, 1.6) < 1e-12
        assert psi_scaling_residual(rho, sigma, 0.7, 1.3, 1.6, "sandwiched") < 1e-12
        assert divergence_scaling_residual(rho, sigma, 0.5, 2.0, 2.0) < 1e-12


class TestSupportHandling:
    def test_singular_sigma_gives_inf_above_one(self, rng):
        rho = rand_density(3, rng)
        sigma = HermitianOperator(np.diag([0.6, 0.4, 0.0]))
        for variant in ("plain", "sandwiched"):
            assert math.isinf(renyi_divergence(rho, sigma, 2.0, variant=variant))
        assert math.isinf(relative_entropy(rho, sigma))
        assert math.isinf(max_relative_entropy(rho, sigma))

    def test_orthogonal_supports_inf_below_one(self):
        rho = HermitianOperator(np.diag([1.0, 0.0]))
        sigma = HermitianOperator(np.diag([0.0, 1.0]))
        assert math.isinf(renyi_divergence(rho, sigma, 0.5))
        assert psi(rho, sigma, 0.5) == -math.inf

    def test_empty_support_sums_to_minus_inf(self):
        zero = HermitianOperator(np.zeros((2, 2)))
        sigma = HermitianOperator(np.diag([0.3, 0.7]))
        for variant in ("plain", "sandwiched"):
            assert psi(zero, sigma, 2.0, variant) == -math.inf
            with pytest.raises(ValueError, match="vanishes"):
                psi_derivative(zero, sigma, 0.5, variant)
        assert psi(sigma, zero, 0.5) == -math.inf
        assert classical_psi([0.0, 1.0], [1.0, 0.0], 0.5) == -math.inf

    def test_rank_deficient_rho_is_finite(self, rng):
        rho = rand_density(3, rng, rank=1)
        sigma = rand_density(3, rng)
        for variant in ("plain", "sandwiched"):
            val = renyi_divergence(rho, sigma, 2.0, variant=variant)
            assert math.isfinite(val) and val > 0

    def test_negative_order_rejected(self, qubit_pair):
        with pytest.raises(ValueError, match="negative"):
            renyi_divergence(*qubit_pair, -0.5)

    def test_unknown_variant_rejected(self, qubit_pair):
        with pytest.raises(ValueError, match="variant"):
            psi(*qubit_pair, 2.0, variant="bogus")

    def test_sandwiched_needs_positive_order(self, qubit_pair):
        with pytest.raises(ValueError, match="t > 0"):
            psi(*qubit_pair, -1.0, variant="sandwiched")


class TestDerivatives:
    @pytest.mark.parametrize("variant", ["plain", "sandwiched"])
    @pytest.mark.parametrize("t", [0.7, 1.0, 1.8, 4.0])
    def test_matches_central_difference(self, rng, variant, t):
        rho, sigma = rand_density(3, rng), rand_density(3, rng)
        h = 1e-5
        fd = (
            psi(rho, sigma, t + h, variant=variant)
            - psi(rho, sigma, t - h, variant=variant)
        ) / (2 * h)
        closed = psi_derivative(rho, sigma, t, variant=variant)
        assert closed == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_equals_relative_entropy_at_one(self, qutrit_pair):
        rho, sigma = qutrit_pair
        d1 = relative_entropy(rho, sigma)
        for variant in ("plain", "sandwiched"):
            assert psi_derivative(rho, sigma, 1.0, variant=variant) == pytest.approx(
                d1, abs=1e-9
            )

    def test_undefined_on_orthogonal_supports(self):
        rho = HermitianOperator(np.diag([1.0, 0.0]))
        sigma = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="undefined"):
            psi_derivative(rho, sigma, 0.5)


class TestLargeOrderStability:
    def test_no_overflow_at_extreme_orders(self, qubit_pair):
        rho, sigma = qubit_pair
        for t in (100.0, 300.0):
            val = psi(rho, sigma, t, variant="sandwiched")
            assert math.isfinite(val)
            # psi grows at most linearly with slope max-relative-entropy
            assert abs(val) <= t * max_relative_entropy(rho, sigma) + 1.0

    def test_sandwiched_derivative_finite_at_extreme_orders(self):
        # M^(t-1) overflows at these orders; the derivative must not
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            rho, sigma = rand_density(dim, rng), rand_density(dim, rng)
            d_max = max_relative_entropy(rho, sigma)
            prev = -math.inf
            for t in (100.0, 300.0, 600.0):
                val = psi_derivative(rho, sigma, t, variant="sandwiched")
                h = 1e-5 * t
                fd = (psi(rho, sigma, t + h, variant="sandwiched")
                      - psi(rho, sigma, t - h, variant="sandwiched")) / (2 * h)
                assert val == pytest.approx(fd, rel=1e-9)
                # psi' rises towards D_max, its slope at infinity
                assert prev < val < d_max
                prev = val
