"""Unit tests for the Legendre machinery on convex rate functions."""

import math
import re

import numpy as np
import pytest

from sconv.hoeffding import (
    ConvexRate,
    hoeffding_anti,
    polar,
    polar_detail,
    rate_from_samples,
    sc_lower_bound_curve,
)


def quadratic():
    # f(t) = (t-1)^2: polar(a) = a^2/4 for a >= 0, slope at infinity inf
    return ConvexRate.from_callable(
        lambda t: (t - 1.0) ** 2, right_derivative_at_1=0.0, t_hi=256.0
    )


def linear(slope=0.5):
    return ConvexRate.from_callable(
        lambda t: slope * (t - 1.0),
        right_derivative_at_1=slope,
        slope_at_infinity=slope,
        t_hi=64.0,
    )


class TestConvexRateConstruction:
    def test_from_callable_requires_zero_at_one(self):
        with pytest.raises(ValueError, match="vanish"):
            ConvexRate.from_callable(lambda t: t, right_derivative_at_1=1.0)

    def test_call_outside_domain(self):
        f = quadratic()
        with pytest.raises(ValueError, match="outside"):
            f(0.5)
        with pytest.raises(ValueError, match="outside"):
            f(1000.0)

    def test_from_samples_piecewise_linear(self):
        grid = np.linspace(1.0, 8.0, 30)
        f = ConvexRate.from_samples(grid, (grid - 1.0) ** 2)
        # interpolation is exact on the grid
        assert f(grid[7]) == pytest.approx((grid[7] - 1.0) ** 2, abs=1e-12)
        assert f.t_hi == pytest.approx(8.0)

    def test_from_samples_rejects_nonconvex(self):
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        vals = np.array([0.0, 1.0, 0.2, 3.0])
        with pytest.raises(ValueError, match="not convex"):
            ConvexRate.from_samples(grid, vals)

    def test_from_samples_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="start at 1"):
            ConvexRate.from_samples([2.0, 3.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            ConvexRate.from_samples([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="vanish"):
            ConvexRate.from_samples([1.0, 2.0], [0.5, 1.0])
        # from_callable's gate: 5e-9 is past RATE_AT_ONE_TOL
        with pytest.raises(ValueError, match="vanish"):
            ConvexRate.from_samples([1.0, 2.0, 3.0], [5e-9, 1.0, 3.0])

    def test_derivative_override(self):
        grid = np.linspace(1.0, 4.0, 7)
        f0 = ConvexRate.from_samples(grid, (grid - 1.0) ** 2)
        f1 = ConvexRate.from_samples(
            grid, (grid - 1.0) ** 2, right_derivative_at_1=0.0
        )
        # first chord overestimates the true derivative 0; override fixes it
        assert f0.right_derivative_at_1 > 0.0
        assert f1.right_derivative_at_1 == 0.0
        assert hoeffding_anti(f1, 1e-12).regime == "zero"


    def test_from_callable_calls_fn_once_per_t(self):
        # classical psi of p = (0.7, 0.3) against q = (0.4, 0.6)
        calls = []

        def psi(t):
            calls.append(float(t))
            return math.log(0.7**t * 0.4 ** (1 - t) + 0.3**t * 0.6 ** (1 - t))

        slope = math.log(0.7 / 0.4)
        relent = 0.7 * math.log(0.7 / 0.4) + 0.3 * math.log(0.3 / 0.6)
        f = ConvexRate.from_callable(psi, right_derivative_at_1=relent, slope_at_infinity=slope)
        for _ in range(3):
            values = [f(t) for t in (1.5, 2.0, 7.25, 64.0)]
        h = hoeffding_anti(f, 0.3)
        assert [f(t) for t in (1.5, 2.0, 7.25, 64.0)] == values
        assert len(calls) == len(set(calls)) > 10
        plain = ConvexRate(
            fn=lambda t: psi(t) - psi(1.0),
            right_derivative_at_1=relent,
            slope_at_infinity=slope,
        )
        unmemoised = hoeffding_anti(plain, 0.3)
        assert h.regime == unmemoised.regime == "interior"
        assert h.value == unmemoised.value and h.a_r == unmemoised.a_r


class TestPolar:
    def test_quadratic_closed_form(self):
        f = quadratic()
        for a in (0.5, 1.0, 3.0, 10.0):
            assert polar(f, a) == pytest.approx(a * a / 4.0, abs=1e-8)

    def test_zero_below_derivative(self):
        f = linear(0.5)
        assert polar(f, 0.3) == 0.0
        assert polar_detail(f, 0.5).value == 0.0

    def test_infinite_beyond_slope(self):
        f = linear(0.5)
        detail = polar_detail(f, 0.8)
        assert math.isinf(detail.value)
        assert detail.tail_dominated

    def test_attaining_point_quadratic(self):
        # argmax of a(t-1) - (t-1)^2 is t = 1 + a/2
        f = quadratic()
        detail = polar_detail(f, 2.0)
        assert detail.argmax_t == pytest.approx(2.0, abs=1e-6)
        assert not detail.tail_dominated


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rate_argument_refused(bad):
    # a NaN once passed every comparison and came back as an interior result
    f = quadratic()
    with pytest.raises(ValueError, match="^tradeoff rate r must be finite"):
        hoeffding_anti(f, bad)
    with pytest.raises(ValueError, match="^threshold rate a must be finite"):
        polar_detail(f, bad)


class TestHoeffdingAnti:
    def test_quadratic_reference_point(self):
        # at r = 3: a_r solves a^2/4 + a = 3, i.e. a_r = 2, value r - a_r = 1
        f = quadratic()
        h = hoeffding_anti(f, 3.0)
        assert h.regime == "interior"
        assert h.value == pytest.approx(1.0, abs=1e-9)
        assert h.a_r == pytest.approx(2.0, abs=1e-8)

    def test_zero_regime(self):
        f = linear(0.5)
        h = hoeffding_anti(f, 0.4)
        assert h.regime == "zero" and h.value == 0.0

    def test_linear_tail_exact(self):
        # linear f: r_max = a_max, everything above is the linear tail r - a_max
        f = linear(0.5)
        for r in (0.6, 1.5, 10.0):
            h = hoeffding_anti(f, r)
            assert h.regime == "linear_tail"
            assert h.value == pytest.approx(r - 0.5, abs=1e-12)
            assert h.a_r == pytest.approx(0.5)

    def test_regime_boundary_continuity(self):
        # value is continuous through the zero/interior boundary r = f'(1)
        grid = np.linspace(1.0, 16.0, 200)
        f = ConvexRate.from_samples(
            grid, 0.3 * (grid - 1.0) + 0.1 * (grid - 1.0) ** 2,
            right_derivative_at_1=0.3,
        )
        eps = 1e-6
        below = hoeffding_anti(f, 0.3 - eps).value
        above = hoeffding_anti(f, 0.3 + eps).value
        assert below == 0.0
        assert abs(above - below) < 1e-4

    def test_value_zero_iff_r_below_derivative(self):
        f = quadratic()
        g = linear(0.7)
        assert hoeffding_anti(f, -0.1).value == 0.0
        assert hoeffding_anti(f, 1e-3).value > 0.0
        assert hoeffding_anti(g, 0.7).value == 0.0
        assert hoeffding_anti(g, 0.71).value > 0.0

    def test_direct_sup_agrees(self):
        f = quadratic()
        for r in (0.5, 1.0, 3.0, 7.0):
            direct = sc_lower_bound_curve(f, r)
            assert hoeffding_anti(f, r).value == pytest.approx(direct, abs=1e-7)

    def test_monotone_and_convex_in_r(self):
        f = quadratic()
        rs = np.linspace(0.1, 8.0, 40)
        vals = np.array([hoeffding_anti(f, r).value for r in rs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-8)


class TestRateFromSamples:
    def test_richardson_removes_first_order_term(self):
        # psi_n(alpha)/n = f(alpha) + g(alpha)/n exactly; extrapolation
        # recovers f up to the second-order terms absent here
        alphas = np.linspace(1.0, 6.0, 11)
        f = 0.2 * (alphas - 1.0) ** 2
        g = 0.7 * (alphas - 1.0)
        n_list = [8, 16, 32, 64]
        m = np.array([n * f + g for n in n_list])
        rate = rate_from_samples(n_list, alphas, m)
        for i, a in enumerate(alphas):
            assert rate(a) == pytest.approx(f[i], abs=1e-10)
        assert np.all(rate.residuals < 1e-10)

    def test_requires_three_sizes(self):
        alphas = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="three"):
            rate_from_samples([4, 8], alphas, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            rate_from_samples([4, 8, 16], [1.0, 2.0], np.zeros((3, 3)))


# sample-table refusals that no shipped rate builder reaches
@pytest.mark.parametrize("call, message", [
    (lambda: rate_from_samples([4, 3, 5], [1.0, 2.0], np.zeros((3, 2))),
     "sample sizes must be strictly increasing"),
    (lambda: ConvexRate.from_samples([1.0, 2.0], [0.0]),
     "need matching 1-d grids with at least two points"),
], ids=["sizes-not-increasing", "mismatched-grids"])
def test_sample_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
