"""Unit tests for the Legendre machinery on convex rate functions."""

import math
import re

import numpy as np
import pytest

from sconv import hoeffding
from sconv.families import iid_rate
from sconv.hoeffding import (
    ConvexRate,
    hoeffding_anti,
    polar,
    polar_detail,
    rate_from_samples,
    sc_lower_bound_curve,
)
from sconv.operators import rand_density
from sconv.quasifree import QuasiFreePayload, TrigPolySymbol, quasifree_rate

from helpers import classical_psi, full_search_anti


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


# non-finite samples once passed the NaN-blind gates: a NaN value the
# convexity gate, a NaN alpha the increasing-grid gate, and an infinity both
@pytest.mark.parametrize("alphas, values", [
    ([1.0, 2.0, 3.0, 4.0], [0.0, math.nan, 1.0, 2.0]),
    ([1.0, 2.0, 3.0], [0.0, 1.0, math.inf]),
    ([1.0, math.nan, 3.0], [0.0, 1.0, 2.0]),
    ([1.0, 2.0, math.inf], [0.0, 1.0, 2.0]),
], ids=["nan-value", "inf-value", "nan-alpha", "inf-alpha"])
def test_non_finite_samples_refused(alphas, values):
    with pytest.raises(ValueError, match="sampled alphas and values must be finite"):
        ConvexRate.from_samples(alphas, values)


def test_rate_from_samples_refuses_non_finite_psi():
    psi_matrix = np.outer([4.0, 8.0, 16.0], [0.0, 0.5, 1.5])
    psi_matrix[1, 1] = math.nan
    with pytest.raises(ValueError, match="sampled alphas and values must be finite"):
        rate_from_samples([4, 8, 16], [1.0, 2.0, 3.0], psi_matrix)


@pytest.mark.parametrize("kwargs, got", [
    ({"right_derivative_at_1": math.nan}, "nan, 64.0 and inf"),
    ({"right_derivative_at_1": math.inf}, "inf, 64.0 and inf"),
    ({"slope_at_infinity": math.nan}, "0.0, 64.0 and nan"),
    ({"t_hi": math.nan}, "0.0, nan and inf"),
], ids=["nan-derivative", "inf-derivative", "nan-slope", "nan-t_hi"])
def test_from_callable_refuses_bad_inputs(kwargs, got):
    calls = []

    def fn(t):
        calls.append(t)
        return (t - 1.0) ** 2

    with pytest.raises(ValueError, match=re.escape(f"is not NaN, got {got}")):
        ConvexRate.from_callable(fn, **{"right_derivative_at_1": 0.0, **kwargs})
    assert calls == []  # refused before the rate runs
    steep = ConvexRate.from_callable(fn, 0.0, slope_at_infinity=math.inf)
    assert steep.slope_at_infinity == math.inf


# -- the bisection's signs, read off the golden search's samples ----------

P, Q = (0.7, 0.3), (0.4, 0.6)


def classical():
    relent = sum(p * math.log(p / q) for p, q in zip(P, Q))
    return ConvexRate.from_callable(lambda t: classical_psi(P, Q, t), right_derivative_at_1=relent,
                                    slope_at_infinity=math.log(P[0] / Q[0]))


def sampled():
    grid = np.linspace(1.0, 16.0, 40)  # piecewise linear: g has kinks at the nodes
    return ConvexRate.from_samples(grid, 0.3 * (grid - 1.0) + 0.05 * (grid - 1.0) ** 2,
                                   right_derivative_at_1=0.3)


def sandwiched_qubit():
    rng = np.random.default_rng(7)
    return iid_rate(rand_density(2, rng), rand_density(2, rng), "sandwiched")


def szego():
    return quasifree_rate(QuasiFreePayload(
        nu=1, q_symbol=TrigPolySymbol(0.45, cos_coeffs=(0.15,)),
        r_symbol=TrigPolySymbol(0.55, cos_coeffs=(-0.1,), sin_coeffs=(0.08,)), c_bound=0.2))


RATES = {"quadratic": quadratic, "linear": linear, "classical": classical,
         "sampled": sampled, "sandwiched-qubit": sandwiched_qubit, "szego": szego}


def rates_between(f, count=4):
    """Rates spread over the interior regime of ``f`` (zero and tail for a linear f)."""
    a_min, a_max = f.right_derivative_at_1, f.slope_at_infinity
    r_max = polar(f, a_max) + a_max if math.isfinite(a_max) else a_min + 8.0
    if not math.isfinite(r_max) or r_max <= a_min:
        return [a_min - 0.1, a_min + 0.2, a_min + 2.0]
    return [a_min + (r_max - a_min) * k / (count + 1) for k in range(1, count + 1)]


def assert_matches_full_search(f, r):
    """The certified sign equals the full search's at a grid of thresholds and
    within 1e-9 of ``a_r``, and the result equals the oracle's to the bit."""
    oracle = full_search_anti(f, r)
    assert repr(hoeffding_anti(f, r)) == repr(oracle)
    a_min = f.right_derivative_at_1
    hi = f.slope_at_infinity if math.isfinite(f.slope_at_infinity) else r + 1.0
    thresholds = list(np.linspace(a_min - 0.1, hi + 0.1, 23))
    if oracle.regime == "interior":
        thresholds += [oracle.a_r + k * 2.5e-10 for k in range(-4, 5)]
    for a in thresholds:
        assert hoeffding._exceeds(f, a, r) == (polar(f, a) + a - r > 0.0), (r, a)


@pytest.mark.parametrize("name", sorted(RATES))
def test_certified_signs_match_the_full_search(name):
    f = RATES[name]()
    for r in rates_between(f):
        assert_matches_full_search(f, r)


def test_a_wrong_signed_margin_fails_the_full_search_check(monkeypatch):
    monkeypatch.setattr(hoeffding, "SIGN_MARGIN", -1e-6)
    f = classical()
    with pytest.raises(AssertionError):
        for r in rates_between(f):
            assert_matches_full_search(f, r)


@pytest.mark.parametrize("build", [classical, sandwiched_qubit, szego],
                         ids=["classical", "sandwiched-qubit", "szego"])
def test_certified_signs_halve_the_distinct_evaluations(build):
    def distinct_evaluations(anti, r):
        f = build()
        fn, seen = f.fn, set()
        f.fn = lambda t: seen.add(t) or fn(t)
        result = anti(f, r)
        assert result.regime == "interior"
        return len(seen)

    r = rates_between(build(), 1)[0]
    assert distinct_evaluations(hoeffding_anti, r) < 0.5 * distinct_evaluations(full_search_anti, r)


@pytest.mark.parametrize("name", sorted(RATES))
def test_each_sign_starts_at_most_one_golden_search(name, monkeypatch):
    # every bisection step, and a grid of thresholds: a sign no bracket
    # settles is read off the same search's final value, not a second one
    searches, per_sign = [], []
    brackets, exceeds = hoeffding._golden_brackets, hoeffding._exceeds

    def counted_brackets(*args):
        searches.append(args)
        return brackets(*args)

    def counted_exceeds(f, a, r):
        searches.clear()
        sign = exceeds(f, a, r)
        per_sign.append(len(searches))
        return sign

    monkeypatch.setattr(hoeffding, "_golden_brackets", counted_brackets)
    monkeypatch.setattr(hoeffding, "_exceeds", counted_exceeds)
    f = RATES[name]()
    for r in rates_between(f):
        hoeffding_anti(f, r)
        hi = f.slope_at_infinity if math.isfinite(f.slope_at_infinity) else r + 1.0
        for a in np.linspace(f.right_derivative_at_1 - 0.1, hi + 0.1, 23):
            hoeffding._exceeds(f, a, r)
    assert max(per_sign) <= 1
    # past its slope the linear rate's objective climbs at t_hi: no search at all
    assert sum(per_sign) > 0 or name == "linear"
