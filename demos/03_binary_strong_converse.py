"""
====================================================
Strong-converse exponents for a binary pair, exactly
====================================================
Above the relative entropy the type-I success probability of optimal
Neyman-Pearson tests decays exponentially.  For classical binary pairs
the package computes the error pairs through exact binomial tail sums,
so block sizes in the thousands are cheap and the fitted decay rates can
be compared against the Legendre-transform predictions

    success rate -> phi(a) = sup_{t>1} ( a(t-1) - psi(t) ) / t
    type-II rate -> phi(a) + a.
"""

import numpy as np

from sconv.families import IIDPayload, asymptotic_rate
from sconv.hoeffding import polar_detail
from sconv.hyptest import exponent_sweep, fit_rate
from sconv.operators import HermitianOperator
from sconv.renyi import relative_entropy

rho = HermitianOperator(np.diag([0.5, 0.5]))
sigma = HermitianOperator(np.diag([0.25, 0.75]))
family = IIDPayload(rho1=rho, sigma1=sigma)
rate = asymptotic_rate(family, variant="plain")

d1 = relative_entropy(rho, sigma)
a = 0.5 * (d1 + rate.slope_at_infinity)  # midpoint of the strong-converse band
phi = polar_detail(rate, a).value
print(f"threshold a            = {a:.6f}  (D_1 = {d1:.6f})")
print(f"predicted success rate = {phi:.6f}")
print(f"predicted type-II rate = {phi + a:.6f}")
print()

ns = [256, 512, 1024, 2048, 4096]
report = exponent_sweep(family, a, ns, rate=rate)
print(f"engine: {report.provenance}")
print(f"{'n':>6} {'-log(success)/n':>16} {'-log(beta)/n':>14}")
for ep in report.per_n:
    print(f"{ep.n:6d} {-ep.log_success / ep.n:16.6f} {-ep.log_beta / ep.n:14.6f}")

pos_fit = fit_rate(ns, [ep.log_pos_part for ep in report.per_n])
print()
print(f"fitted positive-part rate = {pos_fit.rate:.6f}"
      f"   (|err| = {abs(pos_fit.rate - phi):.2e}, R^2 = {pos_fit.r_squared:.6f})")
print(f"fitted type-II rate       = {report.beta_fit.rate:.6f}"
      f"   (|err| = {abs(report.beta_fit.rate - (phi + a)):.2e},"
      f" R^2 = {report.beta_fit.r_squared:.6f})")
