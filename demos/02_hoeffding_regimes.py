"""
===================================================
Anti-divergence regimes of the Legendre machinery
===================================================
The Hoeffding anti-divergence H*_r is a Legendre-type transform of the
cumulant rate function f(t).  Depending on the threshold r it lands in
one of three regimes:

  zero         r is below the right derivative of f at 1 (no penalty),
  interior     the defining sup is attained at a finite t > 1,
  linear_tail  r is beyond the reach of f's asymptotic slope and H*_r
               grows linearly with unit slope.

This script sweeps r for the rate function of a binary i.i.d. pair and
prints the regime, the value, and the attaining parameters.
"""

import numpy as np

from sconv.families import IIDPayload, asymptotic_rate
from sconv.hoeffding import hoeffding_anti, polar_detail
from sconv.operators import HermitianOperator
from sconv.renyi import relative_entropy

rho = HermitianOperator(np.diag([0.5, 0.5]))
sigma = HermitianOperator(np.diag([0.25, 0.75]))
family = IIDPayload(rho1=rho, sigma1=sigma)
rate = asymptotic_rate(family, variant="plain")

d1 = relative_entropy(rho, sigma)
dmax = rate.slope_at_infinity
# the linear tail starts at r_max = polar(D_max) + D_max, which sits strictly
# above D_max whenever the polar at the asymptotic slope is positive
r_max = polar_detail(rate, dmax).value + dmax
print(f"relative entropy (zero-regime boundary) D_1   = {d1:.6f}")
print(f"max-divergence  (asymptotic slope)      D_max = {dmax:.6f}")
print(f"linear-tail onset r_max = polar(D_max) + D_max = {r_max:.6f}")
print()

print(f"{'r':>8} {'regime':>12} {'H*_r':>12} {'a_r':>10} {'t*':>10}")
for r in np.concatenate([np.linspace(0.0, d1, 4),
                         np.linspace(d1 + 0.05, r_max, 5),
                         [r_max + 0.3, r_max + 1.0]]):
    h = hoeffding_anti(rate, float(r))
    t = "" if h.attaining_t is None else f"{h.attaining_t:10.4f}"
    a = "" if h.a_r is None else f"{h.a_r:10.4f}"
    print(f"{r:8.4f} {h.regime:>12} {h.value:12.6f} {a:>10} {t:>10}")

print()
print("past the onset the value grows with unit slope from r_max:")
for r in (r_max + 0.3, r_max + 1.0):
    h = hoeffding_anti(rate, r)
    print(f"  r = {r:.4f}:  H*_r - (r - D_max) = {h.value - (r - dmax):.2e}"
          f"   [{h.regime}]")
