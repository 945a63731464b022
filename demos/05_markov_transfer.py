"""
===============================================
Markov chains: transfer-matrix cumulant limits
===============================================
For a pair of two-state Markov chains the per-symbol cumulant
(1/n) psi_n converges to the log Perron root of the tilted transfer
matrix.  Error pairs come from exact run-length combinatorics, so the
strong-converse reports work at n in the thousands.  This script shows
the convergence, then locates the regime boundary of the reports at the
relative entropy *rate* of the chain pair.
"""

import numpy as np

from sconv.families import (
    MarkovPayload,
    markov_psi_limit,
    markov_psi_n,
    markov_rate,
    markov_relent_rate,
)
from sconv.hyptest import sc_report

payload = MarkovPayload(
    pi0=np.array([0.6, 0.4]), pi1=np.array([0.5, 0.5]),
    P0=np.array([[0.7, 0.3], [0.4, 0.6]]),
    P1=np.array([[0.5, 0.5], [0.55, 0.45]]),
)

alpha = 1.7
limit = markov_psi_limit(payload, alpha)
print(f"alpha = {alpha}: log Perron root = {limit:.8f}")
print(f"{'n':>6} {'psi_n/n':>12} {'|gap|':>10}")
for n in (8, 32, 128, 512, 2048):
    val = markov_psi_n(payload, alpha, n) / n
    print(f"{n:6d} {val:12.8f} {abs(val - limit):10.2e}")

dbar = markov_relent_rate(payload)
rate = markov_rate(payload)
print()
print(f"relative entropy rate D_1 = {dbar:.6f}")
print(f"rate curve right derivative at 1 = {rate.right_derivative_at_1:.6f}")
print()

# reports flip from the zero regime to a positive exponent exactly at D_1
ns = [32, 64, 128, 256]
print(f"{'r':>9} {'regime':>10} {'H*_r':>10} {'fitted beta rate':>17}")
for r in (dbar - 0.01, dbar + 0.005, dbar + 0.02):
    rep = sc_report(payload, float(r), ns, rate=rate)
    print(f"{r:9.5f} {rep.regime:>10} {rep.predicted_H:10.6f}"
          f" {rep.beta_fit.rate:17.6f}")
