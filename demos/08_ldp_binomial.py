"""
====================================================
Large deviations scaffolding on a fair-coin sequence
====================================================
The large-deviation layer works on weighted sample sequences: it
removes finite-size bias from the normalized log-MGF by Richardson
extrapolation, builds a convex rate curve, and then plays both sides of
the game --

  upper:  a Chernoff bound that must dominate every exact finite-n tail,
  lower:  an empirical tilted-measure check whose margins approach zero
          from below, certifying the matching lower bound.

Everything here is checked against the closed-form binomial answer.
"""

import math

import numpy as np

from sconv.ldp import (
    binomial_sequence,
    build_rate_curve,
    chernoff_upper,
    exact_tail_rate,
    gartner_ellis_lower_check,
)

seq = binomial_sequence([256, 512, 1024, 2048, 4096])
x = 0.7
kl = x * math.log(x / 0.5) + (1 - x) * math.log((1 - x) / 0.5)
print(f"tail event: empirical mean >= {x}  (exact rate = KL = {kl:.6f})")
print()

bound = chernoff_upper(build_rate_curve(seq, np.linspace(0.0, 8.0, 641)), x)
print(f"Chernoff upper bound on the tail rate: {bound:.6f}")
print(f"{'n':>6} {'exact (1/n) log P':>18} {'slack under bound':>18}")
for n in seq.n_list:
    exact = exact_tail_rate(seq, n, x)
    print(f"{n:6d} {exact:18.6f} {bound - exact:18.6f}")
print()

verdict = gartner_ellis_lower_check(build_rate_curve(seq, np.linspace(-1.0, 4.0, 201)),
                                    x, (x, 1.0), delta_fraction=1.0 / 6.0)
print("tilted-measure lower bound (margins must rise to 0 from below):")
print(f"{'n':>6} {'margin':>12}")
for n, m in verdict.margins:
    print(f"{n:6d} {m:12.6f}")
print()
print(f"tilt point t_x = {verdict.t_x:.6f},"
      f" tilted mass in window = {verdict.tilted_mass:.5f}")
print(f"Legendre value at x = {verdict.curve.legendre(x):.8f}"
      f"   (KL = {kl:.8f})")
print(f"final margin = {verdict.final_margin:.6f}")
