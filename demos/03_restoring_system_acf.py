#!/usr/bin/env python3
"""Discrete vs continuous restoring system, and the closed-form ACF.

The discrete chain
    X_{k+1} = psi X_k + sigma eps_k,   eps_{k+1} = phi eps_k + z_k
and the SDE
    dX = -lam X dt + sigma U dt,   dU = -theta U dt + dW
with lam = -ln psi, theta = -ln phi describe the same system on the unit
grid.  The discrete chain runs its recursion; the SDE is sampled by its exact
Gaussian transition over each unit step (two draws per step, no fine Euler
grid, so no Euler bias).  Both empirical autocorrelations should land on
    r(tau) = (lam e^{-theta tau} - theta e^{-lam tau}) / (lam - theta)
apart from sampling noise (up to a few percent at this length).
"""

import numpy as np

from rednoise import restoring_run

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

n = 2_000_000        # paper-scale is 2e7 (`rednoise fig2`); this is the quick size
result = restoring_run(n=n, seed=1)

pc = result.params_continuous
print(f"rates: lam = -ln 0.8 = {pc.lam:.6f}, theta = -ln 0.9 = {pc.theta:.6f}")
print(f"burn-in discarded: {result.burn_in} samples\n")

print(f"{'tau':>4s} {'discrete':>10s} {'continuous':>11s} {'theory':>10s}")
d, c = result.discrete, result.continuous
for i in range(0, 21, 2):
    print(f"{d.taus[i]:4.0f} {d.empirical[i]:10.5f} "
          f"{c.empirical[i]:11.5f} {d.theory[i]:10.5f}")

print(f"\nmax rel deviation, lags 0..20:  discrete {d.max_rel_dev:.2%}, "
      f"continuous {c.max_rel_dev:.2%}")

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(d.taus, d.empirical, "o", ms=4, label="discrete chain")
    ax.plot(c.taus, c.empirical, "s", ms=4, mfc="none", label="continuous SDE")
    ax.plot(d.taus, d.theory, "k-", lw=1, label="closed form")
    ax.set_xlabel("lag tau")
    ax.set_ylabel("autocorrelation")
    ax.legend()
    fig.tight_layout()
    fig.savefig("restoring_acf.png", dpi=120)
    print("wrote restoring_acf.png")
