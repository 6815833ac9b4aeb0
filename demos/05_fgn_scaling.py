#!/usr/bin/env python3
"""Fractional Gaussian noise: one knob, a whole family of spectral slopes.

fGn increments with Hurst parameter H have spectrum ~ omega^(1-2H):
  H = 0.5  -> white (slope 0)
  H > 0.5  -> long memory, power piles up at low frequency
  H < 0.5  -> anti-persistent, spectrum *rises* with frequency
The sampler uses circulant embedding, so the covariance structure is exact
to machine precision — the fitted slopes below should miss 1-2H only
through periodogram noise and the mild curvature of the discrete spectrum.
"""

import numpy as np

from rednoise import (Fgn, GaussianStream, band_average, increments,
                      loglog_slope, periodogram, theoretical_psd)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

n = 2**19
band_width = 128
fit_lo, fit_hi = 0.01, 0.3

print(f"{'H':>5s} {'fitted slope':>13s} {'1-2H':>7s}")
curves = {}
for hurst in (0.3, 0.5, 0.6, 0.7, 0.8):
    incr = increments(Fgn(hurst), 1.0, n, GaussianStream(0))
    avg = band_average(periodogram(incr), band_width)
    slope, _ = loglog_slope(avg, fit_lo, fit_hi)
    curves[hurst] = avg
    print(f"{hurst:5.1f} {slope:13.3f} {1 - 2 * hurst:7.1f}")

print("\n(the spectral amplitude is a free constant; only the exponent "
      "is pinned)")

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    for hurst, avg in curves.items():
        line, = ax.loglog(avg.omegas, avg.powers, lw=0.8, label=f"H={hurst:g}")
        shape = theoretical_psd(Fgn(hurst), avg.omegas)
        # anchor the free amplitude at the middle of the fit window
        mid = np.searchsorted(avg.omegas, 0.05)
        ax.loglog(avg.omegas, shape * avg.powers[mid] / shape[mid], "--",
                  lw=0.6, color=line.get_color())
    ax.set_xlabel("omega")
    ax.set_ylabel("band-averaged power")
    ax.legend(ncols=2)
    fig.tight_layout()
    fig.savefig("fgn_scaling.png", dpi=120)
    print("wrote fgn_scaling.png")
