"""Linearly restoring systems driven by red noise, discrete and continuous.

The discrete system is an AR(1) chain whose forcing is itself AR(1):

    X_{k+1} = psi X_k + sigma eps_k,   eps_{k+1} = phi eps_k + z_k

The continuous counterpart is the linear SDE ``dX = -lam X dt + sigma U dt``
with U the stationary OU process, integrated by explicit Euler on a fine grid
and subsampled.  The two are linked by ``lam = -ln(psi)``, ``theta = -ln(phi)``
and share the closed-form stationary autocovariance

    r(tau) = sigma^2 (lam e^{-theta|tau|} - theta e^{-lam|tau|}) / (lam - theta)

returned by :func:`stationary_autocorr`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import _ar1_recursion, lfilter
from .series import IncrementSeries, TimeSeries
from .streams import GaussianStream

__all__ = ["DiscreteSystemParams", "ContinuousSystemParams", "SimConfig",
           "continuous_from_discrete", "simulate_discrete",
           "simulate_continuous", "euler_integrate", "stationary_autocorr"]

# Fine-grid samples processed per block in simulate_continuous.  Blocked
# filtering with carried state is bit-for-bit identical to filtering the
# whole path at once, so this only caps memory, never changes output.
_CHUNK = 1 << 22


@dataclass(frozen=True)
class DiscreteSystemParams:
    """Parameters of the discrete doubly-AR(1) system (unit time step)."""

    psi: float
    phi: float
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi must lie in (0, 1), got {self.psi}")
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {self.phi}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not np.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")


@dataclass(frozen=True)
class ContinuousSystemParams:
    """Parameters of the restoring SDE with OU forcing."""

    lam: float
    theta: float
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not np.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")


@dataclass(frozen=True)
class SimConfig:
    """Two-level integration config: fine step, subsample stride, output length."""

    dt_fine: float
    subsample: int
    n_out: int

    def __post_init__(self):
        if not (np.isfinite(self.dt_fine) and self.dt_fine > 0):
            raise ValueError(f"dt_fine must be positive, got {self.dt_fine}")
        if int(self.subsample) != self.subsample or self.subsample < 1:
            raise ValueError(f"subsample must be a positive integer, got {self.subsample}")
        if int(self.n_out) != self.n_out or self.n_out < 1:
            raise ValueError(f"n_out must be a positive integer, got {self.n_out}")

    @property
    def dt_out(self) -> float:
        return self.dt_fine * self.subsample


def continuous_from_discrete(params: DiscreteSystemParams) -> ContinuousSystemParams:
    """Map (psi, phi) to the matching continuous rates (-ln psi, -ln phi)."""
    return ContinuousSystemParams(lam=-np.log(params.psi), theta=-np.log(params.phi),
                                  sigma=params.sigma, x0=params.x0)


def simulate_discrete(params: DiscreteSystemParams, n: int,
                      stream: GaussianStream) -> TimeSeries:
    """Run the discrete system for ``n`` steps (unit grid).

    Returns ``[X_0, ..., X_{n-1}]`` with ``X_0 = x0`` and ``eps_0 = 0``;
    consumes ``n - 2`` draws (the innovations z_0 .. z_{n-3}).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    z = stream.fill(max(n - 2, 0))
    eps = _ar1_recursion(params.phi, 1.0, 0.0, z)          # eps_0 .. eps_{n-2}
    x = _ar1_recursion(params.psi, params.sigma, params.x0, eps)
    return TimeSeries(dt=1.0, values=x[:n])


def euler_integrate(lam: float, sigma: float, x0: float,
                    forcing: IncrementSeries | TimeSeries) -> TimeSeries:
    """Explicit Euler for ``dX = -lam X dt + sigma dY`` over a forcing series.

    ``X_{k+1} = X_k - lam X_k dt + sigma dY_k``; returns the n+1 values
    ``X_0 .. X_n`` for n forcing increments, on the forcing grid.  ``lam = 0``
    turns this into a plain cumulative sum (scaled random walk for white
    forcing).
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if not np.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if len(forcing.values) < 1:
        raise ValueError("forcing must be non-empty")
    values = _ar1_recursion(1.0 - lam * forcing.dt, sigma, x0, forcing.values)
    return TimeSeries(dt=forcing.dt, values=values)


def simulate_continuous(params: ContinuousSystemParams, config: SimConfig,
                        stream: GaussianStream) -> TimeSeries:
    """Integrate the restoring SDE on the fine grid and subsample.

    The OU forcing U starts at 0 and is advanced by its exact one-step
    recursion at ``dt_fine``; X is advanced by explicit Euler
    ``X_{k+1} = (1 - lam dt_fine) X_k + sigma U_k dt_fine``; every
    ``subsample``-th fine value of X is emitted, ``n_out`` values in all
    (the first is ``x0``).  Warns if ``lam * dt_fine > 0.05``, where Euler
    bias starts to be visible at the tolerances used elsewhere.

    The path is generated in blocks of ``_CHUNK`` fine steps with filter
    state carried across blocks; the output is bit-for-bit the same as
    single-shot generation from the same stream, and identical to
    ``euler_integrate`` applied to the same OU-times-dt forcing.
    """
    lam, theta, sigma = params.lam, params.theta, params.sigma
    dt = config.dt_fine
    sub = int(config.subsample)
    n_out = int(config.n_out)
    if lam * dt > 0.05:
        warnings.warn(
            f"lam*dt_fine = {lam * dt:.3g} > 0.05: Euler discretization error "
            "may exceed the tolerances this package is validated at",
            RuntimeWarning, stacklevel=2)

    out = np.empty(n_out)
    out[0] = params.x0
    if n_out == 1:
        return TimeSeries(dt=config.dt_out, values=out)

    n_force = (n_out - 1) * sub          # forcing increments f_k = U_k * dt
    coeff_u = np.exp(-theta * dt)
    scale_u = np.sqrt(-np.expm1(-2.0 * theta * dt) / (2.0 * theta))
    coeff_x = 1.0 - lam * dt
    zi_u = np.array([coeff_u * 0.0])     # U_0 = 0
    zi_x = np.array([coeff_x * params.x0])
    n_written = 1
    for start in range(0, n_force, _CHUNK):
        stop = min(start + _CHUNK, n_force)
        # U values on fine indices [start, stop); index 0 is the literal 0.
        if start == 0:
            u = np.empty(stop)
            u[0] = 0.0
            if stop > 1:
                u[1:], zi_u = lfilter([scale_u], [1.0, -coeff_u],
                                      stream.fill(stop - 1), zi=zi_u)
        else:
            u, zi_u = lfilter([scale_u], [1.0, -coeff_u],
                              stream.fill(stop - start), zi=zi_u)
        # X values on fine indices [start+1, stop+1)
        x, zi_x = lfilter([sigma], [1.0, -coeff_x], u * dt, zi=zi_x)
        first = -(-(start + 1) // sub) * sub        # first multiple of sub >= start+1
        picked = x[first - (start + 1)::sub]
        out[n_written:n_written + picked.size] = picked
        n_written += picked.size
    return TimeSeries(dt=config.dt_out, values=out)


def stationary_autocorr(params: ContinuousSystemParams, tau) -> float:
    """Closed-form stationary autocorrelation of the continuous system.

    ``(lam e^{-theta|tau|} - theta e^{-lam|tau|}) / (lam - theta)``, equal to
    1 at lag 0.  Within a relative 1e-8 of ``lam = theta`` the formula loses
    half its mantissa to cancellation, so the confluent limit
    ``e^{-m|tau|} (1 + m|tau|)`` is returned instead, with
    ``m = (lam + theta)/2`` — the mean rate rather than either one, so that
    exchanging ``lam`` and ``theta`` gives the identical result in every
    branch (it does in the main branch too: negating both numerator and
    denominator is exact in floating point).
    """
    lam, theta = params.lam, params.theta
    tau = abs(float(tau))
    if abs(lam - theta) < 1e-8 * max(lam, theta):
        m = 0.5 * (lam + theta)
        return float(np.exp(-m * tau) * (1.0 + m * tau))
    return float((lam * np.exp(-theta * tau) - theta * np.exp(-lam * tau))
                 / (lam - theta))
