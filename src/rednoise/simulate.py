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

from .models import _ar1_recursion, _ou_step
from .series import TimeSeries
from .streams import GaussianStream

__all__ = ["DiscreteSystemParams", "ContinuousSystemParams",
           "continuous_from_discrete", "simulate_discrete",
           "simulate_continuous", "euler_integrate", "stationary_autocorr"]

# Steps processed per block by both simulators.  Blocked filtering with
# carried state is bit-for-bit identical to filtering the whole path at once,
# so this only caps memory, never changes output.
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


def continuous_from_discrete(params: DiscreteSystemParams) -> ContinuousSystemParams:
    """Map (psi, phi) to the matching continuous rates (-ln psi, -ln phi)."""
    return ContinuousSystemParams(lam=-np.log(params.psi), theta=-np.log(params.phi),
                                  sigma=params.sigma, x0=params.x0)


def _cascade(coeff_u: float, scale_u: float, coeff_x: float, sigma: float,
             x0: float, dt: float, sub: int, n_out: int,
             stream: GaussianStream) -> np.ndarray:
    """Every ``sub``-th value of a two-stage AR(1) cascade, ``n_out`` in all.

    ``U_{k+1} = coeff_u U_k + scale_u z_k`` with ``U_0 = 0`` drives
    ``X_{k+1} = coeff_x X_k + sigma (U_k dt)`` with ``X_0 = x0``; returns
    ``X_0, X_sub, X_2sub, ...`` from ``max((n_out - 1) sub - 1, 0)`` draws.
    Steps run in ``_CHUNK``-step blocks, and only the last U and the last X
    carry from block to block: restarting the recursion from them gives the
    bytes of one pass over the whole path.
    """
    n_steps = (n_out - 1) * sub          # X steps; they read U_0 .. U_{n_steps-1}
    out = np.empty(n_out)
    out[0] = x0
    u_last, x_last = 0.0, x0
    for start in range(0, n_steps, _CHUNK):
        stop = min(start + _CHUNK, n_steps)
        # U_start .. U_stop, but no step reads U_{n_steps}, so the last block
        # draws one fewer
        u = _ar1_recursion(coeff_u, scale_u, u_last,
                           stream.fill(min(stop, n_steps - 1) - start))
        u_last = u[-1]
        f = u[:stop - start]
        f *= dt                          # in place: no second block for U dt
        x = _ar1_recursion(coeff_x, sigma, x_last, f)       # X_start .. X_stop
        x_last = x[-1]
        first = -(-(start + 1) // sub)   # output index of the first X past X_start
        out[first:stop // sub + 1] = x[first * sub - start::sub]
        del u, f, x                      # free the blocks before the next draw
    return out


def simulate_discrete(params: DiscreteSystemParams, n: int,
                      stream: GaussianStream) -> TimeSeries:
    """Run the discrete system for ``n`` steps (unit grid).

    Returns ``[X_0, ..., X_{n-1}]`` with ``X_0 = x0`` and ``eps_0 = 0``;
    consumes ``n - 2`` draws (the innovations z_0 .. z_{n-3}).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    values = _cascade(params.phi, 1.0, params.psi, params.sigma, params.x0,
                      dt=1.0, sub=1, n_out=n, stream=stream)
    return TimeSeries(dt=1.0, values=values)


def _check_euler_step(lam: float, dt: float):
    if lam * dt >= 2.0:
        raise ValueError(f"Euler diverges for lam*dt >= 2, got lam*dt={lam * dt}")


def euler_integrate(lam: float, sigma: float, x0: float,
                    forcing: TimeSeries) -> TimeSeries:
    """Explicit Euler for ``dX = -lam X dt + sigma dY`` over a forcing series.

    ``X_{k+1} = X_k - lam X_k dt + sigma dY_k``; returns the n+1 values
    ``X_0 .. X_n`` for n forcing increments, on the forcing grid.  ``lam = 0``
    turns this into a plain cumulative sum (scaled random walk for white
    forcing).  ``lam*dt`` must stay below 2, where the Euler step diverges.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    _check_euler_step(lam, forcing.dt)
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if not np.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if len(forcing.values) < 1:
        raise ValueError("forcing must be non-empty")
    values = _ar1_recursion(1.0 - lam * forcing.dt, sigma, x0, forcing.values)
    return TimeSeries(dt=forcing.dt, values=values)


def simulate_continuous(params: ContinuousSystemParams, dt_fine: float,
                        subsample: int, n_out: int,
                        stream: GaussianStream) -> TimeSeries:
    """Integrate the restoring SDE on the fine grid and subsample.

    The OU forcing U starts at 0 and is advanced by its exact one-step
    recursion at ``dt_fine``; X is advanced by explicit Euler
    ``X_{k+1} = (1 - lam dt_fine) X_k + sigma U_k dt_fine``; every
    ``subsample``-th fine value of X is emitted, ``n_out`` values in all
    (the first is ``x0``), on the grid ``dt_fine * subsample``.  Consumes
    ``max((n_out - 1) subsample - 1, 0)`` draws.  Rejects
    ``lam * dt_fine >= 2``, where Euler diverges, and warns if
    ``lam * dt_fine > 0.05``, where Euler bias starts to be visible at the
    tolerances used elsewhere.

    The output is identical to ``euler_integrate`` applied to the same
    OU-times-dt forcing; it is generated in ``_CHUNK``-step blocks, so the
    working memory beyond the output is a few blocks.
    """
    if not (np.isfinite(dt_fine) and dt_fine > 0):
        raise ValueError(f"dt_fine must be positive, got {dt_fine}")
    if int(subsample) != subsample or subsample < 1:
        raise ValueError(f"subsample must be a positive integer, got {subsample}")
    if int(n_out) != n_out or n_out < 1:
        raise ValueError(f"n_out must be a positive integer, got {n_out}")
    lam, dt = params.lam, float(dt_fine)
    _check_euler_step(lam, dt)
    if lam * dt > 0.05:
        warnings.warn(
            f"lam*dt_fine = {lam * dt:.3g} > 0.05: Euler discretization error "
            "may exceed the tolerances this package is validated at",
            RuntimeWarning, stacklevel=2)
    values = _cascade(*_ou_step(params.theta, dt), 1.0 - lam * dt, params.sigma,
                      params.x0, dt, int(subsample), int(n_out), stream)
    return TimeSeries(dt=dt * int(subsample), values=values)


def stationary_autocorr(params: ContinuousSystemParams,
                        tau) -> np.ndarray | float:
    """Closed-form stationary autocorrelation of the continuous system.

    ``(lam e^{-theta|tau|} - theta e^{-lam|tau|}) / (lam - theta)``, equal to
    1 at lag 0.  Within a relative 1e-8 of ``lam = theta`` the formula loses
    half its mantissa to cancellation, so the confluent limit
    ``e^{-m|tau|} (1 + m|tau|)`` is returned instead, with
    ``m = (lam + theta)/2`` — the mean rate rather than either one, so that
    exchanging ``lam`` and ``theta`` gives the identical result in every
    branch (it does in the main branch too: negating both numerator and
    denominator is exact in floating point).  An array ``tau`` gives an
    array, elementwise the same bits as scalar calls; a scalar gives a float.
    """
    lam, theta = params.lam, params.theta
    tau = np.abs(np.asarray(tau, dtype=np.float64))
    if abs(lam - theta) < 1e-8 * max(lam, theta):
        m = 0.5 * (lam + theta)
        out = np.exp(-m * tau) * (1.0 + m * tau)
    else:
        out = (lam * np.exp(-theta * tau) - theta * np.exp(-lam * tau)) \
            / (lam - theta)
    return out if out.ndim else float(out)
