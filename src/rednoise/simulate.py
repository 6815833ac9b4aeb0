"""Linearly restoring systems driven by red noise, discrete and continuous.

The discrete system is an AR(1) chain whose forcing is itself AR(1):

    X_{k+1} = psi X_k + sigma eps_k,   eps_{k+1} = phi eps_k + z_k

The continuous counterpart is the linear SDE ``dX = -lam X dt + sigma U dt``
driven by the OU process ``dU = -theta U dt + dW``.  The pair ``(U, X)`` is a
linear Gaussian system, so :func:`simulate_exact` samples it exactly at any
step, with none of the Euler bias that the explicit Euler reference in
``tests/oracles.py`` shows over ``increments(RedOuDt(theta), dt, n, stream)``.
The two systems are linked by ``lam = -ln(psi)``, ``theta = -ln(phi)`` and
share the closed-form stationary autocovariance

    r(tau) = sigma^2 (lam e^{-theta|tau|} - theta e^{-lam|tau|}) / (lam - theta)

returned by :func:`stationary_autocorr`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import _ar1_recursion
from .series import (_BLOCK, TimeSeries, _check_finite, _check_fraction,
                     _check_n, _check_positive, _check_rate, _check_square)
from .streams import GaussianStream

__all__ = ["DiscreteSystemParams", "ContinuousSystemParams",
           "continuous_from_discrete", "simulate_discrete", "simulate_exact",
           "stationary_autocorr"]


@dataclass(frozen=True)
class DiscreteSystemParams:
    """Parameters of the discrete doubly-AR(1) system (unit time step)."""

    psi: float
    phi: float
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        _check_fraction(self.psi, "psi")
        _check_fraction(self.phi, "phi")
        _check_square(_check_positive(self.sigma, "sigma"), "sigma", nonzero=True)
        _check_finite(self.x0, "x0")


@dataclass(frozen=True)
class ContinuousSystemParams:
    """Parameters of the restoring SDE with OU forcing."""

    lam: float
    theta: float
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        _check_rate(self.lam, "lam")
        _check_rate(self.theta, "theta")
        _check_square(_check_positive(self.sigma, "sigma"), "sigma", nonzero=True)
        _check_finite(self.x0, "x0")


def continuous_from_discrete(params: DiscreteSystemParams) -> ContinuousSystemParams:
    """Map (psi, phi) to the matching continuous rates (-ln psi, -ln phi)."""
    return ContinuousSystemParams(lam=-np.log(params.psi), theta=-np.log(params.phi),
                                  sigma=params.sigma, x0=params.x0)


def _cascade(coeff_u: float, scale_u: float, coeff_x: float, x0: float,
             gain: float, n_out: int, stream: GaussianStream,
             cross: tuple[float, float] | None = None) -> np.ndarray:
    """``n_out`` values of a two-stage AR(1) cascade, one per step.

    ``U_{k+1} = coeff_u U_k + scale_u z_k`` with ``U_0 = 0`` drives
    ``X_{k+1} = coeff_x X_k + U_k gain`` with ``X_0 = x0``; returns
    ``X_0 .. X_{n_out-1}`` from ``max(n_out - 2, 0)`` draws.  With
    ``cross = (c_u, c_x)`` each step instead draws an interleaved pair
    ``(z_k, w_k)``, ``2 (n_out - 1)`` draws in all, and X is driven by
    ``(U_k gain + c_u z_k) + c_x w_k``: the innovation of X shares ``z_k``
    with that of U.  Steps run in ``_BLOCK``-step blocks, and each block
    restarts from the last U and the last X written: this gives the bytes of
    one pass over the whole path.  U is solved in one reused block, and each
    block of X is formed and solved in place in the output.
    """
    n_steps = n_out - 1                  # X steps; they read U_0 .. U_{n_steps-1}
    out = np.empty(n_out)
    out[0] = x0
    u = np.zeros(min(_BLOCK, n_steps) + 1)           # U_start .. U_stop
    for start in range(0, n_steps, _BLOCK):
        stop = min(start + _BLOCK, n_steps)
        if cross is None:
            # U_start .. U_stop, but no step reads U_{n_steps}, so the last
            # block draws one fewer
            z = zu = stream.fill(min(stop, n_steps - 1) - start)
        else:
            z = stream.fill(2 * (stop - start))
            zu = z[0::2]
        np.multiply(zu, scale_u, out=u[1:zu.size + 1])
        _ar1_recursion(coeff_u, u[:zu.size + 1])
        x = out[start:stop + 1]          # X_start, then this block's forcing
        np.multiply(u[:stop - start], gain, out=x[1:])
        if cross is not None:            # the cross terms, in place on the draws
            for k, coeff in enumerate(cross):
                z[k::2] *= coeff
                x[1:] += z[k::2]
        _ar1_recursion(coeff_x, x)
        u[0] = u[zu.size]
        del z, zu                        # free the draws before the next draw
    return out


def simulate_discrete(params: DiscreteSystemParams, n: int,
                      stream: GaussianStream) -> TimeSeries:
    """Run the discrete system for ``n`` steps (unit grid).

    Returns ``[X_0, ..., X_{n-1}]`` with ``X_0 = x0`` and ``eps_0 = 0``;
    consumes ``n - 2`` draws (the innovations z_0 .. z_{n-3}).
    """
    n = _check_n(n)
    values = _cascade(params.phi, 1.0, params.psi, params.x0,
                      gain=params.sigma, n_out=n, stream=stream)
    return TimeSeries(dt=1.0, values=values)


# Below this max(lam, theta) * h the closed-form covariances of _exact_step
# lose up to about 3 / (max(lam, theta) h)^2 ulps to cancellation, so their
# Taylor series is summed instead; ten terms leave a remainder below 1e-19.
_SERIES_BELOW = 0.05
_SERIES_TERMS = 10


def _exact_step(params: ContinuousSystemParams,
                h: float) -> tuple[float, float, float, float, float, float]:
    """Transition and innovation covariance of ``(U, X)`` over a step ``h``.

    ``U' = a U + xi`` and ``X' = b X + c U + eta``, with ``a = e^{-theta h}``,
    ``b = e^{-lam h}``, ``c = sigma g(h)`` and
    ``g(s) = (e^{-theta s} - e^{-lam s}) / (lam - theta)``; ``(xi, eta)`` is
    zero-mean Gaussian with covariance ``[[q11, q12], [q12, q22]]``, the
    integral over ``[0, h]`` of ``v v^T``, ``v(s) = (e^{-theta s}, sigma g(s))``.
    Returns ``(a, b, c, q11, q12, q22)``.

    ``g`` is ``e^{-lo h}`` times an ``expm1`` of the rate gap, ``lo`` and
    ``hi`` being the smaller and larger rate.  Within a relative 1e-8 of
    ``lam = theta`` it is the confluent limit ``h e^{-m h}`` at the mean rate
    ``m``, as in :func:`stationary_autocorr`.  The covariance follows from
    ``g`` by integrating ``d(e^{-theta s} g)/ds`` and ``d(g^2)/ds``, which
    divides only by ``lam + theta`` and ``2 hi``; for ``hi h`` below
    ``_SERIES_BELOW`` the Taylor series of the three integrals is summed.
    """
    lam, theta, sigma = params.lam, params.theta, params.sigma
    lo, hi = min(lam, theta), max(lam, theta)
    a, b = np.exp(-theta * h), np.exp(-lam * h)
    if hi - lo < 1e-8 * hi:
        g = h * np.exp(-0.5 * (lam + theta) * h)
    else:
        g = np.exp(-lo * h) * -np.expm1(-(hi - lo) * h) / (hi - lo)
    if hi * h < _SERIES_BELOW:
        # with s = h t: e^{-theta s} = sum q_j t^j, g(s) = h sum r_j t^j, and
        # g' = e^{-theta s} - lam g fixes r; int_0^1 t^(i+j) dt = 1/(i+j+1)
        q, r = np.zeros(_SERIES_TERMS), np.zeros(_SERIES_TERMS)
        q[0] = 1.0
        for j in range(1, _SERIES_TERMS):
            q[j] = -theta * h * q[j - 1] / j
            r[j] = (q[j - 1] - lam * h * r[j - 1]) / j
        k = np.arange(_SERIES_TERMS)
        hilbert = 1.0 / (k[:, None] + k[None, :] + 1.0)
        i11, i12, i22 = q @ hilbert @ q * h, q @ hilbert @ r * h * h, \
            r @ hilbert @ r * h ** 3
    else:
        i11 = -np.expm1(-2.0 * theta * h) / (2.0 * theta)
        i12 = (i11 - a * g) / (lam + theta)
        # int_0^h e^{-lo s} g ds (i12 when theta is the smaller rate), then
        # 2 hi int g^2 = 2 int e^{-lo s} g - g^2 since g' = e^{-lo s} - hi g
        i_lo = (-np.expm1(-2.0 * lo * h) / (2.0 * lo) - np.exp(-lo * h) * g) \
            / (lam + theta)
        i22 = (2.0 * i_lo - g * g) / (2.0 * hi)
    return a, b, sigma * g, i11, sigma * i12, sigma * sigma * i22


def simulate_exact(params: ContinuousSystemParams, dt: float, n_out: int,
                   stream: GaussianStream) -> TimeSeries:
    """Sample the restoring SDE exactly on a grid of step ``dt``.

    ``(U, X)`` advances by the exact Gaussian transition of
    :func:`_exact_step`: ``U' = a U + l11 z``,
    ``X' = b X + c U + l21 z + l22 w``, where ``[[l11, 0], [l21, l22]]`` is
    the Cholesky factor of the innovation covariance.  U starts at 0 and X at
    ``x0``; ``n_out`` values of X are returned (the first is ``x0``).  Each
    step takes one interleaved pair ``(z, w)``, ``2 (n_out - 1)`` draws in
    all.  There is no fine grid, no step limit and no Euler bias: the
    marginals at the grid times are those of the SDE for any ``dt``.  Blocks
    of ``_BLOCK`` steps keep the working memory beyond the output to a few
    blocks, and the bytes do not depend on the block size.
    """
    dt = _check_positive(dt, "dt")
    n_out = _check_n(n_out, "n_out")
    a, b, c, q11, q12, q22 = _exact_step(params, dt)
    l11 = np.sqrt(q11)
    l21 = q12 / l11
    l22 = np.sqrt(max(q22 - l21 * l21, 0.0))
    values = _cascade(a, l11, b, params.x0, c, n_out, stream, cross=(l21, l22))
    return TimeSeries(dt=dt, values=values)


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
