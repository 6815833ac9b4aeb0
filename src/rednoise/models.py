"""Noise differential families: samplers and closed-form oracles.

Six families of increment processes ``dY`` on a uniform grid of step ``dt``
are supported, written here as the per-step increment ``dY_k``:

================  ==========================================================
``White``         ``dY_k = sqrt(dt) z_k`` — Brownian increments, flat unit PSD
``RedOuDt``       ``dY_k = U_k dt`` — Ornstein-Uhlenbeck process times dt
                  (left-endpoint rule), PSD ``1/(theta^2 + omega^2)``
``DiffU``         ``dY_k = U_{k+1} - U_k`` — OU increments,
                  PSD ``omega^2/(theta^2 + omega^2)``
``Mixed``         ``dY_k = gamma U_k dt + dW_k`` with U driven by the same
                  Brownian stream, PSD ``((gamma+theta)^2+omega^2)/(theta^2+omega^2)``
``Ar1Driven``     ``dY_k = eps_k`` with eps an AR(1) sequence; unit grid only
``Fgn``           fractional Gaussian noise: increments of fractional
                  Brownian motion, PSD shape ``omega^(1-2H)``
================  ==========================================================

The OU process is sampled exactly (AR(1) recursion with coefficient
``exp(-theta*dt)``), so the sampled path has the law of the continuous process
on the grid.  Fractional Gaussian noise is sampled exactly in distribution by
circulant embedding.  Beside the limiting densities, the finite-horizon
densities of the red and mixed models have closed forms
(:func:`finite_psd_theoretical`, built from two OU kernels).  All
randomness is drawn from a :class:`~rednoise.streams.GaussianStream` in a
documented order, so every sampler is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from ._scipy import extension
from .series import (_BLOCK, _TINY, TimeSeries, _check_finite, _check_fraction,
                     _check_n, _check_positive, _check_rate, _check_square)
from .spectral import _irfft, _rfft
from .streams import GaussianStream

__all__ = [
    "White", "RedOuDt", "DiffU", "Mixed", "Ar1Driven", "Fgn", "NoiseModel",
    "ou_exact_sample", "ou_autocov", "ou_increment_cov", "fgn_increment_cov",
    "increments", "theoretical_psd", "psd_kernel_auto", "psd_kernel_cross",
    "finite_psd_theoretical", "parse_model",
]

# exp(-x) is subnormal (or zero) for x beyond _LOG_TINY, about 708.4.
_LOG_TINY = -np.log(_TINY)

# Bytes in the largest array numpy can make.
_MAX_BYTES = np.iinfo(np.intp).max

# Points per BLAS solve in _ar1_recursion; its band is 2 x _AR1_BLOCK
# doubles (64 KB).
_AR1_BLOCK = 2**12


# ---------------------------------------------------------------------------
# model variants (tagged union)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class White:
    """Brownian increments."""


@dataclass(frozen=True)
class RedOuDt:
    """OU process times dt: the continuous-time red-noise differential."""

    theta: float

    def __post_init__(self):
        _check_rate(self.theta, "theta")


@dataclass(frozen=True)
class DiffU:
    """Increments of the OU process itself."""

    theta: float

    def __post_init__(self):
        _check_rate(self.theta, "theta")


@dataclass(frozen=True)
class Mixed:
    """Red drift plus the driving Brownian increments, sharing one stream."""

    theta: float
    gamma: float

    def __post_init__(self):
        _check_rate(self.theta, "theta")
        _check_square(_check_finite(self.gamma, "gamma"), "gamma")


@dataclass(frozen=True)
class Ar1Driven:
    """AR(1) sequence used directly as increments; defined on the unit grid."""

    phi: float

    def __post_init__(self):
        _check_fraction(self.phi, "phi")


@dataclass(frozen=True)
class Fgn:
    """Fractional Gaussian noise with Hurst exponent ``hurst``."""

    hurst: float

    def __post_init__(self):
        _check_fraction(self.hurst, "hurst")


NoiseModel = Union[White, RedOuDt, DiffU, Mixed, Ar1Driven, Fgn]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _ar1_recursion(coeff: float, y: np.ndarray) -> np.ndarray:
    """Solve ``x_{k+1} = coeff x_k + y_{k+1}`` in place in ``y``; returns ``y``.

    ``y[0]`` is the start ``x_0`` and ``y[1:]`` the scaled innovations; they
    are overwritten by ``x_1 .. x_n``.  BLAS ``dtbsv``, the routine of
    ``scipy.linalg.blas`` taken from scipy's ``_fblas`` extension alone
    (about 5 ms instead of the 0.3-0.4 s ``scipy.linalg`` import), solves
    ``(I - coeff S) x = r`` in ``_AR1_BLOCK``-point blocks, each first adding
    ``coeff`` times the last value solved to its first ``r``; nothing is
    allocated but the band.  Rounding contract: with ``y[1:] = scale * z``,
    the bits of scipy's ``lfilter([scale], [1, -coeff], z, zi=[coeff x_0])``
    at every block size.  The band is stored in upper form, rows
    ``[-coeff, 1]``, and solved transposed with a unit diagonal, so each
    step is ``r_k - (-coeff) x_{k-1}``: one rounded product, then one
    rounded sum, as in ``lfilter``.  The lower, non-transposed form runs
    through OpenBLAS's fused multiply-add kernel and rounds differently.
    """
    dtbsv = extension("linalg", "_fblas", "BLAS").dtbsv
    band = np.empty((2, min(_AR1_BLOCK, y.size - 1)), order="F")
    band[0] = -coeff
    band[1] = 1.0
    for a in range(1, y.size, _AR1_BLOCK):
        b = min(a + _AR1_BLOCK, y.size)
        y[a] += coeff * y[a - 1]
        dtbsv(1, band[:, :b - a], y[a:b], trans=1, diag=1, overwrite_x=1)
    return y


def _stationary_start(scale: float, root: float, n: int,
                      stream: GaussianStream) -> np.ndarray:
    """One ``fill(n)``, made ready for :func:`_ar1_recursion` in place.

    The first draw divided by ``root``, the square root of the stationary
    precision, is ``x_0``; the other ``n - 1`` times ``scale`` are the
    innovations of ``x_{k+1} = coeff x_k + scale z_k``.
    """
    y = stream.fill(n)
    y[0] /= root
    y[1:] *= scale
    return y


def _check_sampling(model: NoiseModel, dt: float, n: int,
                    what: str | None = None) -> tuple[float, int]:
    """Every precondition of sampling ``n`` increments of ``model`` at step
    ``dt``, checked before any draw; returns ``(dt, n)`` as float and int.

    A count whose working array (n values, n+1 for ``DiffU`` and ``Mixed``,
    2n for ``Fgn``) no array can hold is named as ``what`` (``n=<n>``).
    """
    dt = _check_positive(dt, "dt")
    n = _check_n(n)
    if not isinstance(model, NoiseModel):
        raise TypeError(f"not a noise model: {model!r}")
    size = 2 * n if isinstance(model, Fgn) else n + isinstance(model, (DiffU, Mixed))
    if 8 * size > _MAX_BYTES:
        raise ValueError(f"{what or f'n={n}'} gives a working array larger "
                         f"than the {_MAX_BYTES} bytes an array can hold")
    if isinstance(model, (RedOuDt, DiffU, Mixed)):
        theta = float(model.theta)
        if isinstance(model, Mixed) and theta * dt >= 1.0:
            # the Euler coefficient 1 - theta*dt would be <= 0: U alternates
            # in sign (and diverges from theta*dt = 2)
            raise ValueError("Mixed advances U by Euler and needs theta*dt < 1, "
                             f"got theta*dt={theta * dt}")
        # An OU step moves the path by about sqrt(2 theta dt) stationary sds;
        # below 2 theta dt = 2**-106 that is under 2**-53 of one, so every
        # step rounds back to the start and the path is a constant.
        if 2.0 * theta * dt < 2.0**-106:
            raise ValueError(
                f"theta={model.theta} with dt={dt} gives an OU step whose "
                "innovation is below 2**-53 of the stationary sd, lost in "
                "rounding (need 2*theta*dt >= 2**-106)")
    if isinstance(model, (RedOuDt, Mixed)):
        # U has sd at most 1/sqrt(theta), so the increment gamma U dt (+ dW
        # for mixed; gamma = 1 for red) has sd below `sd`; a normal value
        # beyond 16 sd has probability under 1e-57
        mixed = isinstance(model, Mixed)
        gamma = abs(float(model.gamma)) if mixed else 1.0
        sd = gamma * dt / math.sqrt(model.theta) + math.sqrt(dt)
        if 16.0 * sd == math.inf:
            names = f"theta={model.theta}" + (f", gamma={model.gamma}" if mixed else "")
            raise ValueError(f"{names} with dt={dt} gives increments beyond the "
                             "float64 range (16 sd of the drift overflows)")
    # the continuum scaling of AR(1) noise is not well defined
    if isinstance(model, Ar1Driven) and dt != 1.0:
        raise ValueError(
            "Ar1Driven increments are defined only on the unit grid (dt=1); "
            f"got dt={dt}")
    return dt, n


def _ou_path(theta: float, dt: float, n: int, stream: GaussianStream) -> np.ndarray:
    """The stationary OU path at ``n`` grid points, solved in one ``fill(n)``."""
    coeff = np.exp(-theta * dt)
    scale = np.sqrt(-np.expm1(-2.0 * theta * dt) / (2.0 * theta))
    y = _stationary_start(scale, np.sqrt(2.0 * theta), n, stream)
    return _ar1_recursion(coeff, y)


def ou_exact_sample(theta: float, dt: float, n: int,
                    stream: GaussianStream) -> TimeSeries:
    """Sample the stationary OU process exactly on a grid of step ``dt``.

    The recursion ``q_{k+1} = exp(-theta dt) q_k + s z_k`` with
    ``s = sqrt((1 - exp(-2 theta dt)) / (2 theta))`` has the same
    finite-dimensional marginals as the continuous process at the grid times,
    for any step size.  ``q_0 ~ N(0, 1/(2 theta))`` is the first of the
    ``n`` draws, then come the ``n - 1`` innovations.  A step with
    ``2 theta dt < 2**-106``, whose innovations would round away, is
    rejected before any draw.
    """
    # the path of DiffU, whose checks it takes (DiffU's working array holds
    # one value more, which matters only at the largest n)
    dt, n = _check_sampling(DiffU(theta), dt, n)
    return TimeSeries(dt=dt, values=_ou_path(theta, dt, n, stream))


def _fgn_values(hurst: float, dt: float, n: int, stream: GaussianStream) -> np.ndarray:
    """``n`` fractional Gaussian noise increments, exact by circulant
    embedding, from ``2n`` draws.

    The 2n-point embedding of ``fgn_increment_cov`` is nonnegative definite
    for every n and H (Dietrich & Newsam 1997; Craigmile 2003); a negative
    eigenvalue beyond rounding raises ``RuntimeError``.  Working memory is
    one array of 2n values, transformed in place: the first row (filled
    ``_BLOCK // 8`` lags at a time), then its n+1 real eigenvalues in the
    real parts of its bins (``spectral._rfft``), then the half spectrum
    written over them (about ``_BLOCK // 8`` bins at a time), then the real
    sample (``spectral._irfft``).  Beside it the scratch is fixed: on the
    four-step path 2n = 2^21 peaks at 16.6 traced bytes per sample, the
    workspace's 16 and about 0.6 MB.  Where the
    four-step FFT splits 2n, the sample lies within 1e-12 of the largest
    value of numpy's; elsewhere it has the bits of numpy's ``rfft`` and
    ``irfft`` of whole arrays.  The result is the workspace itself, shrunk
    in place to its first n values and scaled there: no copy is made, and
    it owns its n values.
    """
    m2 = 2 * n
    y = np.empty(m2)              # [gamma_0 .. gamma_n, gamma_{n-1} .. gamma_1]
    lags = _BLOCK // 8            # fgn_increment_cov holds a dozen temporaries
    for a in range(0, n + 1, lags):
        b = min(a + lags, n + 1)
        gamma = fgn_increment_cov(hurst, 1.0, np.arange(a, b))
        y[a:b] = gamma
        lo, hi = max(a, 1), min(b, n)
        if lo < hi:
            y[m2 - hi + 1:m2 - lo + 1] = gamma[lo - a:hi - a][::-1]
    z, first, ends = _rfft(y)     # eigenvalue j is bin j's real part
    eigs = z.real
    if min(ends.min(), eigs.min(initial=np.inf)) < \
            -1e-9 * max(ends.max(), eigs.max(initial=-np.inf)):
        raise RuntimeError(
            f"circulant embedding not nonnegative definite for H={hurst}, n={n}")

    # Half spectrum from the draws of one fill(m2), in bin order: z_0 scales
    # bin 0, z_1 bin n, and (z_2j, z_2j+1) bin j.  Each eigenvalue is read
    # before its slots are overwritten.  Where slot 0 packs bins 0 and n, it
    # takes no draw in the loop and is written last.  A chunk of whole
    # columns (about _BLOCK // 8 bins, in bin order down each column) is
    # scaled in two buffers: the amplitudes sqrt(eig / (2 m2)) + 0j, then
    # the draws times them, copied back.
    amps = np.sqrt(np.clip(ends, 0.0, None) / m2) * stream.fill(2)
    n1 = z.shape[0]
    cols = max(1, _BLOCK // 8 // n1)
    amp = np.zeros(n1 * cols, np.complex128)
    for c0 in range(0, z.shape[1], cols):
        block = z[:, c0:c0 + cols]          # slots n1 c0 on, down each column
        lead = 1 - first if c0 == 0 else 0
        draws = stream.fill(2 * (block.size - lead)).view(np.complex128)
        if lead:
            draws = np.r_[0.0, draws]
        eig = amp[:block.size].real     # 1-D views: no iterator buffers
        eig.reshape(-1, n1)[...] = block.real.T
        np.clip(eig, 0.0, None, out=eig)
        np.divide(eig, 2.0 * m2, out=eig)
        np.sqrt(eig, out=eig)
        np.multiply(amp[:block.size], draws, out=draws)
        block[...] = draws.reshape(-1, n1).T
    ends[:] = amps
    _irfft(y, z, first)
    z = ends = eigs = block = None      # no view of y is left: resize checks
    y.resize(n)                         # the first n values, in place
    return np.multiply(y, dt**hurst, out=y)


# ---------------------------------------------------------------------------
# closed-form covariances
# ---------------------------------------------------------------------------

def ou_autocov(theta: float, tau) -> np.ndarray | float:
    """Autocovariance ``exp(-theta |tau|) / (2 theta)`` of the stationary OU."""
    _check_rate(theta, "theta")
    tau = np.abs(np.asarray(tau, dtype=np.float64))
    out = np.exp(-theta * tau) / (2.0 * theta)
    return out if out.ndim else float(out)


def ou_increment_cov(theta: float, dt: float, tau) -> np.ndarray | float:
    """Covariance of OU increments over step ``dt`` at lag ``tau >= dt``.

    Equals ``(1/theta) exp(-theta tau) (1 - cosh(theta dt))``, evaluated in
    the identical form ``-expm1(-theta dt)^2 exp(-theta (tau - dt)) / (2 theta)``,
    which is free of cancellation (it survives ``theta*dt`` down to the
    underflow threshold).  Where ``exp(-theta (tau - dt))`` falls below the
    normal range, it would lose digits or underflow before the product is
    formed, so there the result is one exponential of the summed
    log-magnitude.  Non-overlapping OU increments are anticorrelated: the
    result is strictly negative wherever the true magnitude is above the
    smallest subnormal (about ``exp(-744.4)``); below that it rounds to
    ``-0.0``.
    """
    _check_rate(theta, "theta")
    dt = _check_positive(dt, "dt")
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < dt):
        raise ValueError(f"tau must be >= dt={dt} (non-overlapping increments)")
    decay = theta * (tau - dt)
    out = -np.expm1(-theta * dt) ** 2 * np.exp(-decay) / (2.0 * theta)
    deep = decay > _LOG_TINY
    if np.any(deep):
        with np.errstate(divide="ignore"):
            log_lead = 2.0 * np.log(-np.expm1(-theta * dt)) - np.log(2.0 * theta)
        out = np.where(deep, -np.exp(log_lead - decay), out)
    return out if out.ndim else float(out)


def fgn_increment_cov(hurst: float, dt: float, m) -> np.ndarray | float:
    """Lag-``m`` covariance of fGn increments over step ``dt``.

    ``(|m+1|^2H - 2|m|^2H + |m-1|^2H) / 2 * dt^2H`` — positive for H > 1/2
    (persistence), negative for H < 1/2, zero beyond lag 0 at H = 1/2.
    For ``|m| >= 2`` it is evaluated as ``(AB - 1) - (A - 1)(B - 1)`` with
    ``A, B = (1 +- 1/m)^2H``, each term an ``expm1`` of a ``log1p``, times
    ``m^2H``: its relative error stays a few eps, where the direct form's
    cancellation loses digits as eps*m^2.
    """
    _check_fraction(hurst, "hurst")
    dt = _check_positive(dt, "dt")
    m = np.abs(np.asarray(m, dtype=np.float64))
    two_h = 2.0 * hurst
    out = np.empty_like(m)
    far = m >= 2.0
    mf = m[far]
    out[far] = mf**two_h * (np.expm1(two_h * np.log1p(-1.0 / (mf * mf)))
                            - np.expm1(two_h * np.log1p(1.0 / mf))
                            * np.expm1(two_h * np.log1p(-1.0 / mf)))
    mn = m[~far]
    out[~far] = (mn + 1) ** two_h - 2.0 * mn**two_h + np.abs(mn - 1) ** two_h
    out = 0.5 * out * dt**two_h
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# increments and their spectral densities
# ---------------------------------------------------------------------------

def increments(model: NoiseModel, dt: float, n: int,
               stream: GaussianStream) -> TimeSeries:
    """Sample ``n`` increments ``dY_k`` of the given noise model at step ``dt``.

    Draw order per variant (all from ``stream``, in sequence):

    - ``White``: n draws.
    - ``RedOuDt``/``DiffU``: the n/n+1 values of the stationary OU path,
      ``U_0`` first, then the innovations.
    - ``Mixed``: the stationary ``U_0`` first, then the n Brownian
      increments; U is advanced by explicit Euler with the *same* increments
      that appear in dY (the coupling is the point of this model).
    - ``Ar1Driven``: the stationary AR(1) path ``eps_{k+1} = phi eps_k + z_k``,
      ``eps_0 ~ N(0, 1/(1-phi^2))`` first, then n-1 innovations.
    - ``Fgn``: 2n draws (circulant embedding).

    Every precondition (:func:`_check_sampling`; ``theta*dt < 1`` for
    ``Mixed``, ``dt == 1`` for ``Ar1Driven``) holds before the first draw.
    """
    dt, n = _check_sampling(model, dt, n)

    # Each sampler but Fgn forms dY in the array it drew, in place.
    if isinstance(model, White):
        values = stream.fill(n)
        values *= np.sqrt(dt)
    elif isinstance(model, RedOuDt):
        values = _ou_path(model.theta, dt, n, stream)
        values *= dt
    elif isinstance(model, DiffU):
        u = _ou_path(model.theta, dt, n + 1, stream)
        # dY_k = U_{k+1} - U_k, formed front to back in U's array
        for a in range(0, n, _BLOCK):
            b = min(a + _BLOCK, n)
            np.subtract(u[a + 1:b + 1], u[a:b], out=u[a:b])
        values = u[:n]
    elif isinstance(model, Mixed):
        u = _stationary_start(np.sqrt(dt), np.sqrt(2.0 * model.theta), n + 1,
                              stream)
        # U_{k+1} = (1 - theta dt) U_k + dW_k; dY_k = (gamma U_k) dt + dW_k
        # uses the pre-update U_k and is formed in U's array, a block at a
        # time: solve U up to the block's end, then overwrite the block
        for a in range(0, n, _BLOCK):
            b = min(a + _BLOCK, n)
            dw = u[a + 1:b + 1].copy()          # the solve overwrites them
            block = _ar1_recursion(1.0 - model.theta * dt, u[a:b + 1])[:-1]
            block *= model.gamma
            block *= dt
            block += dw
        values = u[:n]
    elif isinstance(model, Ar1Driven):
        y = _stationary_start(1.0, np.sqrt(1.0 - model.phi * model.phi), n, stream)
        values = _ar1_recursion(model.phi, y)
    else:
        values = _fgn_values(model.hurst, dt, n, stream)
    return TimeSeries(dt=dt, values=values)


def theoretical_psd(model: NoiseModel, omega) -> np.ndarray | float:
    """Limiting power spectral density of ``dY`` at angular frequency omega.

    For ``Fgn`` only the shape ``|omega|^(1-2H)`` is returned (the amplitude
    depends on H through a constant this package does not assert; slope fits
    treat it as a free intercept), and ``omega = 0`` is rejected.
    """
    omega = np.asarray(omega, dtype=np.float64)
    w2 = omega * omega
    if isinstance(model, White):
        out = np.ones_like(omega)
    elif isinstance(model, RedOuDt):
        out = 1.0 / (model.theta**2 + w2)
    elif isinstance(model, DiffU):
        out = w2 / (model.theta**2 + w2)
    elif isinstance(model, Mixed):
        out = ((model.gamma + model.theta) ** 2 + w2) / (model.theta**2 + w2)
    elif isinstance(model, Ar1Driven):
        log_phi = np.log(model.phi)
        out = -2.0 * log_phi / ((1.0 - model.phi**2) * (log_phi**2 + w2))
    elif isinstance(model, Fgn):
        if np.any(omega == 0.0):
            raise ValueError("Fgn spectral shape diverges at omega=0")
        out = np.abs(omega) ** (1.0 - 2.0 * model.hurst)
    else:
        raise TypeError(f"not a noise model: {model!r}")
    return out if out.ndim else float(out)


def psd_kernel_auto(t: float, omega, theta: float) -> np.ndarray | float:
    """Windowed spectral mass of the OU autocovariance.

    ``integral over [0,T]^2 of exp(-i omega (u - s)) * exp(-theta |u - s|) /
    (2 theta) du ds`` — real by symmetry.  Dividing by T gives the
    finite-horizon PSD of the red differential ``U dt``, and
    ``psd_kernel_auto / T -> 1 / (theta^2 + omega^2)`` as T grows.

    Identically equal to ``(psd_kernel_cross + conj(psd_kernel_cross)) /
    (2 theta)`` — the two kernels are evaluated independently and the
    identity is a test oracle, not an implementation shortcut.
    """
    t = _check_positive(t, "T")
    _check_square(_check_rate(theta, "theta"), "theta")
    omega = np.asarray(omega, dtype=np.float64)
    d = theta * theta + omega * omega
    decay = np.exp(-theta * t)
    out = t / d + ((omega**2 - theta**2) * (1.0 - decay * np.cos(omega * t))
                   - 2.0 * theta * omega * decay * np.sin(omega * t)) / (theta * d * d)
    return out if out.ndim else float(out)


def psd_kernel_cross(t: float, omega, theta: float) -> np.ndarray | complex:
    """Ordered-triangle kernel ``[T(theta - i omega) + e^{-T(theta - i omega)} - 1]
    / (theta - i omega)^2``.

    Equals the iterated integral over ``0 <= s <= u <= T`` of
    ``exp(-i omega (s - u)) exp(-theta (u - s))``; its real part carries the
    drift/Brownian cross term of the mixed model.  Kept in explicit complex
    arithmetic — the poles sit at ``theta = i omega`` and real-only
    rearrangements reintroduce the cancellation this form avoids.
    """
    t = _check_positive(t, "T")
    _check_square(_check_rate(theta, "theta"), "theta")
    omega = np.asarray(omega, dtype=np.float64)
    pole = theta - 1j * omega
    out = (t * pole + np.exp(-t * pole) - 1.0) / (pole * pole)
    return out if out.ndim else complex(out)


def finite_psd_theoretical(model: NoiseModel, t: float, omega) -> np.ndarray | float:
    """Finite-horizon PSD of the red or mixed differential at horizon ``t``.

    ``RedOuDt -> psd_kernel_auto / T``;
    ``Mixed -> (gamma^2 psd_kernel_auto + 2 gamma Re(psd_kernel_cross) + T) / T``.
    Converges pointwise to :func:`theoretical_psd` as the horizon grows.  Other model variants are rejected.
    """
    t = float(t)
    if isinstance(model, RedOuDt):
        out = psd_kernel_auto(t, omega, model.theta) / t
    elif isinstance(model, Mixed):
        auto = psd_kernel_auto(t, omega, model.theta)
        cross = np.real(psd_kernel_cross(t, omega, model.theta))
        out = (model.gamma**2 * auto + 2.0 * model.gamma * cross + t) / t
    else:
        raise ValueError(
            f"finite-horizon PSD available for RedOuDt and Mixed only, "
            f"got {type(model).__name__}")
    return out


# ---------------------------------------------------------------------------
# flat text form, used by the CLI
# ---------------------------------------------------------------------------

_TAGS = {"white": White, "red": RedOuDt, "du": DiffU, "mixed": Mixed,
         "ar1": Ar1Driven, "fgn": Fgn}


def parse_model(text: str) -> NoiseModel:
    """Parse the flat key-value form, e.g. ``"model=red theta=0.1"``.

    Recognized tags and their numeric fields: ``white``, ``red`` (theta),
    ``du`` (theta), ``mixed`` (theta, gamma), ``ar1`` (phi), ``fgn``
    (hurst).  A key that is not a field of the tag's model is rejected by
    name, before any value is parsed.
    """
    tokens = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"malformed model token {token!r} in {text!r}")
        key, _, value = token.partition("=")
        if key in tokens:
            raise ValueError(f"duplicate key {key!r} in model spec {text!r}")
        tokens[key] = value
    tag = tokens.pop("model", None)
    if tag not in _TAGS:
        raise ValueError(
            f"model spec must name one of {sorted(_TAGS)}, got {text!r}")
    cls = _TAGS[tag]
    names = [f.name for f in fields(cls)]
    kwargs = {}
    for key, value in tokens.items():
        if key not in names:
            raise ValueError(f"model {tag!r} has no field {key!r} "
                             f"(fields: {', '.join(names) or 'none'})")
        try:
            kwargs[key] = float(value)
        except ValueError:
            raise ValueError(f"non-numeric value for {key!r}: {value!r}") from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad fields for model {tag!r}: {exc}") from None
