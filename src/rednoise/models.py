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
circulant embedding.  All randomness is drawn from a
:class:`~rednoise.streams.GaussianStream` in a documented order, so every
sampler is reproducible from its seed.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .series import (_TINY, TimeSeries, _check_finite, _check_fraction, _check_n,
                     _check_positive, _check_rate)
from .streams import GaussianStream

__all__ = [
    "White", "RedOuDt", "DiffU", "Mixed", "Ar1Driven", "Fgn", "NoiseModel",
    "ar1_autocov", "ou_exact_sample", "ou_autocov", "ou_increment_cov",
    "fgn_sample", "fgn_increment_cov", "increments", "theoretical_psd",
    "parse_model",
]

_INITS = ("stationary", "zero")

# exp(-x) is subnormal (or zero) for x beyond _LOG_TINY, about 708.4.
_LOG_TINY = -np.log(_TINY)

# Points per block when fgn_sample fills its workspace.
_FGN_BLOCK = 2**16
# Points per BLAS solve in _ar1_recursion; its band is 2 x _AR1_BLOCK
# doubles (64 KB).
_AR1_BLOCK = 2**12

# scipy's compiled BLAS wrappers, loaded by _fblas under this name.
_FBLAS = "scipy.linalg._fblas"
_FBLAS_LOCK = threading.Lock()


def _check_init(init):
    if init not in _INITS:
        raise ValueError(f"init must be one of {_INITS}, got {init!r}")


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
    init: str = "stationary"

    def __post_init__(self):
        _check_rate(self.theta, "theta")
        _check_init(self.init)


@dataclass(frozen=True)
class DiffU:
    """Increments of the OU process itself."""

    theta: float
    init: str = "stationary"

    def __post_init__(self):
        _check_rate(self.theta, "theta")
        _check_init(self.init)


@dataclass(frozen=True)
class Mixed:
    """Red drift plus the driving Brownian increments, sharing one stream."""

    theta: float
    gamma: float

    def __post_init__(self):
        _check_rate(self.theta, "theta")
        _check_finite(self.gamma, "gamma")


@dataclass(frozen=True)
class Ar1Driven:
    """AR(1) sequence used directly as increments; defined on the unit grid."""

    phi: float
    init: str = "stationary"

    def __post_init__(self):
        _check_fraction(self.phi, "phi")
        _check_init(self.init)


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

def _fblas():
    """scipy's ``_fblas`` extension, loaded once without ``scipy.linalg``.

    ``import scipy.linalg.blas`` runs the ``scipy.linalg`` package
    ``__init__`` (array-API and f2py machinery, 0.3-0.4 s); the extension
    alone loads in about 5 ms.  It is taken from the installed scipy's
    ``linalg`` directory, found without importing scipy, and registered under
    its real name, so a later ``import scipy.linalg`` reuses it and
    ``scipy.linalg.blas.dtbsv`` is the same routine.  The lock makes the
    first recursions of two threads load it once.
    """
    with _FBLAS_LOCK:
        module = sys.modules.get(_FBLAS)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            dirs = [os.path.join(d, "linalg")
                    for d in (scipy.submodule_search_locations if scipy else ())]
            found = importlib.machinery.PathFinder.find_spec("_fblas", dirs)
            if found is None:
                raise RuntimeError(f"scipy's BLAS extension _fblas not found in {dirs}")
            spec = importlib.util.spec_from_file_location(_FBLAS, found.origin)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FBLAS] = module
        return module


def _ar1_recursion(coeff: float, scale: float, x0: float, z: np.ndarray) -> np.ndarray:
    """x_{k+1} = coeff * x_k + scale * z_k, returning [x0, x1, ..., x_n].

    The path solves the bidiagonal system ``(I - coeff S) y = r``, with ``S``
    the shift, ``r_0 = scale z_0 + coeff x0`` and ``r_k = scale z_k``.  The
    scaled draws are written into ``out[1:]`` and solved there in place by
    BLAS ``dtbsv``, in ``_AR1_BLOCK``-point blocks; each block first adds
    ``coeff`` times the last value written to its first ``r``.

    Rounding contract: the bits of scipy's ``lfilter([scale], [1, -coeff],
    z, zi=[coeff x0])`` at every block size, without the second-long import
    of its signal module.  ``dtbsv`` comes from :func:`_fblas`, the compiled
    extension alone: the ``scipy.linalg`` package's import (0.3-0.4 s)
    takes longer than the whole computation of ``fig2 --quick``.  The band
    is stored in upper form, rows ``[-coeff, 1]``, and solved transposed
    with a unit diagonal, so each step is ``r_k - (-coeff) y_{k-1}``: one
    rounded product, then one rounded sum, as in ``lfilter``.  The lower,
    non-transposed form runs through OpenBLAS's fused multiply-add kernel
    and rounds differently.
    """
    dtbsv = _fblas().dtbsv
    out = np.empty(z.size + 1)
    out[0] = x0
    np.multiply(z, scale, out=out[1:])
    band = np.empty((2, min(_AR1_BLOCK, z.size)), order="F")
    band[0] = -coeff
    band[1] = 1.0
    for a in range(1, z.size + 1, _AR1_BLOCK):
        b = min(a + _AR1_BLOCK, z.size + 1)
        out[a] += coeff * out[a - 1]
        dtbsv(1, band[:, :b - a], out[a:b], trans=1, diag=1, overwrite_x=1)
    return out


def _ar1_path(coeff: float, scale: float, root: float, n: int,
              stream: GaussianStream, init: str) -> np.ndarray:
    """``n`` values of ``x_{k+1} = coeff x_k + scale z_k``.

    ``init="stationary"`` draws ``x_0`` first, as one standard normal divided
    by ``root``, the square root of the stationary precision; ``init="zero"``
    starts at 0.  The ``n - 1`` innovations follow.
    """
    x0 = stream.normal() / root if init == "stationary" else 0.0
    return _ar1_recursion(coeff, scale, x0, stream.fill(n - 1))


def ou_exact_sample(theta: float, dt: float, n: int, stream: GaussianStream,
                    init: str = "stationary") -> TimeSeries:
    """Sample the OU process exactly on a grid of step ``dt``.

    The recursion ``q_{k+1} = exp(-theta dt) q_k + s z_k`` with
    ``s = sqrt((1 - exp(-2 theta dt)) / (2 theta))`` has the same
    finite-dimensional marginals as the continuous process at the grid times,
    for any step size.  ``init="stationary"`` draws ``q_0 ~ N(0, 1/(2 theta))``
    (one extra draw, taken first); ``init="zero"`` starts at 0.
    """
    _check_rate(theta, "theta")
    _check_init(init)
    dt = _check_positive(dt, "dt")
    n = _check_n(n)
    coeff = np.exp(-theta * dt)
    scale = np.sqrt(-np.expm1(-2.0 * theta * dt) / (2.0 * theta))
    return TimeSeries(dt=dt, values=_ar1_path(coeff, scale, np.sqrt(2.0 * theta),
                                              n, stream, init))


def fgn_sample(hurst: float, dt: float, n: int, stream: GaussianStream) -> TimeSeries:
    """Sample fractional Gaussian noise exactly by circulant embedding.

    Returns ``n`` stationary increments of fractional Brownian motion over
    steps of length ``dt``; each is N(0, dt^(2H)) marginally with lag-m
    covariance ``fgn_increment_cov(hurst, dt, m)``.  The 2n-point circulant
    embedding of this covariance is nonnegative definite for every n and H
    (Dietrich & Newsam 1997; Craigmile 2003), so every ``n >= 1`` takes
    exactly ``2n`` draws; a negative eigenvalue beyond rounding raises
    ``RuntimeError``.  Working memory: the 2n-point real first row (filled
    in ``_FGN_BLOCK``-point blocks), its n+1 ``rfft`` bins, which hold in
    turn the eigenvalues and the half spectrum, the 2n-point ``irfft`` and
    numpy's FFT scratch.  The bytes equal those of building each whole.
    """
    _check_fraction(hurst, "hurst")
    dt = _check_positive(dt, "dt")
    n = _check_n(n)
    m2 = 2 * n
    row = np.empty(m2)            # [gamma_0 .. gamma_n, gamma_{n-1} .. gamma_1]
    for a in range(0, n + 1, _FGN_BLOCK):
        b = min(a + _FGN_BLOCK, n + 1)
        gamma = fgn_increment_cov(hurst, 1.0, np.arange(a, b))
        row[a:b] = gamma
        lo, hi = max(a, 1), min(b, n)
        if lo < hi:
            row[m2 - hi + 1:m2 - lo + 1] = gamma[lo - a:hi - a][::-1]
    w = np.fft.rfft(row)
    del row
    eigs = w.real
    if eigs.min() < -1e-9 * eigs.max():
        raise RuntimeError(
            f"circulant embedding not nonnegative definite for H={hurst}, n={n}")

    # Half spectrum from the draws of one fill(m2): z_0 scales bin 0, z_1
    # bin n, and (z_2j, z_2j+1) bin j.  Each eigenvalue is read before its
    # bin is overwritten.
    w[[0, n]] = np.sqrt(np.clip(eigs[[0, n]], 0.0, None) / m2) * stream.fill(2)
    for a in range(1, n, _FGN_BLOCK):
        b = min(a + _FGN_BLOCK, n)
        half = np.sqrt(np.clip(eigs[a:b], 0.0, None) / (2.0 * m2))
        z = stream.fill(2 * (b - a))
        w[a:b] = half * (z[::2] + 1j * z[1::2])
    full = np.fft.irfft(w, m2, norm="forward")    # the bins carry the 1/m2
    del w
    return TimeSeries(dt=dt, values=full[:n] * dt**hurst)


# ---------------------------------------------------------------------------
# closed-form covariances
# ---------------------------------------------------------------------------

def ar1_autocov(phi: float, tau) -> np.ndarray | float:
    """Autocovariance ``phi^|tau| / (1 - phi^2)`` of the stationary AR(1)."""
    _check_fraction(phi, "phi")
    tau = np.abs(np.asarray(tau, dtype=np.float64))
    out = phi**tau / (1.0 - phi * phi)
    return out if out.ndim else float(out)


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
# increments and the limiting spectral density
# ---------------------------------------------------------------------------

def increments(model: NoiseModel, dt: float, n: int,
               stream: GaussianStream) -> TimeSeries:
    """Sample ``n`` increments ``dY_k`` of the given noise model at step ``dt``.

    Draw order per variant (all from ``stream``, in sequence):

    - ``White``: n draws.
    - ``RedOuDt``/``DiffU``: the underlying OU path (initial value first if
      stationary, then innovations).
    - ``Mixed``: the stationary initial ``U_0`` first, then the n Brownian
      increments; U is advanced by explicit Euler with the *same* increments
      that appear in dY (the coupling is the point of this model).  Needs
      ``theta*dt < 1``, so that the Euler coefficient stays positive.
    - ``Ar1Driven``: the AR(1) path ``eps_{k+1} = phi eps_k + z_k`` (initial
      value first if stationary, ``eps_0 ~ N(0, 1/(1-phi^2))``, then n-1
      innovations); only ``dt == 1`` is accepted because the continuum
      scaling of AR(1) noise is not well defined.
    - ``Fgn``: 2n draws (circulant embedding).
    """
    dt = _check_positive(dt, "dt")
    n = _check_n(n)

    # White, RedOuDt and Mixed form dY in the array they sampled, in place.
    if isinstance(model, White):
        values = stream.fill(n)
        values *= np.sqrt(dt)
    elif isinstance(model, RedOuDt):
        values = ou_exact_sample(model.theta, dt, n, stream, init=model.init).values
        values *= dt
    elif isinstance(model, DiffU):
        u = ou_exact_sample(model.theta, dt, n + 1, stream, init=model.init)
        values = np.diff(u.values)
    elif isinstance(model, Mixed):
        if model.theta * dt >= 1.0:
            # the Euler coefficient 1 - theta*dt would be <= 0: U alternates
            # in sign (and diverges from theta*dt = 2)
            raise ValueError(
                "Mixed advances U by Euler and needs theta*dt < 1, "
                f"got theta*dt={model.theta * dt}")
        u0 = stream.normal() / np.sqrt(2.0 * model.theta)
        dw = stream.fill(n)
        dw *= np.sqrt(dt)
        # U_{k+1} = (1 - theta dt) U_k + dW_k; dY = (gamma U_k) dt + dW_k uses
        # the pre-update U_k and is formed in U's array
        values = _ar1_recursion(1.0 - model.theta * dt, 1.0, u0, dw)[:-1]
        values *= model.gamma
        values *= dt
        values += dw
    elif isinstance(model, Ar1Driven):
        if dt != 1.0:
            raise ValueError(
                "Ar1Driven increments are defined only on the unit grid (dt=1); "
                f"got dt={dt}")
        values = _ar1_path(model.phi, 1.0, np.sqrt(1.0 - model.phi * model.phi),
                           n, stream, model.init)
    elif isinstance(model, Fgn):
        return fgn_sample(model.hurst, dt, n, stream)
    else:
        raise TypeError(f"not a noise model: {model!r}")
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


# ---------------------------------------------------------------------------
# flat text form, used by the CLI
# ---------------------------------------------------------------------------

_TAGS = {"white": White, "red": RedOuDt, "du": DiffU, "mixed": Mixed,
         "ar1": Ar1Driven, "fgn": Fgn}


def parse_model(text: str) -> NoiseModel:
    """Parse the flat key-value form, e.g. ``"model=red theta=0.1"``.

    Recognized tags: ``white``, ``red`` (theta, optional init), ``du``
    (theta, optional init), ``mixed`` (theta, gamma), ``ar1`` (phi, optional
    init), ``fgn`` (hurst).
    """
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"malformed model token {token!r} in {text!r}")
        key, _, value = token.partition("=")
        if key in fields:
            raise ValueError(f"duplicate key {key!r} in model spec {text!r}")
        fields[key] = value
    tag = fields.pop("model", None)
    if tag not in _TAGS:
        raise ValueError(
            f"model spec must name one of {sorted(_TAGS)}, got {text!r}")
    cls = _TAGS[tag]
    kwargs = {}
    for key, value in fields.items():
        if key == "init":
            kwargs[key] = value
        else:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"non-numeric value for {key!r}: {value!r}") from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad fields for model {tag!r}: {exc}") from None

