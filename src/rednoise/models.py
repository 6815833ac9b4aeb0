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

from dataclasses import dataclass
from typing import Union

import numpy as np

from .series import IncrementSeries, TimeSeries
from .streams import GaussianStream

__all__ = [
    "White", "RedOuDt", "DiffU", "Mixed", "Ar1Driven", "Fgn", "NoiseModel",
    "ar1_sample", "ar1_autocov", "ou_exact_sample", "ou_autocov",
    "ou_increment_cov", "fgn_sample", "fbm_autocov", "fgn_increment_cov",
    "increments", "theoretical_psd", "theoretical_acf",
    "parse_model", "format_model",
]

_INITS = ("stationary", "zero")

# exp(-x) is subnormal (or zero) for x beyond this, about 708.4.
_LOG_TINY = -np.log(np.finfo(np.float64).tiny)


def _check_phi(phi):
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must lie strictly in (0, 1), got {phi}")


def _check_theta(theta):
    if not (np.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive, got {theta}")


def _check_hurst(hurst):
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie strictly in (0, 1), got {hurst}")


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
        _check_theta(self.theta)
        _check_init(self.init)


@dataclass(frozen=True)
class DiffU:
    """Increments of the OU process itself."""

    theta: float
    init: str = "stationary"

    def __post_init__(self):
        _check_theta(self.theta)
        _check_init(self.init)


@dataclass(frozen=True)
class Mixed:
    """Red drift plus the driving Brownian increments, sharing one stream."""

    theta: float
    gamma: float

    def __post_init__(self):
        _check_theta(self.theta)
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")


@dataclass(frozen=True)
class Ar1Driven:
    """AR(1) sequence used directly as increments; defined on the unit grid."""

    phi: float
    init: str = "stationary"

    def __post_init__(self):
        _check_phi(self.phi)
        _check_init(self.init)


@dataclass(frozen=True)
class Fgn:
    """Fractional Gaussian noise with Hurst exponent ``hurst``."""

    hurst: float

    def __post_init__(self):
        _check_hurst(self.hurst)


NoiseModel = Union[White, RedOuDt, DiffU, Mixed, Ar1Driven, Fgn]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def lfilter(b, a, x, zi=None):
    """``scipy.signal.lfilter``, imported on first call.

    Only the filtering samplers need scipy, so the analysis commands never
    pay for its import.
    """
    from scipy.signal import lfilter as _lfilter
    return _lfilter(b, a, x, zi=zi)


def _ar1_recursion(coeff: float, scale: float, x0: float, z: np.ndarray) -> np.ndarray:
    """x_{k+1} = coeff * x_k + scale * z_k, returning [x0, x1, ..., x_n]."""
    out = np.empty(z.size + 1)
    out[0] = x0
    if z.size:
        out[1:], _ = lfilter([scale], [1.0, -coeff], z, zi=np.array([coeff * x0]))
    return out


def ar1_sample(phi: float, n: int, stream: GaussianStream,
               init: str = "stationary") -> TimeSeries:
    """Sample an AR(1) sequence ``eps_{k+1} = phi eps_k + z_k`` at unit step.

    ``init="stationary"`` draws ``eps_0 ~ N(0, 1/(1-phi^2))`` (one extra
    stream draw, taken first); ``init="zero"`` starts at 0.  ``n`` values are
    returned and ``n-1`` innovations are consumed.
    """
    _check_phi(phi)
    _check_init(init)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    x0 = stream.normal() / np.sqrt(1.0 - phi * phi) if init == "stationary" else 0.0
    return TimeSeries(dt=1.0, values=_ar1_recursion(phi, 1.0, x0, stream.fill(n - 1)))


def ou_exact_sample(theta: float, dt: float, n: int, stream: GaussianStream,
                    init: str = "stationary") -> TimeSeries:
    """Sample the OU process exactly on a grid of step ``dt``.

    The recursion ``q_{k+1} = exp(-theta dt) q_k + s z_k`` with
    ``s = sqrt((1 - exp(-2 theta dt)) / (2 theta))`` has the same
    finite-dimensional marginals as the continuous process at the grid times,
    for any step size.  ``init="stationary"`` draws ``q_0 ~ N(0, 1/(2 theta))``
    (one extra draw, taken first); ``init="zero"`` starts at 0.
    """
    _check_theta(theta)
    _check_init(init)
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    coeff = np.exp(-theta * dt)
    scale = np.sqrt(-np.expm1(-2.0 * theta * dt) / (2.0 * theta))
    q0 = stream.normal() / np.sqrt(2.0 * theta) if init == "stationary" else 0.0
    return TimeSeries(dt=dt, values=_ar1_recursion(coeff, scale, q0, stream.fill(n - 1)))


def fgn_sample(hurst: float, dt: float, n: int, stream: GaussianStream) -> IncrementSeries:
    """Sample fractional Gaussian noise exactly by circulant embedding.

    Returns ``n`` stationary increments of fractional Brownian motion over
    steps of length ``dt``; each is N(0, dt^(2H)) marginally with lag-m
    covariance ``fgn_increment_cov(hurst, dt, m)``.  The circulant embedding
    (size 2n) consumes exactly ``2n`` draws; should the embedding fail to be
    nonnegative definite — not expected for this covariance — a dense
    Cholesky fallback (``n`` draws) is used for ``n < 2**14``.
    """
    _check_hurst(hurst)
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n == 1:
        values = stream.fill(1) * dt**hurst
        return IncrementSeries(dt=dt, values=values, model=Fgn(hurst))

    two_h = 2.0 * hurst
    k = np.arange(n + 1, dtype=np.float64)
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    first_row = np.concatenate([gamma, gamma[n - 1:0:-1]])     # length 2n
    eigs = np.fft.fft(first_row).real
    if eigs.min() < -1e-9 * eigs.max():
        if n >= 2**14:
            raise RuntimeError(
                f"circulant embedding not nonnegative definite for H={hurst}, n={n}")
        from scipy.linalg import cholesky, toeplitz
        cov = toeplitz(gamma[:n])
        values = cholesky(cov, lower=True) @ stream.fill(n)
        return IncrementSeries(dt=dt, values=values * dt**hurst, model=Fgn(hurst))
    eigs = np.clip(eigs, 0.0, None)

    m2 = 2 * n
    z = stream.fill(m2)
    w = np.empty(m2, dtype=np.complex128)
    w[0] = np.sqrt(eigs[0] / m2) * z[0]
    w[n] = np.sqrt(eigs[n] / m2) * z[1]
    half = np.sqrt(eigs[1:n] / (2.0 * m2))
    w[1:n] = half * (z[2::2] + 1j * z[3::2])
    w[n + 1:] = np.conj(w[1:n][::-1])
    values = np.fft.fft(w).real[:n]
    return IncrementSeries(dt=dt, values=values * dt**hurst, model=Fgn(hurst))


# ---------------------------------------------------------------------------
# closed-form covariances
# ---------------------------------------------------------------------------

def ar1_autocov(phi: float, tau) -> np.ndarray | float:
    """Autocovariance ``phi^|tau| / (1 - phi^2)`` of the stationary AR(1)."""
    _check_phi(phi)
    tau = np.abs(np.asarray(tau, dtype=np.float64))
    out = phi**tau / (1.0 - phi * phi)
    return out if out.ndim else float(out)


def ou_autocov(theta: float, tau) -> np.ndarray | float:
    """Autocovariance ``exp(-theta |tau|) / (2 theta)`` of the stationary OU."""
    _check_theta(theta)
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
    _check_theta(theta)
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
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


def fbm_autocov(hurst: float, t, tau) -> np.ndarray | float:
    """Covariance ``Cov(B^H_t, B^H_{t+tau}) = (t^2H + (t+tau)^2H - tau^2H)/2``."""
    _check_hurst(hurst)
    t = np.asarray(t, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(t < 0) or np.any(tau < 0):
        raise ValueError("t and tau must be nonnegative")
    two_h = 2.0 * hurst
    out = 0.5 * (t**two_h + (t + tau) ** two_h - tau**two_h)
    return out if out.ndim else float(out)


def fgn_increment_cov(hurst: float, dt: float, m) -> np.ndarray | float:
    """Lag-``m`` covariance of fGn increments over step ``dt``.

    ``(|m+1|^2H - 2|m|^2H + |m-1|^2H) / 2 * dt^2H`` — positive for H > 1/2
    (persistence), negative for H < 1/2, zero beyond lag 0 at H = 1/2.
    """
    _check_hurst(hurst)
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    m = np.abs(np.asarray(m, dtype=np.float64))
    two_h = 2.0 * hurst
    out = 0.5 * (np.abs(m + 1) ** two_h - 2.0 * m**two_h
                 + np.abs(m - 1) ** two_h) * dt**two_h
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# increments and spectral/covariance dispatch
# ---------------------------------------------------------------------------

def increments(model: NoiseModel, dt: float, n: int,
               stream: GaussianStream) -> IncrementSeries:
    """Sample ``n`` increments ``dY_k`` of the given noise model at step ``dt``.

    Draw order per variant (all from ``stream``, in sequence):

    - ``White``: n draws.
    - ``RedOuDt``/``DiffU``: the underlying OU path (initial value first if
      stationary, then innovations).
    - ``Mixed``: the stationary initial ``U_0`` first, then the n Brownian
      increments; U is advanced by explicit Euler with the *same* increments
      that appear in dY (the coupling is the point of this model).
    - ``Ar1Driven``: the AR(1) path; only ``dt == 1`` is accepted because the
      continuum scaling of AR(1) noise is not well defined.
    - ``Fgn``: 2n draws (circulant embedding).
    """
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")

    if isinstance(model, White):
        values = np.sqrt(dt) * stream.fill(n)
    elif isinstance(model, RedOuDt):
        u = ou_exact_sample(model.theta, dt, n, stream, init=model.init)
        values = u.values * dt
    elif isinstance(model, DiffU):
        u = ou_exact_sample(model.theta, dt, n + 1, stream, init=model.init)
        values = np.diff(u.values)
    elif isinstance(model, Mixed):
        u0 = stream.normal() / np.sqrt(2.0 * model.theta)
        dw = np.sqrt(dt) * stream.fill(n)
        # U_{k+1} = (1 - theta dt) U_k + dW_k; dY uses the pre-update U_k
        u = _ar1_recursion(1.0 - model.theta * dt, 1.0, u0, dw)[:-1]
        values = model.gamma * u * dt + dw
    elif isinstance(model, Ar1Driven):
        if dt != 1.0:
            raise ValueError(
                "Ar1Driven increments are defined only on the unit grid (dt=1); "
                f"got dt={dt}")
        values = ar1_sample(model.phi, n, stream, init=model.init).values
    elif isinstance(model, Fgn):
        return fgn_sample(model.hurst, dt, n, stream)
    else:
        raise TypeError(f"not a noise model: {model!r}")
    return IncrementSeries(dt=dt, values=values, model=model)


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


def theoretical_acf(model: NoiseModel, tau, dt: float | None = None):
    """Closed-form autocovariance where one exists.

    ``Ar1Driven`` -> AR(1) autocovariance at integer lag; ``RedOuDt`` -> OU
    autocovariance at time lag; ``DiffU`` -> OU increment covariance (needs
    the grid step ``dt``).  Other variants have no closed form here and are
    rejected.
    """
    if isinstance(model, Ar1Driven):
        return ar1_autocov(model.phi, tau)
    if isinstance(model, RedOuDt):
        return ou_autocov(model.theta, tau)
    if isinstance(model, DiffU):
        if dt is None:
            raise ValueError("DiffU autocovariance needs the grid step dt")
        return ou_increment_cov(model.theta, dt, tau)
    raise ValueError(f"no closed-form autocovariance for {type(model).__name__}")


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


def format_model(model: NoiseModel) -> str:
    """Inverse of :func:`parse_model` (round-trips exactly)."""
    for tag, cls in _TAGS.items():
        if type(model) is cls:
            parts = [f"model={tag}"]
            for name in getattr(cls, "__dataclass_fields__", {}):
                value = getattr(model, name)
                parts.append(f"{name}={value!r}" if isinstance(value, str)
                             else f"{name}={value}")
            return " ".join(p.replace("'", "") for p in parts)
    raise TypeError(f"not a noise model: {model!r}")
