"""Independent numerical oracles used by the test suite.

Everything here is computed from first principles — quadrature of defining
integrals, brute-force covariance expansions, exact discrete-time spectra —
and deliberately avoids the closed forms implemented in the package, so that
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# 2-D panel Gauss-Legendre quadrature over the triangle {0 <= s <= t <= T}
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_X = 0.5 * (_GL_X + 1.0)          # nodes on [0, 1]
_GL_W = 0.5 * _GL_W


def triangle_quad(fn, t_max: float, panel: float, block: int = 20000):
    """Integrate ``fn(s, t)`` over ``{0 <= s <= t <= t_max}``.

    The triangle is tiled with ``panel``-sized squares; cells strictly below
    the diagonal get a 12x12 tensor Gauss-Legendre rule, the diagonal cells
    are mapped to squares by the collapsed (Duffy) transform so the sloping
    edge never cuts a panel.  ``fn`` must be vectorized; it may return
    complex.  Panels are processed in blocks to bound memory.
    """
    n_panels = int(np.ceil(t_max / panel))
    h = t_max / n_panels
    # tensor rule on the unit square
    xx, yy = np.meshgrid(_GL_X, _GL_X, indexing="ij")
    ww = np.outer(_GL_W, _GL_W)
    xx, yy, ww = xx.ravel(), yy.ravel(), ww.ravel()

    total = 0.0 + 0.0j
    # full square cells: s-cell index i, t-cell index j with j > i
    ii, jj = np.meshgrid(np.arange(n_panels), np.arange(n_panels), indexing="ij")
    sel = jj > ii
    s0 = ii[sel] * h
    t0 = jj[sel] * h
    for lo in range(0, s0.size, block):
        s_base = s0[lo:lo + block, None]
        t_base = t0[lo:lo + block, None]
        s = s_base + h * xx[None, :]
        t = t_base + h * yy[None, :]
        total += np.sum(fn(s, t) * (ww[None, :] * h * h))
    # diagonal cells: s in [a, a+h], t in [s, a+h]
    a = np.arange(n_panels)[:, None] * h
    s = a + h * xx[None, :]
    t = s + (a + h - s) * yy[None, :]
    jac = h * (a + h - s)
    total += np.sum(fn(s, t) * ww[None, :] * jac)
    return total


def quad_psd_kernel_auto(t_max: float, omega: float, theta: float,
                         panel: float | None = None) -> float:
    """Quadrature of the defining square integral of the OU spectral kernel.

    ``integral over [0,T]^2 of cos(omega (t - s)) exp(-theta |t - s|) /
    (2 theta)`` — evaluated as twice the lower-triangle integral (the
    integrand is symmetric under swapping s and t).
    """
    if panel is None:
        panel = min(np.pi / (2.0 * max(omega, 1e-12)), 1.0 / (2.0 * theta), t_max)

    def fn(s, t):
        return np.cos(omega * (t - s)) * np.exp(-theta * (t - s)) / (2.0 * theta)

    return 2.0 * float(np.real(triangle_quad(fn, t_max, panel)))


def quad_psd_kernel_cross(t_max: float, omega: float, theta: float,
                          panel: float | None = None) -> complex:
    """Quadrature of the iterated triangle integral of the cross kernel:
    ``integral over 0 <= s <= t <= T of exp(-i omega (s - t)) exp(-theta (t - s))``.
    """
    if panel is None:
        panel = min(np.pi / (2.0 * max(omega, 1e-12)), 1.0 / (2.0 * theta), t_max)

    def fn(s, t):
        return np.exp((1j * omega - theta) * (t - s))

    return complex(triangle_quad(fn, t_max, panel))


# ---------------------------------------------------------------------------
# exact expected periodograms of the sampled models
# ---------------------------------------------------------------------------

def sampled_ou_density(theta: float, dt: float, nu):
    """Spectral density (per unit nu) of the exactly sampled OU sequence."""
    r = np.exp(-theta * dt)
    s2 = -np.expm1(-2.0 * theta * dt) / (2.0 * theta)
    return s2 / (1.0 - 2.0 * r * np.cos(nu) + r * r)


def expected_periodogram(kind: str, dt: float, nu, theta: float = 0.1,
                         gamma: float = 0.5, phi: float = 0.9):
    """Expected value of the package's periodogram for a sampled model.

    ``nu = omega * dt`` is the frequency per step.  These are the laws of the
    *discrete* sequences actually generated — including the curvature that the
    continuous-time formulas only acquire near the Nyquist frequency — so a
    periodogram should match them at every bin, not just at low frequency.
    """
    nu = np.asarray(nu, dtype=np.float64)
    if kind == "white":
        return np.ones_like(nu)
    if kind == "red":
        # increments U_k * dt: density dt^2 * S_U(nu), periodogram /= dt
        return dt * sampled_ou_density(theta, dt, nu)
    if kind == "du":
        return (2.0 - 2.0 * np.cos(nu)) * sampled_ou_density(theta, dt, nu) / dt
    if kind == "mixed":
        # Euler chain driven by the shared Brownian increments
        a = 1.0 - theta * dt
        resp = 1.0 + gamma * dt / (np.exp(1j * nu) - a)
        return np.abs(resp) ** 2
    if kind == "ar1":
        return 1.0 / (1.0 - 2.0 * phi * np.cos(nu) + phi * phi)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# exact stationary autocovariances of the AR(1) and the doubly-AR(1) system
# ---------------------------------------------------------------------------

def ar1_autocov(phi: float, tau) -> np.ndarray | float:
    """Autocovariance ``phi^|tau| / (1 - phi^2)`` of the stationary AR(1)
    with unit-variance innovations."""
    tau = np.abs(np.asarray(tau, dtype=np.float64))
    out = phi**tau / (1.0 - phi * phi)
    return out if out.ndim else float(out)


def ar1_chain_autocov(a: float, b: float, r: float, lags) -> np.ndarray:
    """Stationary autocovariance of ``X_{k+1} = a X_k + b F_k`` with
    ``F_{k+1} = r F_k + z_k`` (unit-variance innovations), at integer lags."""
    v_f = 1.0 / (1.0 - r * r)
    c = b * r * v_f / (1.0 - a * r)
    v_x = (b * b * v_f + 2.0 * a * b * c) / (1.0 - a * a)
    lags = np.asarray(lags)
    return a**lags * v_x + b * c * (r**lags - a**lags) / (r - a)


# ---------------------------------------------------------------------------
# brute-force fractional Gaussian noise covariance
# ---------------------------------------------------------------------------

def fgn_cov_brute(hurst: float, dt: float, m: int) -> float:
    """Lag-m fGn covariance expanded from the fBm two-time covariance
    ``C(u, v) = (u^2H + v^2H - |u - v|^2H) / 2`` term by term."""
    two_h = 2.0 * hurst

    def c(u, v):
        return 0.5 * (u**two_h + v**two_h - abs(u - v) ** two_h)

    k = 3  # arbitrary anchor index; stationarity makes the choice irrelevant
    t0, t1 = k * dt, (k + 1) * dt
    s0, s1 = (k + m) * dt, (k + m + 1) * dt
    return c(t1, s1) - c(t1, s0) - c(t0, s1) + c(t0, s0)


def fgn_cov_series(hurst: float, k) -> np.ndarray:
    """Lag-k fGn covariance (unit step) from its binomial series, in long double.

    ``((k+1)^2H - 2k^2H + (k-1)^2H) / 2 = sum_{j>=1} C(2H, 2j) k^(2H-2j)``:
    expanding ``(1 +- 1/k)^2H`` cancels the odd terms exactly, so no term is
    a difference of large numbers.  The series converges for ``k > 1``;
    its terms shrink at least as ``k^-2j``.  Returns float64.
    """
    k = np.asarray(k, dtype=np.longdouble)
    if np.any(k < 2):
        raise ValueError("the series is used for k >= 2 only")
    a = 2 * np.longdouble(hurst)
    inv_k2 = 1 / (k * k)
    coeff = np.longdouble(1)                  # C(a, 0)
    power = k**a                              # k^(a - 2j) at j = 0
    total = np.zeros_like(k)
    for j in range(1, 200):
        coeff = coeff * (a - 2 * j + 2) * (a - 2 * j + 1) / ((2 * j - 1) * (2 * j))
        power = power * inv_k2
        term = coeff * power
        total = total + term
        if np.all(np.abs(term) <= np.finfo(np.longdouble).eps * np.abs(total)):
            break
    return total.astype(np.float64)


def fgn_sample_reference(hurst: float, dt: float, n: int, stream) -> np.ndarray:
    """Circulant-embedding fGn sampler written with full-length arrays.

    The straightforward form of ``increments(Fgn(hurst), ...)``: the first
    row, its ``rfft`` and the half spectrum are each built whole, and one
    ``irfft`` gives the sample.  It takes the same draws from ``stream`` in
    the same order and does the same floating-point operations, so the
    package's blocked sampler must return the same bytes.  Returns the ``n``
    values.
    """
    two_h = 2.0 * hurst
    k = np.arange(n + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = k**two_h * (np.expm1(two_h * np.log1p(-1.0 / (k * k)))
                          - np.expm1(two_h * np.log1p(1.0 / k))
                          * np.expm1(two_h * np.log1p(-1.0 / k)))
    near = (k + 1) ** two_h - 2.0 * k**two_h + np.abs(k - 1) ** two_h
    gamma = 0.5 * np.where(k >= 2, far, near)
    first_row = np.concatenate([gamma, gamma[n - 1:0:-1]])     # length 2n
    eigs = np.fft.rfft(first_row).real
    if eigs.min() < -1e-9 * eigs.max():
        raise RuntimeError(
            f"circulant embedding not nonnegative definite for H={hurst}, n={n}")
    eigs = np.clip(eigs, 0.0, None)

    m2 = 2 * n
    z = stream.fill(m2)
    w = np.empty(n + 1, dtype=np.complex128)
    w[0] = np.sqrt(eigs[0] / m2) * z[0]
    w[n] = np.sqrt(eigs[n] / m2) * z[1]
    half = np.sqrt(eigs[1:n] / (2.0 * m2))
    w[1:n] = half * (z[2::2] + 1j * z[3::2])
    values = np.fft.irfft(w, m2, norm="forward")[:n]
    return values * dt**hurst


def diffu_increments_reference(theta: float, dt: float, n: int, stream):
    """``increments(DiffU(theta), ...)`` values as ``np.diff`` of the whole
    n + 1 point OU path: a second full-length array."""
    from rednoise import ou_exact_sample
    return np.diff(ou_exact_sample(theta, dt, n + 1, stream).values)


def mixed_increments_reference(theta: float, gamma: float, dt: float, n: int,
                               stream):
    """``increments(Mixed(theta, gamma), ...)`` values with a full-length
    copy of the n Brownian increments beside U's path, which is solved
    whole before dY is formed in its array."""
    from rednoise.models import _ar1_recursion, _stationary_start
    u = _stationary_start(np.sqrt(dt), np.sqrt(2.0 * theta), n + 1, stream)
    dw = u[1:].copy()
    values = _ar1_recursion(1.0 - theta * dt, u)[:-1]
    values *= gamma
    values *= dt
    values += dw
    return values


def stationary_autocorr_scalar(lam: float, theta: float, tau: float) -> float:
    """Per-lag form of ``rednoise.stationary_autocorr``.

    The same branch and the same floating-point operations on one Python
    float at a time, so the package's array form must match it bit for bit.
    """
    tau = abs(float(tau))
    if abs(lam - theta) < 1e-8 * max(lam, theta):
        m = 0.5 * (lam + theta)
        return float(np.exp(-m * tau) * (1.0 + m * tau))
    return float((lam * np.exp(-theta * tau) - theta * np.exp(-lam * tau))
                 / (lam - theta))


# ---------------------------------------------------------------------------
# single-shot restoring-system simulators
# ---------------------------------------------------------------------------

def _ar1_whole(coeff: float, scale: float, x0: float, z) -> np.ndarray:
    """``[x0, x1, ..., x_n]`` of ``x_{k+1} = coeff x_k + scale z_k``, one pass."""
    from scipy.signal import lfilter
    out = np.empty(z.size + 1)
    out[0] = x0
    if z.size:
        out[1:], _ = lfilter([scale], [1.0, -coeff], z, zi=np.array([coeff * x0]))
    return out


def simulate_discrete_reference(params, n: int, stream) -> np.ndarray:
    """The discrete restoring chain with each stage filtered whole.

    ``eps`` is the AR(1) forcing from ``eps_0 = 0`` and ``n - 2`` draws;
    ``X`` is filtered from ``x0`` over all of it.  Same draws, same
    floating-point operations as ``rednoise.simulate_discrete``, so the
    package's blocked form must return the same bytes.
    """
    eps = _ar1_whole(params.phi, 1.0, 0.0, stream.fill(max(n - 2, 0)))
    return _ar1_whole(params.psi, params.sigma, params.x0, eps)[:n]


def simulate_exact_reference(params, dt: float, n_out: int, stream) -> np.ndarray:
    """The exactly sampled restoring SDE with each stage filtered whole.

    All ``2 (n_out - 1)`` draws are taken at once as interleaved pairs
    ``(z_k, w_k)``; U is filtered over the ``z`` from ``U_0 = 0``, and X over
    ``(c U_k + l21 z_k) + l22 w_k`` from ``x0``, with the coefficients of
    ``rednoise.simulate._exact_step`` and their Cholesky factor.  Same draws
    and floating-point operations as ``rednoise.simulate_exact``, so its
    blocked form must return the same bytes.
    """
    from rednoise.simulate import _exact_step
    a, b, c, q11, q12, q22 = _exact_step(params, dt)
    l11 = np.sqrt(q11)
    l21 = q12 / l11
    l22 = np.sqrt(max(q22 - l21 * l21, 0.0))
    z = stream.fill(2 * (n_out - 1))
    u = _ar1_whole(a, l11, 0.0, z[0::2])
    return _ar1_whole(b, 1.0, params.x0, c * u[:-1] + l21 * z[0::2] + l22 * z[1::2])


def euler_integrate(lam: float, sigma: float, x0: float, forcing):
    """Explicit Euler for ``dX = -lam X dt + sigma dY`` over a forcing series.

    ``X_{k+1} = X_k - lam X_k dt + sigma dY_k``; returns the n+1 values
    ``X_0 .. X_n`` for n forcing increments as a ``TimeSeries`` on the
    forcing grid.  ``lam = 0`` turns this into a plain cumulative sum.  Over
    ``increments(RedOuDt(theta), dt, n, stream)`` it is the Euler path of
    the restoring SDE, the reference for the Euler bias that
    ``rednoise.simulate_exact`` avoids.  ``lam*dt`` must stay below 2, where
    the Euler step diverges.
    """
    from rednoise import TimeSeries
    for name, value in (("lam", lam), ("sigma", sigma), ("x0", x0)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lam * forcing.dt >= 2.0:
        raise ValueError(
            f"Euler diverges for lam*dt >= 2, got lam*dt={lam * forcing.dt}")
    return TimeSeries(dt=forcing.dt, values=_ar1_whole(
        1.0 - lam * forcing.dt, sigma, x0, forcing.values))


# ---------------------------------------------------------------------------
# exact transition of a linear Gaussian system (Van Loan 1978)
# ---------------------------------------------------------------------------

def restoring_step_vanloan(lam: float, theta: float, sigma: float, h: float):
    """Transition and innovation covariance of ``dU = -theta U dt + dW``,
    ``dX = (-lam X + sigma U) dt`` over a step ``h``, by matrix exponential.

    With drift ``A = [[-theta, 0], [sigma, -lam]]`` and noise ``B = (1, 0)``,
    Van Loan's block matrix ``C = [[-A, B B^T], [0, A^T]] h`` has
    ``expm(C) = [[., G], [0, F]]`` with ``F = e^{A^T h}`` and innovation
    covariance ``F^T G = int_0^h e^{A s} B B^T e^{A^T s} ds`` (Van Loan 1978,
    IEEE TAC 23:395).  Returns ``(a, b, c, q11, q12, q22)`` in the layout of
    ``rednoise.simulate._exact_step``: ``e^{Ah} = [[a, 0], [c, b]]``.  Its
    own error grows like ``e^{max(lam, theta) h}``, so it serves for
    ``max(lam, theta) h`` up to a few.
    """
    from scipy.linalg import expm
    a_mat = np.array([[-theta, 0.0], [sigma, -lam]])
    block = np.zeros((4, 4))
    block[:2, :2] = -a_mat
    block[0, 2] = 1.0                       # B B^T = [[1, 0], [0, 0]]
    block[2:, 2:] = a_mat.T
    e = expm(block * h)
    phi = e[2:, 2:].T
    q = e[2:, 2:].T @ e[:2, 2:]
    return phi[0, 0], phi[1, 1], phi[1, 0], q[0, 0], q[0, 1], q[1, 1]


# ---------------------------------------------------------------------------
# periodogram over whole arrays
# ---------------------------------------------------------------------------

def periodogram_reference(series):
    """``rednoise.periodogram`` built at full length in one pass.

    Powers ``|FFT_j|^2 / (n dt)`` and frequencies ``2 pi j / (n dt)`` for
    ``j = 1 .. n//2``, each formed over the whole array at once.  The package
    forms them a chunk of bins at a time, so ``periodogram`` and
    ``band_average`` of this must give its bytes at every band width.
    """
    from rednoise import AvgSpectrum
    values = series.values
    n = values.size
    dt = series.dt
    spec = np.fft.rfft(values)[1:n // 2 + 1]
    powers = (spec.real**2 + spec.imag**2) / (n * dt)
    omegas = 2.0 * np.pi * np.arange(1, n // 2 + 1) / (n * dt)
    return AvgSpectrum(omegas=omegas, powers=powers)


def band_spectrum_rfft(series, band_width: int):
    """``rednoise.spectral._band_spectrum`` as it was written on
    ``np.fft.rfft``: one out-of-place real FFT of the values, which are left
    untouched, then powers, frequencies and band means a chunk of whole
    bands at a time.  The package's in-place halfcomplex transform must give
    its bytes, and its four-step transform its band powers to within 1e-12
    of the largest."""
    from rednoise import AvgSpectrum
    from rednoise.spectral import _BLOCK
    values = series.values
    n = values.size
    dt = series.dt
    with np.errstate(over="raise", invalid="raise"):
        spec = np.fft.rfft(values)
        n_bands = n // 2 // band_width
        omegas = np.empty(n_bands)
        powers = np.empty(n_bands)
        rows = max(1, _BLOCK // band_width)
        for r0 in range(0, n_bands, rows):
            r1 = min(r0 + rows, n_bands)
            lo, hi = r0 * band_width + 1, r1 * band_width + 1   # FFT bins
            chunk = spec[lo:hi]
            p = (chunk.real**2 + chunk.imag**2) / (n * dt)
            w = 2.0 * np.pi * np.arange(lo, hi) / (n * dt)
            powers[r0:r1] = p.reshape(r1 - r0, band_width).mean(axis=1)
            omegas[r0:r1] = w.reshape(r1 - r0, band_width).mean(axis=1)
    return AvgSpectrum(omegas=omegas, powers=powers)


def four_step_split_columns(z, forward: bool):
    """``rednoise.spectral._four_step_split`` as it was written a chunk of
    whole columns at a time, each chunk's pairs formed in ``(n1, cols)``
    arrays and only those with ``k <= m/2`` written back through masks.  The
    package's row-by-row split must give its bytes, forward and backward,
    on every split with both factors at least 64."""
    from rednoise.spectral import _BLOCK
    (n1, n2), m = z.shape, z.size
    t1 = -0.5j * np.exp(-2j * np.pi * np.arange(n1) / (2 * m))
    t2 = np.exp(-1j * np.pi * np.arange(n2) / n2)
    if not forward:
        t1, t2 = 2 * t1.conj(), t2.conj()
    cols = max(1, min(_BLOCK // 10 // n1, n2 // 2))
    e, d = (np.empty((n1, cols), np.complex128) for _ in range(2))
    s = z[0, 0]
    for c0 in range(0, m // 2 // n1 + 1, cols):
        c1 = c0 + cols
        np.conjugate(z[:0:-1, n2 - c1:n2 - c0][:, ::-1], out=e[1:])
        np.conjugate(z[0, -np.arange(c0, c1) % n2], out=e[0])
        np.subtract(z[:, c0:c1], e, out=d)
        e += z[:, c0:c1]
        if forward:
            e *= 0.5
        d *= t1[:, None]
        d *= t2[c0:c1]
        ok = np.arange(n1)[:, None] <= m // 2 - n1 * np.arange(c0, c1)
        every = bool(ok.all())
        np.add(e, d, out=z[:, c0:c1], where=every or ok)
        np.subtract(e, d, out=e)
        np.conjugate(e[1:], out=z[:0:-1, n2 - c1:n2 - c0][:, ::-1],
                     where=every or ok[1:])
        z[0, -np.arange(c0, c1)[ok[0]] % n2] = e[0, ok[0]].conj()
    z[0, 0] = complex(s.real + s.imag, s.real - s.imag)
    return z


# ---------------------------------------------------------------------------
# empirical autocovariance over whole arrays
# ---------------------------------------------------------------------------

def empirical_acf_reference(values, max_lag: int,
                            mode: str = "covariance") -> np.ndarray:
    """``rednoise.empirical_acf`` values, each sum one ``np.sum`` of a
    full-length palindrome.

    The mean and every lag sum are ``np.sum(a + a[::-1]) / (2 n)`` over
    whole arrays: the centered copy, each lag product and its palindrome
    are built at full length.  The package forms the same palindromes a leaf
    at a time, so it must return the same bytes.
    """
    n = values.size
    if np.ptp(values) == 0.0:
        cov = np.zeros(max_lag + 1)
    else:
        xbar = np.sum(values + values[::-1]) / (2.0 * n)
        x = values - xbar
        cov = np.empty(max_lag + 1)
        for m in range(max_lag + 1):
            prod = x[: n - m] * x[m:]
            cov[m] = np.sum(prod + prod[::-1]) / (2.0 * n)
    if mode == "correlation":
        cov = cov / cov[0]
        cov[0] = 1.0
    return cov


# ---------------------------------------------------------------------------
# serial substream pipelines
# ---------------------------------------------------------------------------

def restoring_run_serial(psi: float, phi: float, n: int, max_lag: int,
                         seed: int):
    """``rednoise.restoring_run`` with its two systems run one after the
    other on the calling thread.

    Returns ``(result, streams)``: the ``RestoringResult`` and the two
    substreams, whose ``count_drawn`` tells the draws each system took.
    """
    from rednoise import (DiscreteSystemParams, GaussianStream, RestoringResult,
                          continuous_from_discrete, simulate_discrete,
                          simulate_exact)
    from rednoise.figures import _acf_vs_theory
    params_d = DiscreteSystemParams(psi=psi, phi=phi, sigma=1.0, x0=0.0)
    params_c = continuous_from_discrete(params_d)
    child_d, child_c = GaussianStream(seed).spawn(2)
    path_d = simulate_discrete(params_d, n, child_d)
    path_c = simulate_exact(params_c, path_d.dt, n, child_c)
    burn = int(np.ceil(10.0 / min(params_c.lam, params_c.theta) / path_d.dt))
    discrete = _acf_vs_theory("discrete", path_d, burn, max_lag, params_c)
    continuous = _acf_vs_theory("continuous", path_c, burn, max_lag, params_c)
    result = RestoringResult(discrete=discrete, continuous=continuous,
                             params_continuous=params_c, burn_in=burn)
    return result, (child_d, child_c)


def spectra_run_serial(theta: float, gamma: float, n: int, dt: float,
                       band_width: int, seed: int):
    """``rednoise.spectra_run`` with its four models sampled one after the
    other on the calling thread, each spectrum by :func:`band_spectrum_rfft`.

    Returns ``(comparisons, red_slope, streams)``: the comparisons in model
    order, the red slope over [1, 10] and the four substreams.
    """
    from rednoise import (DiffU, GaussianStream, Mixed, RedOuDt, White,
                          increments, loglog_slope, theoretical_psd)
    from rednoise.figures import SpectrumComparison
    cases = (("white", White()), ("red", RedOuDt(theta)),
             ("du", DiffU(theta)), ("mixed", Mixed(theta, gamma)))
    children = GaussianStream(seed).spawn(len(cases))
    comparisons = []
    for (name, model), child in zip(cases, children):
        avg = band_spectrum_rfft(increments(model, dt, n, child), band_width)
        theory = np.asarray(theoretical_psd(model, avg.omegas))
        lo, hi = avg.omegas[3], 0.5 * np.pi / dt
        sel = (avg.omegas >= lo) & (avg.omegas <= hi)
        rel = np.abs(avg.powers[sel] / theory[sel] - 1.0)
        comparisons.append(SpectrumComparison(
            name=name, model=model, spectrum=avg, theory=theory,
            omega_lo=float(lo), omega_hi=float(hi),
            max_rel_dev=float(rel.max())))
    red_slope, _ = loglog_slope(comparisons[1].spectrum, 1.0, 10.0)
    return comparisons, red_slope, children


def plateau_powers_serial(alpha_model, beta: float, t: float, dt: float,
                          replicas: int, stream):
    """The replica-mean periodogram of ``rednoise.plateau_experiment``, its
    replicas run one after the other on the calling thread, each sampled by
    ``ou_exact_sample`` and transformed by the public ``periodogram``.

    Returns ``(mean_powers, omegas, streams)``: the periodogram's grid, and
    the substreams in replica order.
    """
    from rednoise import TimeSeries, ou_exact_sample, periodogram
    n = int(round(t / dt))
    children = stream.spawn(replicas)
    mean_powers = None
    for child in children:
        u = ou_exact_sample(alpha_model.theta, dt, n, child)
        dy = u.values * dt + beta * np.sqrt(dt) * child.fill(n)
        pg = periodogram(TimeSeries(dt=dt, values=dy))
        mean_powers = pg.powers if mean_powers is None \
            else mean_powers + pg.powers
    return mean_powers / replicas, pg.omegas, children


# ---------------------------------------------------------------------------
# flat text form of a noise model
# ---------------------------------------------------------------------------

_MODEL_TAGS = {"White": "white", "RedOuDt": "red", "DiffU": "du",
               "Mixed": "mixed", "Ar1Driven": "ar1", "Fgn": "fgn"}


def format_model(model) -> str:
    """The text that ``rednoise.parse_model`` reads back as ``model``: its
    tag, then every field as ``name=value``, floats in their shortest
    round-tripping form."""
    from dataclasses import fields
    parts = [f"model={_MODEL_TAGS[type(model).__name__]}"]
    parts += [f"{f.name}={getattr(model, f.name)}" for f in fields(model)]
    return " ".join(parts)
