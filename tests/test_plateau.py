import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rednoise import (Ar1Driven, DiffU, Fgn, GaussianStream, Mixed, RedOuDt,
                      White, finite_psd_theoretical, plateau_experiment,
                      psd_kernel_auto, psd_kernel_cross, theoretical_psd)


# ---------------------------------------------------------------------------
# closed-form kernels vs independent 2-D quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,omega,theta", [
    (50.0, 0.3, 0.1),
    (1.0, 1.0, 0.5),
    (10.0, 0.01, 0.05),
    (100.0, 10.0, 0.5),
])
def test_auto_kernel_matches_quadrature(t, omega, theta):
    got = psd_kernel_auto(t, omega, theta)
    want = oracles.quad_psd_kernel_auto(t, omega, theta)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("t,omega,theta", [
    (50.0, 0.3, 0.1),
    (1.0, 1.0, 0.5),
    (10.0, 0.01, 0.05),
    (100.0, 10.0, 0.5),
])
def test_cross_kernel_matches_quadrature(t, omega, theta):
    got = psd_kernel_cross(t, omega, theta)
    want = oracles.quad_psd_kernel_cross(t, omega, theta)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_quadrature_panel_refinement_is_converged():
    # the oracle itself: halving the panel size moves the answer < 1e-9
    coarse = oracles.quad_psd_kernel_auto(50.0, 0.3, 0.1)
    fine = oracles.quad_psd_kernel_auto(50.0, 0.3, 0.1, panel=0.5)
    assert coarse == pytest.approx(fine, rel=1e-9)


@given(t=st.floats(0.1, 1000.0), omega=st.floats(0.0, 100.0),
       theta=st.floats(1e-2, 5.0))
@settings(max_examples=200)
def test_auto_is_scaled_real_part_of_cross(t, omega, theta):
    auto = psd_kernel_auto(t, omega, theta)
    cross = psd_kernel_cross(t, omega, theta)
    assert auto == pytest.approx(cross.real / theta, rel=1e-9, abs=1e-12)


def test_cross_kernel_short_horizon_expansion():
    t = 1e-4
    got = psd_kernel_cross(t, 1.0, 0.1)
    assert got == pytest.approx(t * t / 2.0, rel=1e-3)


def test_kernels_long_horizon_limits():
    t, theta, omega = 1e4, 0.1, 1.0
    lorentzian = 1.0 / (theta ** 2 + omega ** 2)
    assert psd_kernel_auto(t, omega, theta) / t == pytest.approx(
        lorentzian, rel=1e-3)
    cross = psd_kernel_cross(t, omega, theta)
    assert (cross + np.conj(cross)).real / (2 * theta * t) == pytest.approx(
        lorentzian, rel=1e-3)
    assert abs(lorentzian - 0.990099) < 1e-6
    # high frequency: normalized auto kernel decays to zero
    assert psd_kernel_auto(100.0, 1e4, theta) / 100.0 < 1e-6


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        psd_kernel_auto(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        psd_kernel_auto(10.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        psd_kernel_cross(-1.0, 1.0, 0.1)


@pytest.mark.parametrize("theta", [0.0, -1.0, float("nan"), float("inf"),
                                   1e-320, 5e-324])
@pytest.mark.parametrize("kernel", [psd_kernel_auto, psd_kernel_cross])
def test_kernel_theta_must_be_normal(kernel, theta):
    # a subnormal theta overflows 1 / theta to inf
    cause = "smallest normal" if 0.0 < theta < 1e-300 else "positive and finite"
    with pytest.raises(ValueError, match=f"^theta must be .*{cause}"):
        kernel(10.0, 1.0, theta)


# ---------------------------------------------------------------------------
# finite-horizon spectra
# ---------------------------------------------------------------------------

def test_finite_psd_long_horizon_values():
    assert finite_psd_theoretical(Mixed(0.1, 0.5), 1e5, 0.1) == pytest.approx(
        18.5, rel=0.01)
    assert finite_psd_theoretical(RedOuDt(0.1), 1e5, 0.3) == pytest.approx(
        theoretical_psd(RedOuDt(0.1), 0.3), rel=1e-3)


def test_finite_psd_high_frequency():
    assert finite_psd_theoretical(RedOuDt(0.1), 100.0, 1000.0) < 1e-4
    assert finite_psd_theoretical(Mixed(0.1, 0.5), 100.0, 1000.0) == \
        pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize("model", [White(), DiffU(0.1), Ar1Driven(0.9),
                                   Fgn(0.7)])
def test_finite_psd_unsupported_models(model):
    with pytest.raises(ValueError):
        finite_psd_theoretical(model, 100.0, 1.0)


# ---------------------------------------------------------------------------
# the plateau experiment
# ---------------------------------------------------------------------------

def test_plateau_beta_one():
    report = plateau_experiment(RedOuDt(0.1), 1.0, 500.0, 0.01,
                                [10.0, 20.0], 32, GaussianStream(42))
    assert report.passed, report.detail
    assert report.plateau_estimate == pytest.approx(1.0, rel=0.05)
    assert report.plateau_target == 1.0


def test_plateau_beta_half():
    report = plateau_experiment(RedOuDt(0.1), 0.5, 500.0, 0.01,
                                [10.0, 20.0], 32, GaussianStream(43))
    assert report.passed, report.detail
    assert report.plateau_estimate == pytest.approx(0.25, rel=0.05)


def test_no_martingale_part_keeps_decaying():
    report = plateau_experiment(RedOuDt(0.1), 0.0, 500.0, 0.01,
                                [10.0, 20.0], 32, GaussianStream(44))
    assert report.passed, report.detail
    assert report.decay_slope == pytest.approx(-2.0, abs=0.2)
    # inverse-square decay: doubling the frequency quarters the power
    ratio = report.empirical[0] / report.empirical[1]
    assert ratio == pytest.approx(4.0, rel=0.2)
    # and the closed-form curve tracks the measurement
    np.testing.assert_allclose(report.empirical, report.theoretical, rtol=0.15)


def test_plateau_report_bookkeeping():
    report = plateau_experiment(RedOuDt(0.1), 1.0, 200.0, 0.01,
                                [10.0], 32, GaussianStream(45))
    assert report.replicas == 32 and report.t == 200.0 and report.dt == 0.01
    assert report.plateau_band == (10.0, 30.0)
    assert len(report.empirical) == len(report.omegas) == 1
    np.testing.assert_array_equal(
        report.theoretical, finite_psd_theoretical(RedOuDt(0.1), 200.0, [10.0]) + 1.0)
    assert "plateau" in report.detail


@pytest.mark.parametrize("kwargs", [
    dict(replicas=31),
    dict(dt=0.05),                       # coarser than 2*pi/(10*30)
    dict(omegas=[400.0]),                # beyond Nyquist at dt=0.01
    dict(omegas=[]),
    dict(omegas=[-1.0]),
    dict(omegas=[float("nan"), 10.0]),
    dict(omegas=[10.0, float("inf")]),
    dict(t=0.1),                         # fewer than 16 steps
    dict(beta=float("inf")),
])
def test_plateau_preconditions(kwargs):
    base = dict(alpha_model=RedOuDt(0.1), beta=1.0, t=500.0, dt=0.01,
                omegas=[10.0], replicas=32, stream=GaussianStream(46))
    base.update(kwargs)
    with pytest.raises(ValueError):
        plateau_experiment(**base)


@pytest.mark.parametrize("omega", [float("nan"), 0.0, -1.0])
def test_plateau_rejects_bad_omega_naming_it(omega):
    # NaN compares false with 0, so it is checked as not positive and finite
    stream = GaussianStream(47)
    with pytest.raises(ValueError,
                       match=f"every omega must be positive and finite, got {omega}"):
        plateau_experiment(RedOuDt(0.1), 1.0, 500.0, 0.01, [omega, 10.0], 32,
                           stream)
    assert stream.count_drawn == 0


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_plateau_rejects_bad_dt_before_drawing(dt):
    stream = GaussianStream(48)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        plateau_experiment(RedOuDt(0.1), 1.0, 500.0, dt, [10.0], 32, stream)
    assert stream.count_drawn == 0


def test_overflowing_theta_rejected_by_name_before_any_draw(made_streams):
    # theta**2 overflows in the finite-horizon kernel, which is evaluated
    # before any replica is simulated
    want = "^" + re.escape("theta=1e+300 too large: theta**2 overflows") + "$"
    with pytest.raises(ValueError, match=want):
        psd_kernel_auto(500.0, 10.0, 1e300)
    with pytest.raises(ValueError, match=want):
        plateau_experiment(RedOuDt(1e300), 1.0, 500.0, 0.01, [10.0], 32,
                           GaussianStream(49))
    assert [s.count_drawn for s in made_streams] == [0] * len(made_streams)


def test_plateau_rejects_wrong_model():
    with pytest.raises(ValueError):
        plateau_experiment(Mixed(0.1, 0.5), 1.0, 500.0, 0.01, [10.0], 32,
                           GaussianStream(47))
