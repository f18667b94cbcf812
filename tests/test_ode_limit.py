"""Tests for the deterministic limit: blow-up time, critical mean reversion,
and the stable fixed point."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qghjm import (DomainError, ForwardCurve, ModelParams, SimConfig,
                   UnsupportedGamma, beta_critical, coefficients,
                   fixed_point_r, ode_integrate, simulate_batch)

FLAT = ForwardCurve.flat(0.1)


def params(**kw):
    base = dict(sigma=0.2, beta=0.0, gamma=1.0, epsilon=0.01, lambda0=0.1)
    base.update(kw)
    return ModelParams(**base)


def blowup_time_by_quadrature(sigma: float, r0: float) -> float:
    """Independent oracle for beta = 0 on a flat curve.

    There r'' = sigma^2 r^2 with r(0) = r0, r'(0) = 0, whose energy
    integral gives t_exp = sqrt(3/(2 sigma^2 r0)) * int_1^inf du/sqrt(u^3-1).
    """
    I, err = quad(lambda u: (u ** 3 - 1.0) ** -0.5, 1.0, np.inf, limit=400)
    assert err < 1e-8
    return math.sqrt(3.0 / (2.0 * sigma * sigma * r0)) * I


class TestBlowup:
    def test_explosion_time_matches_quadrature(self):
        res = ode_integrate(params(), FLAT, 100.0)
        assert res.exploded
        oracle = blowup_time_by_quadrature(0.2, 0.1)
        assert res.t_exp == pytest.approx(oracle, abs=1e-6)
        assert res.t_exp == pytest.approx(47.03, abs=0.05)

    @pytest.mark.parametrize("model, curve, t_exp", [
        ({}, FLAT, 47.0306175655),
        ({"beta": 0.05}, FLAT, 81.1443901839),
        ({}, ForwardCurve.tabulated([[0, 0.1], [10, 0.12]]), 44.1736854556),
        ({"displacement": 0.05}, FLAT, 38.4003384411),
    ], ids=["flat", "readme", "tabulated", "displaced"])
    def test_blowup_time_pinned(self, model, curve, t_exp):
        res = ode_integrate(params(**model), curve, 100.0)
        assert res.exploded
        assert res.t_exp == pytest.approx(t_exp, rel=1e-8)

    def test_terminal_state_pinned(self):
        res = ode_integrate(params(beta=0.1), FLAT, 100.0)
        assert not res.exploded
        assert res.trace[-1, 0] == pytest.approx(100.0, rel=1e-10)
        assert res.terminal == pytest.approx(
            (0.136941766069, 0.00373661960684), rel=1e-8)

    def test_blowup_needs_no_threshold(self):
        # a detection threshold on r of 1e50 or more used to underflow the
        # step size near t = 81.14 and fail; the compactified run follows
        # r until the remainder 2u/v is within tol * t of the blow-up
        res = ode_integrate(params(beta=0.05), FLAT, 100.0)
        t_last, r_last = res.trace[-1, :2]
        assert res.exploded
        assert r_last > 1e18
        assert 0.0 < res.t_exp - t_last <= 1e-10 * t_last

    @pytest.mark.parametrize("sigma", [1e-3, 1e10, 1e100])
    def test_blowup_time_scales_as_one_over_sigma(self, sigma):
        # for beta = 0 sigma * t_exp depends on lambda0 only, and the
        # compactified system is the same up to the scale of s
        res = ode_integrate(params(sigma=sigma), FLAT, 20.0 / sigma)
        assert sigma * res.t_exp == pytest.approx(
            blowup_time_by_quadrature(1.0, 0.1), rel=1e-9)

    def test_overflowing_drift_raises(self):
        # sigma^2 r^2 overflows: every step is rejected until h underflows
        with pytest.raises(DomainError, match="step size underflow"):
            ode_integrate(params(sigma=1e200), FLAT, 100.0)

    def test_tightest_tol_finishes(self):
        tol = 100 * np.finfo(float).eps
        res = ode_integrate(params(beta=0.05), FLAT, 100.0, tol=tol)
        assert res.t_exp == pytest.approx(81.1443901839, rel=1e-8)
        assert res.trace[-1, 1] > 1e20
        p = params(beta=1.01 * beta_critical(params()))
        res = ode_integrate(p, FLAT, 5000.0, tol=tol)
        assert res.terminal[0] == pytest.approx(fixed_point_r(p), rel=1e-6)

    def test_integrator_counts(self):
        res = ode_integrate(params(beta=0.1), FLAT, 100.0)
        assert res.steps == len(res.trace) - 1 > 0
        # six new stages per attempted step after the first evaluation
        assert (res.nfev - 1) % 6 == 0
        assert res.nfev >= 6 * res.steps + 1

    def test_trace_is_finite_and_monotone_time(self):
        res = ode_integrate(params(), FLAT, 100.0)
        assert np.all(np.isfinite(res.trace))
        assert np.all(np.diff(res.trace[:, 0]) > 0)
        assert res.t_exp <= 100.0
        assert res.terminal is None

    def test_monotone_in_sigma_and_beta(self):
        sigmas = np.linspace(0.15, 0.35, 5)
        betas = np.linspace(0.0, 0.02, 5)
        texp = np.empty((5, 5))
        for i, s in enumerate(sigmas):
            for j, b in enumerate(betas):
                res = ode_integrate(params(sigma=s, beta=b), FLAT, 500.0)
                assert res.exploded
                texp[i, j] = res.t_exp
        assert np.all(np.diff(texp, axis=0) < 0)  # larger sigma: earlier
        assert np.all(np.diff(texp, axis=1) > 0)  # larger beta: later

    def test_vol_cap_stops_the_blowup(self):
        # the capped volatility grows y by at most vol_cap^2 per year, so
        # r stays finite over the horizon, as on the Euler paths
        p = params(vol_cap=0.05)
        res = ode_integrate(p, FLAT, 100.0)
        assert not res.exploded
        assert res.t_exp == math.inf
        assert 0.0 < res.terminal[1] <= 0.05 ** 2 * 100.0
        batch = simulate_batch(p, FLAT, SimConfig(dt=0.01, horizon=100.0,
                                                  n_paths=50, seed=1))
        assert not batch.exploded.any()

    def test_gamma_below_one_rejected(self):
        with pytest.raises(UnsupportedGamma):
            ode_integrate(params(gamma=0.8), FLAT, 10.0)

    def test_tiny_sigma_keeps_flat_rate(self):
        res = ode_integrate(params(sigma=1e-16), FLAT, 50.0)
        assert not res.exploded
        assert res.terminal[0] == pytest.approx(0.1, abs=1e-12)
        assert res.terminal[1] == pytest.approx(0.0, abs=1e-20)

    def test_displaced_reduction(self):
        a = 0.05
        # two parameterizations of one model, integrated apart: tol 1e-12
        # brings their terminal rates within rel 1e-12 (1e-10 does not)
        res_d = ode_integrate(params(displacement=a, beta=0.2), FLAT, 50.0,
                              tol=1e-12)
        res_s = ode_integrate(params(lambda0=0.1 + a, beta=0.2),
                              ForwardCurve.flat(0.1 + a), 50.0, tol=1e-12)
        assert res_d.terminal[0] == pytest.approx(res_s.terminal[0] - a,
                                                  rel=1e-12)

    @pytest.mark.parametrize("horizon", [-5.0, 0.0, math.nan, math.inf])
    def test_horizon_outside_open_half_line_rejected(self, horizon):
        # -5 would integrate backwards to y < 0; nan never ends the run
        with pytest.raises(DomainError, match="horizon"):
            ode_integrate(params(), FLAT, horizon)

    @pytest.mark.parametrize("kw, what", [
        # below the floor of 100 eps
        ({"tol": 1e-300}, "tol"),
        ({"tol": 2e-14}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": math.nan}, "tol"),
    ])
    def test_threshold_and_tol_outside_domain_rejected(self, kw, what):
        p = params(beta=0.05)  # blows up at about 81.14
        with pytest.raises(DomainError, match=what):
            ode_integrate(p, FLAT, 100.0, **kw)


class TestCritical:
    def test_reported_value(self):
        assert beta_critical(params()) == pytest.approx(0.0894427190999916,
                                                        abs=1e-12)
        assert beta_critical(params()) == pytest.approx(0.08944, abs=1e-5)

    def test_closed_form(self):
        p = ModelParams(sigma=1.0, beta=0.0, gamma=1.0, epsilon=0.01,
                        lambda0=0.5)
        assert beta_critical(p) == pytest.approx(1.0, rel=1e-15)
        small = ModelParams(sigma=1.0, beta=0.0, gamma=1.0, epsilon=1e-9,
                            lambda0=1e-7)
        assert beta_critical(small) < 1e-3

    def test_bracketing(self):
        bc = beta_critical(params())
        below = ode_integrate(params(beta=0.99 * bc), FLAT, 5000.0)
        above = ode_integrate(params(beta=1.01 * bc), FLAT, 5000.0)
        assert below.exploded
        assert not above.exploded
        fp = fixed_point_r(params(beta=1.01 * bc))
        assert above.terminal[0] == pytest.approx(fp, rel=1e-6)


class TestFixedPoint:
    def test_at_critical_beta(self):
        bc = beta_critical(params())
        p = params(beta=bc)
        assert fixed_point_r(p) == pytest.approx(2 * p.lambda0, rel=1e-12)
        assert fixed_point_r(p) == pytest.approx(bc * bc / p.sigma ** 2,
                                                 rel=1e-12)

    def test_large_beta_limit(self):
        p = params(beta=100.0)
        assert fixed_point_r(p) == pytest.approx(p.lambda0, rel=1e-3)

    def test_stationarity(self):
        p = params(beta=0.1)
        r_inf = fixed_point_r(p)
        y_inf = p.sigma ** 2 * r_inf ** 2 / (2.0 * p.beta)
        lam, dlam = FLAT.rate_and_slope(0.0)
        dr, dy, _ = coefficients(r_inf, y_inf, lam, dlam, p)
        assert abs(dr) < 1e-12
        assert abs(dy) < 1e-12

    def test_domain_error_below_critical(self):
        with pytest.raises(DomainError):
            fixed_point_r(params(beta=0.05))
