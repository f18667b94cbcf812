"""Tests for parameters, the volatility function, curves, and the generator."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qghjm import (ConfigError, ForwardCurve, ModelParams, SmoothField,
                   coefficients, generator_apply, sigma_r)


def params(**kw):
    base = dict(sigma=0.2, beta=0.0, gamma=1.0, epsilon=0.01, lambda0=0.1)
    base.update(kw)
    return ModelParams(**base)


class TestModelParams:
    def test_valid(self):
        p = params(beta=0.05, gamma=0.7, displacement=0.02, vol_cap=1.5)
        assert p.vol_cap == 1.5

    @pytest.mark.parametrize("kw", [
        {"sigma": 0.0}, {"sigma": -1.0}, {"beta": -0.1}, {"gamma": 0.0},
        {"gamma": 1.5}, {"epsilon": 0.0}, {"lambda0": 0.005},
        {"displacement": -0.1}, {"vol_cap": 0.0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            params(**kw)

    def test_json_round_trip(self):
        p = params(gamma=0.8, vol_cap=2.0)
        assert ModelParams.from_json(p.to_json()) == p

    def test_json_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelParams.from_json({"sigma": 0.2, "beta": 0, "gamma": 1,
                                   "epsilon": 0.01, "lambda0": 0.1,
                                   "sigmaa": 3})


class TestSigmaR:
    def test_lognormal_reduction(self):
        # gamma = 1 collapses to sigma * x
        p = params()
        assert sigma_r(0.1, p) == pytest.approx(0.02, rel=1e-15)
        for x in [0.0, 1e-6, 0.01, 0.5, 3.0, 1e5]:
            assert sigma_r(x, p) == p.sigma * x

    def test_branches_agree_at_cutoff(self):
        p = params(gamma=0.5)
        lo = p.sigma * p.epsilon * p.epsilon ** (p.gamma - 1.0)
        hi = p.sigma * p.epsilon ** p.gamma
        assert sigma_r(p.epsilon, p) == pytest.approx(lo, rel=1e-15)
        assert sigma_r(p.epsilon, p) == pytest.approx(hi, rel=1e-15)

    def test_cev_branch_value(self):
        # x above the cutoff: both evaluation routes give 0.04
        p = params(gamma=0.5)
        got = sigma_r(0.04, p)
        assert got == pytest.approx(0.2 * 0.04 * 0.04 ** -0.5, rel=1e-15)
        assert got == pytest.approx(0.2 * 0.04 ** 0.5, rel=1e-14)
        assert got == pytest.approx(0.04, rel=1e-14)

    def test_full_truncation(self):
        p = params(gamma=0.7)
        assert sigma_r(0.0, p) == 0.0
        assert sigma_r(-0.3, p) == 0.0

    def test_vol_cap(self):
        p = params(vol_cap=0.05)
        assert sigma_r(0.1, p) == p.sigma * 0.1
        assert sigma_r(10.0, p) == 0.05

    def test_displacement_shifts_argument(self):
        p = params(displacement=0.03)
        assert sigma_r(0.1, p) == pytest.approx(0.2 * 0.13, rel=1e-15)
        assert sigma_r(-0.03, p) == 0.0
        assert sigma_r(-0.05, p) == 0.0

    def test_vectorized(self):
        p = params(gamma=0.6)
        xs = np.array([-1.0, 0.0, 0.005, 0.01, 0.5, 2.0])
        vec = sigma_r(xs, p)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == sigma_r(float(x), p)

    @pytest.mark.parametrize("kw", [
        {}, {"displacement": 0.02}, {"vol_cap": 0.05}, {"gamma": 0.6},
        {"gamma": 0.6, "displacement": 0.02, "vol_cap": 0.05},
    ])
    def test_out_matches_formula_bits(self, kw):
        # fresh and in-place results, the gamma = 1 shortcut included, keep
        # every bit of the plain formula, the sign of zero included
        p = params(**kw)
        xs = np.array([-np.inf, -1.0, -0.02, -0.0, 0.0, 5e-324, 1e-300,
                       0.005, 0.01, 0.5, 2.0, 1e300, np.inf])
        out = np.full_like(xs, np.nan)
        with np.errstate(invalid="ignore"):  # inf * 0 at x = inf, gamma < 1
            z = xs + p.displacement
            g = p.gamma - 1.0
            want = np.where(z > 0.0, p.sigma * z * np.minimum(
                np.where(z > 0.0, z, 1.0) ** g, p.epsilon ** g), 0.0)
            if p.vol_cap is not None:
                want = np.minimum(np.maximum(want, 0.0), p.vol_cap)
            assert sigma_r(xs, p).tobytes() == want.tobytes()
            assert sigma_r(xs, p, out=out) is out
        assert out.tobytes() == want.tobytes()

    @given(gamma=st.floats(0.05, 1.0), sigma=st.floats(0.01, 2.0),
           eps=st.floats(1e-4, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_continuity_at_cutoff(self, gamma, sigma, eps):
        p = ModelParams(sigma=sigma, beta=0.0, gamma=gamma, epsilon=eps,
                        lambda0=eps * 2.0)
        below = sigma * eps * eps ** (gamma - 1.0)
        above = sigma * eps ** gamma
        assert abs(below - above) <= 1e-14 * max(abs(below), abs(above))
        assert sigma_r(eps, p) == pytest.approx(above, rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("X", [1.0, 10.0, 1e3, 1e6])
    def test_uniform_lipschitz_for_small_gamma(self, gamma, X):
        # sub-linear growth: one Lipschitz constant works on [0, X] for all X
        p = params(gamma=gamma, epsilon=0.01, lambda0=0.1)
        K = p.sigma * p.epsilon ** (p.gamma - 1.0)
        xs = np.concatenate([np.linspace(0.0, min(1.0, X), 2001),
                             np.geomspace(1e-4, X, 2001)])
        xs = np.unique(xs)
        vals = sigma_r(xs, p)
        dx = np.diff(xs)
        slopes = np.abs(np.diff(vals)) / dx
        assert slopes.max() <= K * (1.0 + 1e-9)


class TestForwardCurve:
    def test_flat(self):
        c = ForwardCurve.flat(0.1)
        assert c.value(3.7) == 0.1
        assert c.slope(3.7) == 0.0
        assert c.satisfies_lower_bound(0.5)

    def test_tabulated_interpolation(self):
        c = ForwardCurve.tabulated([[0.0, 0.10], [2.0, 0.12], [5.0, 0.09]])
        assert c.value(0.0) == 0.10
        assert c.value(1.0) == pytest.approx(0.11)
        assert c.slope(1.0) == pytest.approx(0.01)
        assert c.slope(3.0) == pytest.approx(-0.01)
        # constant extrapolation beyond the last knot
        assert c.value(10.0) == pytest.approx(0.09)
        assert c.slope(10.0) == 0.0

    def test_lower_bound_predicate(self):
        # rising curve passes for any beta; the dip fails for small beta
        up = ForwardCurve.tabulated([[0.0, 0.10], [5.0, 0.15]])
        assert up.satisfies_lower_bound(0.3)
        dip = ForwardCurve.tabulated([[0.0, 0.10], [1.0, 0.05]])
        assert not dip.satisfies_lower_bound(0.1)
        # steep beta can rescue a mild dip: slope -0.001 vs beta*(lam - lam0)
        mild = ForwardCurve.tabulated([[0.0, 0.10], [1.0, 0.099],
                                       [30.0, 0.25]])
        assert not mild.satisfies_lower_bound(0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ForwardCurve.tabulated([[0.0, 0.1]])
        with pytest.raises(ConfigError):
            ForwardCurve.tabulated([[1.0, 0.1], [2.0, 0.2]])
        with pytest.raises(ConfigError):
            ForwardCurve.tabulated([[0.0, 0.1], [0.0, 0.2]])
        with pytest.raises(ConfigError):
            ForwardCurve.tabulated([[0.0, 0.1], [1.0, -0.2]])
        with pytest.raises(ConfigError):
            ForwardCurve.flat(0.0)

    def test_json_round_trip(self):
        flat = ForwardCurve.flat(0.1)
        back = ForwardCurve.from_json(json.loads(json.dumps(flat.to_json())))
        assert back.to_json() == flat.to_json()
        tab = ForwardCurve.tabulated([[0.0, 0.1], [3.0, 0.2]])
        back = ForwardCurve.from_json(json.loads(json.dumps(tab.to_json())))
        assert back.to_json() == tab.to_json()
        with pytest.raises(ConfigError):
            ForwardCurve.from_json({"kind": "spline"})
        with pytest.raises(ConfigError):
            ForwardCurve.from_json({"kind": "flat", "lambda0": 0.1, "x": 1})

    def test_flat_is_constant_tabulated(self):
        # one knot extended flat is the same curve, bit for bit, as a
        # constant curve with two knots, also past the last knot
        lam = 0.1
        flat = ForwardCurve.flat(lam)
        tab = ForwardCurve.tabulated([[0.0, lam], [5.0, lam]])
        ts = np.array([0.0, 0.3, 1.0, 2.9, 5.0, 5.1, 7.0, 12.5, 100.0])
        for f in ("value", "slope", "integral"):
            a, b = getattr(flat, f)(ts), getattr(tab, f)(ts)
            assert np.array_equal(a, b), f
            for t in ts:
                assert getattr(flat, f)(float(t)) == getattr(tab, f)(float(t))
        assert np.array_equal(flat.integral(ts), ts * lam)
        assert flat.to_json() == {"kind": "flat", "lambda0": lam}

    def test_shifted(self):
        tab = ForwardCurve.tabulated([[0.0, 0.1], [3.0, 0.2]])
        sh = tab.shifted(0.05)
        assert sh.value(1.0) == pytest.approx(tab.value(1.0) + 0.05)
        assert sh.slope(1.0) == pytest.approx(tab.slope(1.0))


def drift(r, y, t, p, curve):
    """(mu_r, mu_y) of the (r, y) system at time t on the curve."""
    lam, dlam = curve.rate_and_slope(t)
    return coefficients(r, y, lam, dlam, p)[:2]


class TestDrift:
    def test_initial_cancellation(self):
        p = params(beta=0.3)
        curve = ForwardCurve.flat(p.lambda0)
        dr, dy = drift(p.lambda0, 0.0, 0.0, p, curve)
        assert dr == pytest.approx(0.0, abs=1e-18)
        assert dy == pytest.approx(sigma_r(p.lambda0, p) ** 2, rel=1e-15)

    def test_zero_beta(self):
        p = params(beta=0.0)
        curve = ForwardCurve.flat(p.lambda0)
        dr, dy = drift(0.3, 0.07, 1.0, p, curve)
        assert dr == pytest.approx(0.07)
        assert dy == pytest.approx(sigma_r(0.3, p) ** 2)

    def test_hand_arithmetic(self):
        p = params(beta=0.05)
        curve = ForwardCurve.flat(0.1)
        dr, dy = drift(0.2, 0.01, 0.0, p, curve)
        assert dr == pytest.approx(0.005, rel=1e-12)
        assert dy == pytest.approx(0.0006, rel=1e-12)

    def test_time_dependent_curve(self):
        p = params(beta=0.1)
        curve = ForwardCurve.tabulated([[0.0, 0.10], [2.0, 0.14]])
        dr, _ = drift(0.1, 0.0, 1.0, p, curve)
        # y - beta*r + beta*lam(1) + slope = 0 - 0.01 + 0.012 + 0.02
        assert dr == pytest.approx(0.022, rel=1e-12)


    @pytest.mark.parametrize("kw", [{"beta": 0.3}, {"beta": 0.0},
                                    {"gamma": 0.5, "vol_cap": 0.04}])
    def test_out_matches_formula_bits(self, kw):
        p = params(**kw)
        rng = np.random.default_rng(4)
        r = np.concatenate([rng.normal(0.1, 0.2, 200), [-0.0, 0.0, 1e6]])
        y = np.concatenate([rng.uniform(0.0, 0.05, 200), [0.0, 0.0, 3.0]])
        sr = sigma_r(r, p)
        want = (y - p.beta * r + p.beta * 0.12 + -0.01,
                sr * sr - 2.0 * p.beta * y, sr)
        out = tuple(np.full_like(r, np.nan) for _ in range(3))
        assert coefficients(r, y, 0.12, -0.01, p, out=out) is out
        for got in (out, coefficients(r, y, 0.12, -0.01, p)):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def _expanded_generator(r, y, c2, c3, d1, d2, sigma, beta, r0, gamma, eps):
    """Term-by-term expansion of the generator on the certificate function,
    evaluated at 50 digits; independent of the production code path."""
    with mp.workdps(50):
        r, y = mp.mpf(r), mp.mpf(y)
        m = min(r ** (2 * mp.mpf(gamma)), r ** 2 * mp.mpf(eps) ** (2 * gamma - 2))
        val = (d1 * c2 * sigma ** 2 * m / (1 + y) ** (d1 + 1)
               - 2 * d1 * c2 * beta * y / (1 + y) ** (d1 + 1)
               + d2 * c3 * y / (1 + r) ** (d2 + 1)
               - d2 * c3 * beta * r / (1 + r) ** (d2 + 1)
               + d2 * c3 * beta * r0 / (1 + r) ** (d2 + 1)
               - mp.mpf(1) / 2 * d2 * (d2 + 1) * c3 * sigma ** 2 * m
               / (1 + r) ** (d2 + 2))
        return float(val)


class TestGenerator:
    def lyapunov_field(self, c1, c2, c3, d1, d2):
        return SmoothField(
            value=lambda r, y: c1 - c2 * (1 + y) ** -d1 - c3 * (1 + r) ** -d2,
            d_r=lambda r, y: d2 * c3 * (1 + r) ** (-d2 - 1),
            d_rr=lambda r, y: -d2 * (d2 + 1) * c3 * (1 + r) ** (-d2 - 2),
            d_y=lambda r, y: d1 * c2 * (1 + y) ** (-d1 - 1),
        )

    def test_kills_constants(self):
        p = params(beta=0.2)
        const = SmoothField(value=lambda r, y: 5.0,
                            d_r=lambda r, y: 0.0,
                            d_rr=lambda r, y: 0.0,
                            d_y=lambda r, y: 0.0)
        assert generator_apply(const, 0.3, 0.1, p) == 0.0

    def test_identity_in_y_matches_drift(self):
        # V = y yields mu_y, and V = r yields mu_r
        p = params(beta=0.07, gamma=0.8)
        curve = ForwardCurve.flat(p.lambda0)
        for coord in (1, 0):
            field = SmoothField(value=lambda r, y: (r, y)[coord],
                                d_r=lambda r, y: float(coord == 0),
                                d_rr=lambda r, y: 0.0,
                                d_y=lambda r, y: float(coord == 1))
            for r, y in [(0.1, 0.0), (0.005, 0.3), (2.0, 1.5)]:
                got = generator_apply(field, r, y, p)
                assert got == drift(r, y, 0.0, p, curve)[coord]

    def test_lyapunov_sample_point(self):
        # value frozen from the 50-digit expanded-sum evaluation
        p = params(beta=0.0)
        d = math.sqrt(2.0) - 1.0
        field = self.lyapunov_field(2.0, 1.0, 1.0, d, d)
        got = generator_apply(field, 2.0, 2.0, p)
        assert got == pytest.approx(0.18589906685860124, rel=1e-13)
        live = _expanded_generator(2.0, 2.0, 1.0, 1.0, d, d,
                                   p.sigma, p.beta, p.lambda0, p.gamma,
                                   p.epsilon)
        assert got == pytest.approx(live, rel=1e-12)

    def test_lyapunov_with_mean_reversion(self):
        p = params(beta=0.05, gamma=0.8, epsilon=0.01)
        d2 = 0.4
        d1 = 2 * p.gamma / (1 + d2) - 1
        field = self.lyapunov_field(3.0, 2.0, 1.0, d1, d2)
        for r, y in [(0.005, 0.5), (0.5, 3.0), (4.0, 4.0)]:
            got = generator_apply(field, r, y, p)
            live = _expanded_generator(r, y, 2.0, 1.0, d1, d2, p.sigma,
                                       p.beta, p.lambda0, p.gamma, p.epsilon)
            assert got == pytest.approx(live, rel=1e-12)
