"""Tests for discounting, bond pricing, simple rates, and futures."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from qghjm import (ConfigError, ForwardCurve, ModelParams, SimConfig,
                   discount_consistency_check, discount_estimate,
                   eurodollar_futures, futures_estimate, g_factor,
                   ode_integrate, pathwise_discount_factors, simulate_batch,
                   zcb_price)

FLAT = ForwardCurve.flat(0.1)


def params(**kw):
    base = dict(sigma=0.2, beta=0.2, gamma=1.0, epsilon=0.01, lambda0=0.1)
    base.update(kw)
    return ModelParams(**base)


class TestDiscountCurve:
    def test_flat(self):
        assert FLAT.discount(0.0) == 1.0
        assert FLAT.discount(2.0) == pytest.approx(math.exp(-0.2), rel=1e-15)

    def test_tabulated_matches_quadrature(self):
        curve = ForwardCurve.tabulated([[0.0, 0.10], [1.5, 0.14],
                                        [4.0, 0.08]])
        for T in (0.0, 0.7, 1.5, 2.9, 4.0, 6.0):
            pts = [x for x in (1.5, 4.0) if x < T] or None
            ref, err = quad(curve.value, 0.0, T, limit=200, points=pts)
            assert err < 1e-9
            assert curve.integral(T) == pytest.approx(ref, abs=1e-9)
            assert curve.discount(T) == pytest.approx(math.exp(-ref), rel=1e-9)

    def test_strictly_decreasing(self):
        curve = ForwardCurve.tabulated([[0.0, 0.05], [3.0, 0.11]])
        Ts = np.linspace(0.0, 10.0, 40)
        prices = curve.discount(Ts)
        assert np.all(np.diff(prices) < 0.0)


class TestGFactor:
    def test_degenerate_interval(self):
        assert g_factor(2.0, 2.0, 0.3) == 0.0

    def test_zero_beta_limit(self):
        assert g_factor(0.0, 5.0, 0.0) == 5.0

    def test_tiny_beta_no_cancellation(self):
        got = g_factor(0.0, 5.0, 1e-12)
        series = 5.0 - 1e-12 * 25.0 / 2.0
        assert got == pytest.approx(series, rel=1e-10)
        assert got == pytest.approx(4.9999999999875, rel=1e-12)

    def test_monotone_in_beta_and_bounded(self):
        taus = 7.0
        betas = np.geomspace(1e-4, 50.0, 30)
        vals = [g_factor(0.0, taus, float(b)) for b in betas]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        for b, v in zip(betas, vals):
            assert v <= min(taus, 1.0 / b) + 1e-15

    def test_rejects_reversed_times(self):
        with pytest.raises(ConfigError):
            g_factor(3.0, 2.0, 0.1)


class TestZcb:
    def test_maturity_identity(self):
        assert zcb_price(2.0, 2.0, 0.05, 0.01, params(), FLAT) == 1.0

    def test_curve_ratio_at_zero_state(self):
        got = zcb_price(1.0, 4.0, 0.0, 0.0, params(), FLAT)
        assert got == pytest.approx(math.exp(-0.1 * 3.0), rel=1e-15)

    def test_collapse_at_huge_convexity(self):
        assert zcb_price(0.0, 10.0, 0.0, 1e6, params(), FLAT) == 0.0

    def test_monotone_in_state(self):
        p = params()
        xs = np.linspace(0.0, 0.5, 9)
        px = [zcb_price(0.0, 5.0, float(x), 0.01, p, FLAT) for x in xs]
        assert all(b < a for a, b in zip(px, px[1:]))
        ys = np.linspace(0.0, 0.5, 9)
        py = [zcb_price(0.0, 5.0, 0.1, float(y), p, FLAT) for y in ys]
        assert all(b < a for a, b in zip(py, py[1:]))

    def test_in_unit_interval_for_positive_state(self):
        p = params()
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = rng.uniform(0.0, 5.0)
            T = t + rng.uniform(0.0, 10.0)
            v = zcb_price(t, T, rng.uniform(0, 1), rng.uniform(0, 1), p, FLAT)
            assert 0.0 < v <= 1.0

    def test_array_call_is_the_scalar_calls(self):
        # x up to 500 puts the grid's far corner past the collapse
        p = params()
        xs = np.linspace(-0.5, 500.0, 13)
        ys = np.append(0.0, np.geomspace(1e-8, 1e4, 9))
        for t, T in ((1.0, 11.0), (3.0, 3.0)):
            got = zcb_price(t, T, xs[:, None], ys, p, FLAT)
            want = [[zcb_price(t, T, float(x), float(y), p, FLAT)
                     for y in ys] for x in xs]
            np.testing.assert_array_equal(got, want)
            assert all(type(v) is float for row in want for v in row)
            assert (got == 0.0).any() == (t < T)


class TestEurodollar:
    def test_small_noise_matches_ode_terminal(self):
        p = params(sigma=1e-10, beta=0.3)
        curve = ForwardCurve.tabulated([[0.0, 0.10], [3.0, 0.12]])
        cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=32, seed=5)
        T, delta = 2.0, 0.5
        est = eurodollar_futures(p, curve, cfg, T, delta)
        ode = ode_integrate(p, curve, T, tol=1e-12)
        G = g_factor(T, T + delta, p.beta)
        want = curve.discount(T) / curve.discount(T + delta) * math.exp(
            G * (ode.terminal[0] - curve.value(T))
            + 0.5 * G * G * ode.terminal[1])
        assert not est.diverged
        assert est.mean == pytest.approx(want, abs=3 * est.std_error + 1e-4)

    def test_degenerate_state_gives_forward_ratio(self):
        p = params(sigma=1e-14)
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=4, seed=6)
        est = eurodollar_futures(p, FLAT, cfg, 1.0, 0.5)
        assert est.mean == pytest.approx(FLAT.discount(1.0) / FLAT.discount(1.5),
                                         rel=1e-8)

    def test_explosion_regime_diverges(self):
        p = params(sigma=0.5, beta=0.0)
        cfg = SimConfig(dt=0.02, horizon=30.0, n_paths=400, seed=7)
        est = eurodollar_futures(p, FLAT, cfg, 25.0, 0.25)
        assert est.diverged
        assert est.n_exploded >= 1

    def test_exceeds_forward_ratio(self):
        # convexity: E[exp(...)] >= exp(E[...]) pushes the estimate above
        # the forward bond ratio (statistically)
        p = params(sigma=0.2, beta=0.2)
        cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=2000, seed=8)
        est = eurodollar_futures(p, FLAT, cfg, 2.0, 0.5)
        ratio = FLAT.discount(2.0) / FLAT.discount(2.5)
        assert est.mean >= ratio - 3.0 * est.std_error

    def test_matches_per_path_loop(self):
        # reference: the payoff per surviving path with math.exp. np.exp
        # may differ from it by an ulp, and the standard error subtracts
        # the mean (about 90 times the spread in the first case), so mean
        # and standard error get tolerances of 1e-14 and 1e-12
        for sigma, beta, T, n in ((0.2, 0.2, 2.0, 2000), (0.5, 0.0, 25.0, 400)):
            p = params(sigma=sigma, beta=beta)
            cfg = SimConfig(dt=0.02, horizon=T + 0.5, n_paths=n, seed=8)
            est = eurodollar_futures(p, FLAT, cfg, T, 0.5)
            batch = simulate_batch(p, FLAT, replace(cfg, horizon=T))
            G = g_factor(T, T + 0.5, p.beta)
            vals = []
            for r, y, ex in zip(batch.terminal_r, batch.terminal_y,
                                batch.exploded):
                if not ex:
                    expo = G * (r - 0.1) + 0.5 * G * G * y
                    vals.append(math.exp(expo) if expo < 709.0 else math.inf)
            vals = np.array(vals)
            factor = math.exp(-0.1 * T) / math.exp(-0.1 * (T + 0.5))
            assert est.n_exploded == n - len(vals)
            assert est.diverged == (len(vals) < n)
            assert est.mean == pytest.approx(factor * vals.mean(), rel=1e-14)
            if np.all(np.isfinite(vals)):
                se = factor * vals.std(ddof=1) / math.sqrt(len(vals))
                assert est.std_error == pytest.approx(se, rel=1e-12)
            else:
                assert math.isnan(est.std_error)

    def test_estimate_is_the_inline_formula_bit_for_bit(self):
        # the survivor formula futures_estimate wrote out before it went
        # through expectation_functional; in the explosive case 5 of the
        # 183 survivors overflow, so the mean is inf and the error nan
        for sigma, beta, T, n, overflow in ((0.2, 0.2, 2.0, 2000, False),
                                            (0.5, 0.0, 25.0, 400, True)):
            p = params(sigma=sigma, beta=beta)
            cfg = SimConfig(dt=0.02, horizon=T, n_paths=n, seed=7)
            batch = simulate_batch(p, FLAT, cfg)
            G = g_factor(T, T + 0.5, p.beta)
            surv = ~batch.exploded
            expo = G * (batch.terminal_r[surv] - float(FLAT.value(T))) \
                + 0.5 * G * G * batch.terminal_y[surv]
            with np.errstate(over="ignore"):
                vals = np.where(expo < 709.0, np.exp(expo), math.inf)
            assert np.isinf(vals).any() == overflow == batch.exploded.any()
            se = (float(vals.std(ddof=1) / math.sqrt(len(vals)))
                  if np.all(np.isfinite(vals)) else math.nan)
            factor = FLAT.discount(T) / FLAT.discount(T + 0.5)
            est = futures_estimate(batch, p, FLAT, T, 0.5)
            np.testing.assert_array_equal(
                [est.mean, est.std_error],
                [factor * float(vals.mean()), factor * se])
            assert est.n_exploded == n - len(vals)
            assert est.diverged == overflow

    def test_horizon_guard(self):
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=4, seed=9)
        with pytest.raises(ConfigError):
            eurodollar_futures(params(), FLAT, cfg, 1.9, 0.5)

    @pytest.mark.parametrize("T", [0.0, 0.005, -1.0])
    def test_maturity_below_one_step(self, T):
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=4, seed=9)
        with pytest.raises(ConfigError, match=f"got T={T} dt=0.01"):
            eurodollar_futures(params(), FLAT, cfg, T, 0.5)


class TestDiscountConsistency:
    def test_zero_maturity(self):
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=10, seed=10)
        est = discount_consistency_check(params(), FLAT, cfg, 0.0)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("T", [0.0, 1.0])
    def test_threads_checked_at_every_maturity(self, T):
        # the T = 0 shortcut checks threads too
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=10, seed=10)
        with pytest.raises(ConfigError, match="threads must be >= 1, got 0"):
            discount_consistency_check(params(), FLAT, cfg, T, threads=0)

    @pytest.mark.parametrize("T", [0.005, -1.0])
    def test_maturity_below_one_step(self, T):
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=10, seed=10)
        with pytest.raises(ConfigError, match=f"T must be >= dt, got T={T}"):
            discount_consistency_check(params(), FLAT, cfg, T)

    def test_tiny_noise_exact(self):
        p = params(sigma=1e-14, beta=0.0)
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=4, seed=11)
        est = discount_consistency_check(p, FLAT, cfg, 1.0)
        assert est.mean == pytest.approx(math.exp(-0.1), rel=1e-10)

    def test_exploded_paths_count_as_zero(self):
        # README model: a quarter of the paths explode by T = 70, and the
        # survivors, the low-rate paths, overprice the bond
        p, T = params(beta=0.05), 70.0
        cfg = SimConfig(dt=0.02, horizon=T, n_paths=10000, seed=7)
        batch = simulate_batch(p, FLAT, cfg, want_discount=True)
        est = discount_estimate(batch)
        assert est.n_exploded == np.count_nonzero(batch.exploded) >= 2000
        assert not est.diverged
        assert abs(est.mean - FLAT.discount(T)) < 3.0 * est.std_error
        surv = pathwise_discount_factors(batch)[~batch.exploded]
        se = surv.std(ddof=1) / math.sqrt(len(surv))
        assert surv.mean() - FLAT.discount(T) > 3.0 * se

    def test_bond_martingale_through_explosion(self):
        # E[D(0, t) P(t, T)] = P(0, T), exploded paths at D(0, t) = 0
        p, t, T = params(beta=0.05), 50.0, 70.0
        cfg = SimConfig(dt=0.02, horizon=t, n_paths=10000, seed=11)
        batch = simulate_batch(p, FLAT, cfg, want_discount=True)
        vals = pathwise_discount_factors(batch) * zcb_price(
            t, T, batch.terminal_r - FLAT.value(t), batch.terminal_y, p, FLAT)
        assert batch.exploded.any()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - FLAT.discount(T)) < 3.0 * se

    def test_reproduces_curve_price(self):
        p = params()
        cfg = SimConfig(dt=1.0 / 365.0, horizon=1.0, n_paths=20000, seed=12)
        est = discount_consistency_check(p, FLAT, cfg, 1.0)
        assert est.n_exploded == 0
        assert est.mean == pytest.approx(math.exp(-0.1), rel=0.01)
