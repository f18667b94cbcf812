"""Tests for the explosion certificates: condition scans, region curves,
wedge geometry, Lyapunov construction, and grid verification."""

import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qghjm as q
from qghjm import explosion_criteria as xc
from oracles import (brute_min_fhat, condition_f_rows, exterior_log_grid,
                     far_field_min, holds_19p, lyapunov_slack,
                     sample_nonempty_wedges, seeded_models)

SQ2M1 = math.sqrt(2.0) - 1.0
# its far interval of C2/C3 closes at 6.96949 inside the grid's band;
# the far field sampled at 801 log-spaced k closes it at 6.97418
FAR_BOUND = dict(sigma=0.3, beta=0.016795396848377976)


def params(**kw):
    base = dict(sigma=0.2, beta=0.05, gamma=1.0, epsilon=0.01, lambda0=0.1)
    base.update(kw)
    return q.ModelParams(**base)


class TestDeltaPair:
    @given(gamma=st.floats(0.51, 1.0), frac=st.floats(1e-6, 1.0 - 1e-9))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, gamma, frac):
        d2 = frac * (2.0 * gamma - 1.0)
        if d2 <= 0.0 or d2 >= 2.0 * gamma - 1.0:
            return
        d = q.DeltaPair(d2, gamma)
        assert d.delta1 > 0.0
        assert d.delta1 < 1.0 and d.delta2 < 1.0
        assert abs((1 + d.delta1) * (1 + d.delta2) - 2 * gamma) <= 1e-12

    def test_validation(self):
        # delta2 outside the open interval (0, 2*gamma - 1), ends included
        for d2, gamma in [(1.0, 1.0), (0.0, 1.0), (math.nan, 1.0),
                          (0.0, 0.6), (2 * 0.6 - 1, 0.6), (math.nan, 0.6)]:
            with pytest.raises(q.ConfigError, match="delta2 must lie in"):
                q.DeltaPair(d2, gamma)
        with pytest.raises(q.GammaOutOfRange):
            q.DeltaPair(0.1, 0.5)

    def test_delta1_is_derived(self):
        for gamma, d2 in [(1.0, SQ2M1), (0.8, 0.5), (0.6, 0.1)]:
            want = 2.0 * gamma / (1.0 + d2) - 1.0
            assert q.DeltaPair(d2, gamma).delta1 == want
        d2s = np.geomspace(1e-4, 0.79, 50)[:, None]
        np.testing.assert_array_equal(q.DeltaPair(d2s, 0.9).delta1,
                                      2.0 * 0.9 / (1.0 + d2s) - 1.0)

    def test_delta1_rounding_to_zero_rejected(self):
        # delta2 = 1 - 2^-53 lies inside (0, 1), but 2/(1+delta2) - 1 is 0.0
        d2 = 1.0 - 2.0 ** -53
        assert 0.0 < d2 < 1.0 and 2.0 / (1.0 + d2) - 1.0 == 0.0
        with pytest.raises(q.ConfigError, match="delta1 must be positive"):
            q.DeltaPair(d2, 1.0)

    def test_column_matches_scalar_pairs(self):
        d2s = np.geomspace(1e-4, 0.79, 50)
        col = q.DeltaPair(d2s[:, None], 0.9)
        assert col.delta1.shape == col.delta2.shape == (50, 1)
        np.testing.assert_array_equal(
            col.delta1[:, 0],
            [q.DeltaPair(float(x), 0.9).delta1 for x in d2s])

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0, math.nan])
    def test_column_with_one_entry_outside_rejected(self, bad):
        # one entry outside (0, 2 gamma - 1) = (0, 1) rejects the column
        d2s = np.geomspace(1e-4, 0.9, 50)[:, None]
        d2s[17] = bad
        with pytest.raises(q.ConfigError, match="delta2 must lie in"):
            q.DeltaPair(d2s, 1.0)


class TestConditionF:
    def test_large_beta_negative(self):
        p = params(beta=100.0)
        d = q.DeltaPair(0.5, 1.0)
        for R in (0.01, 1.0, 10.0, 1e4):
            assert q.condition_F(R, p, d) < 0.0

    def test_frozen_value(self):
        # frozen from a 50-digit evaluation of the displayed formula
        p = params(beta=0.0)
        d = q.DeltaPair(delta2=SQ2M1, gamma=1.0)
        got = q.condition_F(10.0, p, d)
        assert got == pytest.approx(70.59882433110513, rel=1e-13)
        with mp.workdps(50):
            sig = mp.mpf("0.2")
            dd = mp.sqrt(2) - 1
            R = mp.mpf(10)
            A = mp.mpf(1) / 2 * sig ** 2 * dd * (dd + 1)
            live = R ** 2 - A * ((1 / (dd * sig ** 2)) * (1 + R) ** (dd + 1)
                                 + (1 / dd) * R * (1 + R) ** (dd + 1))
            assert got == pytest.approx(float(live), rel=1e-12)

    def test_exponent_identity(self):
        # R^(2g-1) == R^(d1 d2 + d1 + d2) for any consistent pair
        for gamma, d2 in [(1.0, 0.3), (0.8, 0.5), (0.6, 0.1)]:
            d = q.DeltaPair(d2, gamma)
            e = d.delta1 * d.delta2 + d.delta1 + d.delta2
            assert e == pytest.approx(2 * gamma - 1, abs=1e-12)

    def test_domain(self):
        p = params()
        d = q.DeltaPair(0.5, 1.0)
        with pytest.raises(q.DomainError):
            q.condition_F(0.005, p, d)


class TestConditionG:
    def test_simple_value(self):
        d = q.DeltaPair(delta2=1.0 - 1e-12, gamma=1.0)
        assert q.condition_G(1.0, d) == pytest.approx(0.25, rel=1e-12)

    def test_vanishes_at_extremes(self):
        d = q.DeltaPair(0.5, 1.0)
        assert q.condition_G(1e-12, d) < 1e-6
        assert q.condition_G(1e12, d) < 1e-6

    def test_peak_location_and_value(self):
        for d2 in (0.2, 0.5, 0.9):
            d = q.DeltaPair(d2, 1.0)
            Rs = np.geomspace(1e-4, 100.0 / d2, 20001)
            vals = q.condition_G(Rs, d)
            i = int(np.argmax(vals))
            grid_res = Rs[i + 1] - Rs[i - 1]
            assert abs(Rs[i] - 1.0 / d2) < grid_res
            peak = q.condition_G(1.0 / d2, d)
            assert abs(peak - (d2 / (1 + d2)) ** (d2 + 1)) <= 1e-15
            assert vals.max() <= peak


class TestCheckCondition:
    def test_condition_ii_satisfied(self):
        rep = q.check_condition(params(), "II")
        assert rep.satisfied
        assert rep.sup_value >= 0.0
        assert rep.witness_R == pytest.approx(1.0 / rep.witness_deltas.delta2)

    @pytest.mark.parametrize("eps", [1e4, 2e4, 3.3e4])
    def test_condition_i_scans_from_epsilon_past_r_max(self, eps):
        # at or past the scan top 1e4 the R grid is epsilon alone, even
        # where geomspace(eps, eps) rounds points below eps (3.3e4)
        rep = q.check_condition(params(beta=0.0, epsilon=eps,
                                       lambda0=2.0 * eps), "I")
        assert rep.satisfied and eps <= rep.witness_R <= eps * (1 + 1e-15)

    def test_condition_ii_sigma_above_sqrt2(self):
        p = params(sigma=2.0, beta=0.0, gamma=0.6)
        rep = q.check_condition(p, "II")
        assert not rep.satisfied

    def test_condition_ii_dominated(self):
        # G's peak never exceeds 1/2, so 2*beta = 2 dominates every delta2
        rep = q.check_condition(params(beta=1.0), "II")
        assert not rep.satisfied
        assert rep.sup_value < 0.0

    @pytest.mark.parametrize("epsilon", [0.01, 0.5])
    @pytest.mark.parametrize("sigma", [0.1, 0.4, 0.9, 1.3, 1.5])
    @pytest.mark.parametrize("gamma", [0.55, 0.75, 1.0])
    def test_condition_ii_is_beta_below_beta_max(self, gamma, sigma,
                                                  epsilon):
        bmax = q.beta_max(sigma, gamma)
        betas = [b for b in [*np.linspace(0.0, 0.3, 13), bmax - 1e-6,
                             bmax + 1e-6]
                 if b >= 0.0 and abs(b - bmax) > 1e-9]
        for beta in betas:
            p = params(sigma=sigma, beta=float(beta), gamma=gamma,
                       epsilon=epsilon, lambda0=1.0)
            assert q.check_condition(p, "II").satisfied == (beta <= bmax)

    def test_condition_ii_when_g_peaks_below_epsilon(self):
        # epsilon > 1/delta2*: the sup lies on R = epsilon, off delta2*
        sigma, eps = 0.3, 5.0
        d2s = np.linspace(1e-4, 1.0 - 1e-9, 4001)
        for beta in (0.0, 0.06, 0.08):
            brute = max(q.condition_G(max(1.0 / d, eps),
                                      q.DeltaPair(d, 1.0))
                        - 2 * beta - 0.5 * sigma ** 2 * d * (d + 1)
                        for d in d2s)
            p = params(sigma=sigma, beta=beta, epsilon=eps, lambda0=6.0)
            rep = q.check_condition(p, "II")
            assert rep.sup_value == pytest.approx(brute, abs=1e-6)
            assert rep.satisfied == (brute >= 0.0)
            if rep.satisfied:
                assert rep.witness_R == eps
                # the witness beats its delta2 neighbours on R = epsilon
                d2 = rep.witness_deltas.delta2
                for x in (d2 - 1e-6, d2 + 1e-6):
                    m = (q.condition_G(eps, q.DeltaPair(x, 1.0))
                         - 2 * beta - 0.5 * sigma ** 2 * x * (x + 1))
                    assert rep.sup_value >= m

    def test_condition_i_at_zero_beta(self):
        rep = q.check_condition(params(beta=0.0), "I")
        assert rep.satisfied
        assert rep.sup_value > 0.0
        d, R = rep.witness_deltas, rep.witness_R
        assert q.condition_F(R, params(beta=0.0), d) > 0.0

    @pytest.mark.parametrize("kw", [
        {"beta": 0.0}, {"beta": 0.01}, {"beta": 0.05},
        {"sigma": 0.5, "beta": 0.01, "gamma": 0.8, "epsilon": 0.1,
         "lambda0": 1.0},
        {"sigma": 1.0, "beta": 0.0, "gamma": 0.6, "epsilon": 1.0,
         "lambda0": 2.0}])
    def test_condition_i_sup_beats_a_dense_grid(self, kw):
        # a brute-force (delta2, R) grid, finer than the scan's first one
        p = params(**kw)
        hi = 2 * p.gamma - 1
        rs = np.geomspace(p.epsilon, 1e4, 1001)
        brute = max(
            q.condition_F(rs, p, q.DeltaPair(d, p.gamma)).max()
            for d in np.geomspace(1e-4, hi * (1 - 1e-9), 1001))
        assert q.check_condition(p, "I").sup_value >= brute

    def test_condition_i_near_overflow_is_quiet(self):
        # sigma^2 = 1e300 is finite, but A times the bracket overflows on
        # part of the grid: F is -inf there, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = q.check_condition(params(sigma=1e150), "I")
        assert not rep.satisfied and rep.sup_value < 0.0

    @pytest.mark.parametrize("which", ["I", "II"])
    @pytest.mark.parametrize("kw", [{"sigma": 1e160}, {"sigma": 1e200},
                                    {"sigma": 1e160, "epsilon": 2e3,
                                     "lambda0": 4e3}])
    def test_overflowing_sigma_squared_is_unsatisfied(self, kw, which):
        # sigma^2 overflows a double and is read as inf: no condition
        # holds (the last case takes condition II's R = epsilon branch)
        rep = q.check_condition(params(**kw), which)
        assert not rep.satisfied
        assert rep.sup_value == -math.inf

    def test_condition_i_fails_at_moderate_beta(self):
        rep = q.check_condition(params(beta=0.05), "I")
        assert not rep.satisfied

    @pytest.mark.parametrize("kw", [{"gamma": 0.4}, {"vol_cap": 5.0}])
    def test_gamma_out_of_range(self, kw):
        # neither model can explode: no condition, and no constants even
        # from an explosive model's report
        with pytest.raises(q.GammaOutOfRange):
            q.check_condition(params(**kw), "II")
        with pytest.raises(q.GammaOutOfRange):
            q.build_lyapunov(params(**kw), q.check_condition(params(), "II"))

    def test_verify_refuses_capped_model(self):
        spec = q.build_lyapunov(params(), q.check_condition(params(), "II"))
        with pytest.raises(q.GammaOutOfRange, match="vol_cap"):
            q.verify_generator_inequality(spec, params(vol_cap=5.0))

    def test_bad_condition_name(self):
        with pytest.raises(q.ConfigError):
            q.check_condition(params(), "III")


class TestConditionIGrid:
    """Condition I's grids in one broadcast over a delta2 column against
    the row calls of tests/oracles.py, entry by entry."""

    def test_column_grid_equals_row_calls(self):
        multi_peak = 0
        for p in seeded_models(1500, 30):
            d2s = np.geomspace(xc._D2_MIN, (2 * p.gamma - 1) * xc._D2_TOP,
                               xc._N_GRID)
            rs = np.geomspace(p.epsilon, xc._R_MAX, xc._N_GRID)
            for _ in range(2):  # the first grid, then one 21 x 21 re-grid
                ref = condition_f_rows(p, d2s, rs)
                col = q.DeltaPair(d2s[:, None], p.gamma)
                np.testing.assert_array_equal(q.condition_F(rs, p, col), ref,
                                              strict=True)
                if len(d2s) == xc._N_GRID:  # peaks of the profile in delta2
                    prof = ref.max(axis=1)
                    up = np.diff(prof) > 0.0
                    multi_peak += np.count_nonzero(up[:-1] & ~up[1:]) > 1
                i, j = np.unravel_index(int(np.argmax(ref)), ref.shape)
                d2s = np.linspace(d2s[max(i - 1, 0)],
                                  d2s[min(i + 1, len(d2s) - 1)], 21)
                rs = np.linspace(rs[max(j - 1, 0)],
                                 rs[min(j + 1, len(rs) - 1)], 21)
        assert multi_peak >= 3

    def test_one_condition_F_call_per_grid(self, monkeypatch):
        calls = []
        real = xc.condition_F

        def counting(R, p, d):
            calls.append(np.shape(d.delta2))
            return real(R, p, d)

        monkeypatch.setattr(xc, "condition_F", counting)
        q.check_condition(params(beta=0.0), "I")
        assert calls[0] == (xc._N_GRID, 1)
        assert set(calls[1:]) == {(21, 1)}


class TestRegionMachinery:
    def test_delta2_star_boundary_at_small_sigma(self):
        d2s, _ = q.delta2_star(0.2, 1.0)
        assert d2s == 1.0
        d2s, _ = q.delta2_star(0.1, 0.75)
        assert d2s == 0.5

    def test_delta2_star_shrinks_with_sigma(self):
        vals = [q.delta2_star(s, 1.0)[0] for s in (0.2, 0.8, 1.2, 1.4)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    @pytest.mark.parametrize("sigma", [0.5, 0.8, 1.0, 1.2, 1.4])
    def test_delta2_star_is_the_root_of_j_prime(self, sigma):
        d2s, _ = q.delta2_star(sigma, 1.0)
        assert 0.0 < d2s < 1.0
        with mp.workdps(40):
            d, s = mp.mpf(d2s), mp.mpf(sigma)
            jp = ((d / (1 + d)) ** (d + 1) * (1 / d - mp.log(1 + 1 / d))
                  - s ** 2 * (2 * d + 1) / 2)
            assert abs(jp) <= 1e-14

    def test_delta2_star_gamma_independent_when_interior(self):
        results = [q.delta2_star(1.2, g) for g in (0.6, 0.75, 0.9, 1.0)]
        stars = [r[0] for r in results]
        objs = [r[1] for r in results]
        for s, v in zip(stars[1:], objs[1:]):
            assert abs(s - stars[0]) <= 4 * math.ulp(stars[0])
            assert v == pytest.approx(objs[0], abs=1e-12)
        assert all(s < 0.2 for s in stars)  # interior even for gamma = 0.6

    def test_beta_max_reference_point(self):
        # delta2* = 1 so beta_max = 1/2 * 1/4 - 1/4 * 0.04 * 2
        assert q.beta_max(0.2, 1.0) == pytest.approx(0.105, abs=1e-12)

    def test_beta_max_vanishes_above_sqrt2(self):
        # J'(0+) = 1 - sigma^2/2: the band closes exactly at sigma = sqrt(2)
        for sigma in (math.sqrt(2.0), 1.42, 1.45, math.sqrt(2.0) + 0.01):
            assert q.beta_max(sigma, 1.0) == 0.0
            assert q.delta2_star(sigma, 1.0) == (0.0, 0.0)
        assert q.beta_max(1.414, 1.0) > 0.0
        assert q.beta_max(1.40, 1.0) > 0.0

    def test_beta_max_non_increasing(self):
        grid = np.linspace(0.1, 1.45, 55)
        vals = [q.beta_max(float(s), 1.0) for s in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_region_curves_distinct_then_overlapping(self):
        gammas = (0.6, 0.75, 0.9, 1.0)
        at_small = [q.beta_max(0.1, g) for g in gammas]
        assert all(b > a for a, b in zip(at_small, at_small[1:]))
        stars = [q.delta2_star(0.1, g)[0] for g in gammas]
        for g, s in zip(gammas, stars):
            assert s == pytest.approx(2 * g - 1, abs=1e-12)
        at_large = [q.beta_max(1.2, g) for g in gammas]
        assert max(at_large) - min(at_large) < 1e-10

    def test_region_collapses_toward_half(self):
        assert q.beta_max(0.1, 0.5005) < 1e-3
        with pytest.raises(q.GammaOutOfRange):
            q.region_curve(0.5, [0.1, 0.2])

    def test_region_curve_object(self):
        rc = q.region_curve(1.0, np.linspace(0.1, 1.4, 14))
        assert rc.points.shape == (14, 3)
        assert np.all(np.diff(rc.points[:, 1]) <= 1e-12)
        assert np.all(rc.points[:, 1] >= 0.0)
        assert np.all((rc.points[:, 2] >= 0.0) & (rc.points[:, 2] <= 1.0))


class TestLemmaMinF:
    def test_kappa_delta_values(self):
        assert q.kappa_delta(0.0) == pytest.approx(2.0, rel=1e-15)
        assert q.kappa_delta(1.0) == pytest.approx(3.0 * 2.0 ** (-2.0 / 3.0),
                                                   abs=1e-12)
        assert q.kappa_delta(1.0) == pytest.approx(1.8898815748423097,
                                                   abs=1e-12)

    def test_kappa_delta_monotone_and_above_one(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [q.kappa_delta(float(x)) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert min(vals) > 1.0

    def test_unit_case(self):
        # F(x) = x + 1/x has minimum 2 at x = 1
        assert q.min_F_hat(1.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_zero_coefficient(self):
        # a x^(d1+1) alone, or b/x alone, has infimum 0 over x > 0
        assert q.min_F_hat(0.0, 2.0, 0.5) == 0.0
        assert q.min_F_hat(2.0, 0.0, 0.5) == 0.0
        for a, b in ((-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
            with pytest.raises(q.DomainError):
                q.min_F_hat(a, b, 0.5)

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = float(np.exp(rng.uniform(-6, 6)))
            b = float(np.exp(rng.uniform(-6, 6)))
            d1 = float(rng.uniform(0.0, 1.0))
            closed = q.min_F_hat(a, b, d1)
            brute = brute_min_fhat(a, b, d1)
            assert closed == pytest.approx(brute, rel=1e-8)

    @given(lam=st.floats(1e-3, 1e3), a=st.floats(1e-3, 1e3),
           b=st.floats(1e-3, 1e3), d1=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, lam, a, b, d1):
        lhs = q.min_F_hat(lam * a, lam * b, d1)
        rhs = lam * q.min_F_hat(a, b, d1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestKappas:
    def test_frozen_values(self):
        # frozen from a 50-digit evaluation
        p = params()
        d = q.DeltaPair(0.5, 1.0)
        k1, k2 = q.kappas(2.0, p, d)
        assert k1 == pytest.approx(14.80974051303373, rel=1e-13)
        assert k2 == pytest.approx(0.4225369806300982, rel=1e-13)

    def test_large_R_limit(self):
        p = params()
        d = q.DeltaPair(0.5, 1.0)
        k1, k2 = q.kappas(1e9, p, d)
        A = 2 * p.beta + 0.5 * p.sigma ** 2 * 0.5 * 1.5
        assert k1 == pytest.approx(A / (d.delta1 * p.sigma ** 2), rel=1e-8)
        assert k2 == pytest.approx(A / d.delta2, rel=1e-8)

    def test_equal_delta_ratio(self):
        p = params(beta=0.0)
        d = q.DeltaPair(delta2=SQ2M1, gamma=1.0)
        k1, k2 = q.kappas(3.0, p, d)
        assert k2 / k1 == pytest.approx(p.sigma ** 2, rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e150, 1e200])
    def test_kappa1_finite_as_sigma_squared_overflows(self, sigma):
        # kappa1 tends to delta2 (delta2 + 1) / (2 delta1) ((1+R)/R)^(delta1+1)
        # as sigma grows; at 1e200 sigma^2 overflows and A / sigma^2 is
        # inf / inf, so the limit is returned
        d = q.DeltaPair(SQ2M1, 1.0)
        k1, k2 = q.kappas(2.0, params(sigma=sigma), d)
        assert k1 == 1.2546299451440932
        assert k1 == pytest.approx(0.5 * d.delta2 * (d.delta2 + 1.0)
                                   / d.delta1 * 1.5 ** (d.delta1 + 1.0),
                                   rel=1e-15)


class TestWedge:
    def test_huge_beta_empty(self):
        p = params(beta=100.0)
        d = q.DeltaPair(0.5, 1.0)
        w = q.wedge_feasible_slopes(2.0, p, d)
        assert not w.nonempty
        assert w.slope_lo is None and w.slope_hi is None

    def test_nonempty_matches_condition_F(self):
        # band non-empty exactly where F(R) >= 0
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(300):
            gamma = rng.uniform(0.55, 1.0)
            p = params(sigma=rng.uniform(0.05, 0.8),
                       beta=rng.uniform(0.0, 0.02), gamma=gamma)
            d = q.DeltaPair(
                rng.uniform(1e-3, 2 * gamma - 1 - 1e-6), gamma)
            R = math.exp(rng.uniform(math.log(0.01), math.log(1e3)))
            w = q.wedge_feasible_slopes(R, p, d)
            F = q.condition_F(R, p, d)
            assert w.ineq1_holds == (F >= 0.0)
            assert w.nonempty == w.ineq1_holds
            if w.nonempty:
                hits += 1
                assert w.ineq2_holds  # ineq1 implies ineq2
        assert hits > 10

    def test_soundness_interior_and_exterior(self):
        for p, d, R, w in sample_nonempty_wedges(40, seed=1910):
            slopes = np.geomspace(w.slope_lo, w.slope_hi, 22)[1:-1]
            for s in slopes:
                assert holds_19p(1.0, float(s), R, p, d)
            assert not holds_19p(1.0, 0.99 * w.slope_lo, R, p, d)
            assert not holds_19p(1.0, 1.01 * w.slope_hi, R, p, d)

    def test_band_contains_the_divider(self):
        # R^(2g-d1-1) = divider * R^(-d2), so ineq1 puts the divider
        # between both slope bounds
        for p, d, R, w in sample_nonempty_wedges(10, seed=77):
            assert w.slope_lo <= w.divider <= w.slope_hi
            assert w.kind == "region1"

    def test_rounding_tie_is_empty(self):
        # at delta2 = 1e-17 every power of R = 1 rounds to 1 and kappa2 is
        # exactly 1, so ineq1 holds only by rounding kappa1 = 2e-17 away;
        # no slope has b R^(-d2) > kappa2 b, and lo would divide by zero
        p = params(sigma=1.0, beta=0.0)
        w = q.wedge_feasible_slopes(1.0, p, q.DeltaPair(1e-17, 1.0))
        assert w.ineq1_holds and not w.ineq2_holds
        assert w.kind == "empty" and w.slope_lo is None


class TestConditionVariants:
    @staticmethod
    def _margin(p, d2, weight):
        # condition-II margin with the mean-reversion weight made explicit:
        # weight = 2 is the plain form, weight = max(2 d1, d2) the sharper one
        d = q.DeltaPair(d2, p.gamma)
        w = 2.0 if weight == "plain" else max(2.0 * d.delta1, d.delta2)
        r0 = max(1.0 / d2, p.epsilon)
        return q.condition_G(r0, d) - (w * p.beta + 0.5 * p.sigma ** 2
                                       * d2 * (d2 + 1.0))

    def test_sharper_weight_widens_the_region(self):
        d2_grid = np.geomspace(1e-3, 1.0 - 1e-9, 120)
        sigmas = np.linspace(0.1, 1.3, 7)
        betas = np.linspace(0.0, 0.25, 11)
        widened_strictly = False
        for s in sigmas:
            for b in betas:
                p = params(sigma=float(s), beta=float(b))
                plain = max(self._margin(p, float(d), "plain")
                            for d in d2_grid)
                sharp = max(self._margin(p, float(d), "sharp")
                            for d in d2_grid)
                assert sharp >= plain - 1e-15
                if plain < 0.0 <= sharp:
                    widened_strictly = True
        assert widened_strictly

    def test_wedge_existence_tracks_condition_I(self):
        # for parameters passing condition I a wedge exists at the witness;
        # where only condition II holds, no (delta2, R) admits one
        p0 = params(beta=0.0)
        rep = q.check_condition(p0, "I")
        assert rep.satisfied
        w = q.wedge_feasible_slopes(rep.witness_R, p0, rep.witness_deltas)
        assert w.nonempty

        p1 = params(beta=0.05)
        assert q.check_condition(p1, "II").satisfied
        assert not q.check_condition(p1, "I").satisfied
        found = False
        for d2 in np.geomspace(1e-3, 1.0 - 1e-9, 50):
            d = q.DeltaPair(float(d2), 1.0)
            for R in np.geomspace(p1.epsilon, 1e4, 60):
                if q.wedge_feasible_slopes(float(R), p1, d).nonempty:
                    found = True
        assert not found


class TestBuildAndVerify:
    def test_pipeline_at_reference_parameters(self):
        p = params()  # sigma=0.2, beta=0.05, gamma=1, eps=0.01
        rep = q.check_condition(p, "II")
        assert rep.satisfied
        spec = q.build_lyapunov(p, rep)
        assert spec.c1 == spec.c2 + spec.c3
        d = spec.deltas
        want_C = max(2 * d.delta1, d.delta2) * p.beta \
            + 0.5 * p.sigma ** 2 * d.delta2 * (d.delta2 + 1)
        assert spec.C == pytest.approx(want_C, rel=1e-12)
        ver = q.verify_generator_inequality(spec, p)
        assert ver.violations == 0
        assert ver.min_slack > 0.0
        # boundary levels are ordered and the exterior infimum is positive
        R = spec.R
        K2 = spec.c1 - spec.c2 * (1 + R) ** -d.delta1 \
            - spec.c3 * (1 + R) ** -d.delta2
        K3 = spec.c1 - spec.c2 * (1 + 2 * R) ** -d.delta1 \
            - spec.c3 * (1 + 2 * R) ** -d.delta2
        assert K2 < K3
        assert q.k0(spec) > 0.0
        assert q.level_constants(spec) == {"K0": q.k0(spec), "K1": spec.c1,
                                           "K2": K2, "K3": K3}

    def test_corrupted_spec_fails(self):
        p = params()
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        bad = q.scale_c3(spec, 100.0)
        ver = q.verify_generator_inequality(bad, p)
        assert ver.violations > 0
        assert ver.min_slack < -1e-12

    def test_wedge_route_at_zero_beta(self):
        p = params(beta=0.0)
        rep = q.check_condition(p, "I")
        spec = q.build_lyapunov(p, rep)
        ver = q.verify_generator_inequality(spec, p)
        assert ver.violations == 0
        # the construction sits inside a certified wedge here
        w = q.wedge_feasible_slopes(spec.R, p, spec.deltas)
        assert w.nonempty

    @pytest.mark.parametrize("sigma, gamma, beta", [
        (0.2, 1.0, 0.0), (0.2, 1.0, 0.01), (0.2, 1.0, 0.02),
        (0.5, 0.9, 0.0), (0.3, 0.75, 0.0)])
    def test_band_constants_when_witness_wedge_empty(self, sigma, gamma,
                                                     beta):
        # the wedge is empty at condition II's witness; the ratio band
        # still gives constants that hold far past the checked grid
        p = params(sigma=sigma, gamma=gamma, beta=beta)
        rep = q.check_condition(p, "II")
        w = q.wedge_feasible_slopes(rep.witness_R, p, rep.witness_deltas)
        assert not w.nonempty
        spec = q.build_lyapunov(p, rep)
        assert spec.c3 == 1.0
        assert q.verify_generator_inequality(spec, p).violations == 0
        assert far_slack_min(spec, p) >= -1e-12

    def test_slack_route_keeps_the_witness(self):
        # the wedge is empty at condition II's witness and condition I
        # fails; of the band's candidates the report's own witness wins
        p = params(sigma=0.7, beta=0.0145, gamma=0.75)
        rep = q.check_condition(p, "II")
        w = q.wedge_feasible_slopes(rep.witness_R, p, rep.witness_deltas)
        assert not w.nonempty
        assert not q.check_condition(p, "I").satisfied
        spec = q.build_lyapunov(p, rep)
        assert (spec.deltas, spec.R) == (rep.witness_deltas, rep.witness_R)
        assert spec.deltas.delta1 == pytest.approx(0.2310, abs=1e-4)
        assert spec.R == pytest.approx(4.5767, abs=1e-4)
        assert spec.c3 == 1.0
        assert q.verify_generator_inequality(spec, p).violations == 0

    def test_unsatisfied_report_rejected(self):
        p = params(beta=1.0)
        rep = q.check_condition(p, "II")
        assert not rep.satisfied
        with pytest.raises(q.InfeasibleWedge):
            q.build_lyapunov(p, rep)

    def test_far_field_slack_respects_product_bound(self):
        # outside 2R in both coordinates the slack is at least the
        # closed-form product bound minus C*C1
        p = params()
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        d = spec.deltas
        R = spec.R
        qr = R / (1.0 + R)
        a = d.delta1 * spec.c2 * p.sigma ** 2 * qr ** (d.delta1 + 1)
        b = d.delta2 * spec.c3 * qr ** (d.delta2 + 1)
        bound = q.min_F_hat(a, b, d.delta1) - spec.C * spec.c1
        g = np.geomspace(2 * R, 50 * R, 60)
        rr, yy = np.meshgrid(g, g)
        field = q.explosion_criteria.lyapunov_field(spec)
        lv = q.generator_apply(field, rr, yy, p)
        slack = lv - spec.C * field.value(rr, yy)
        assert slack.min() >= bound - 1e-10

    def test_verify_grid_guardrails(self):
        p = params()
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        small_r = q.LyapunovSpec(c2=spec.c2, c3=spec.c3,
                                 deltas=spec.deltas, R=0.001, C=spec.C)
        with pytest.raises(q.DomainError):
            q.verify_generator_inequality(small_r, p)
        low_c = q.LyapunovSpec(c2=spec.c2, c3=spec.c3,
                               deltas=spec.deltas, R=spec.R, C=spec.C / 10)
        with pytest.raises(q.DomainError):
            q.verify_generator_inequality(low_c, p)
        # a split built for another gamma: the far-field rows would not hold
        for gamma in (0.9, 0.75):
            with pytest.raises(q.DomainError, match="gamma"):
                q.verify_generator_inequality(spec, params(gamma=gamma))

    def test_growth_constant_margin_is_relative(self):
        # at sigma 1e-20, beta 0 the growth constant is 2.9e-41, below any
        # absolute margin: a halved C is refused as on the README model
        for p in (params(), params(sigma=1e-20, beta=0.0)):
            spec = q.build_lyapunov(p, q.check_condition(p, "II"))
            assert q.verify_generator_inequality(spec, p).violations == 0
            with pytest.raises(q.DomainError, match="growth constant"):
                q.verify_generator_inequality(replace(spec, C=0.5 * spec.C), p)

    def test_overflowing_sigma_squared_reads_inf(self):
        # sigma^2 = inf, as check_condition reads it: no OverflowError
        p = params()
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        huge = params(sigma=1e200)
        assert xc._c_growth(huge, spec.deltas) == math.inf
        with pytest.raises(q.DomainError, match="growth constant"):
            q.verify_generator_inequality(spec, huge)
        assert q.as_explosion_r0_threshold(1.0, huge).overflow
        band = q.wedge_feasible_slopes(spec.R, huge, spec.deltas)
        assert band.slope_lo is None and not band.ineq1_holds


def far_slack_min(spec, p):
    """Smallest independent LV - C V on the log grid out to 1e20 R."""
    r, y = exterior_log_grid(spec.R)
    return lyapunov_slack(spec.to_json(), p.to_json(), r, y).min()


def seeded_specs():
    """(model, spec) for the seeded models that condition II certifies,
    as in test_seeded_draw_certificates_hold_far_out."""
    out = []
    for p in seeded_models(20261019, 40):
        rep = q.check_condition(p, "II")
        if rep.satisfied:
            try:
                out.append((p, q.build_lyapunov(p, rep)))
            except q.InfeasibleWedge:
                pass
    return out


class TestRatioBand:
    """build_lyapunov's band of ratios C2/C3 over the slack rows, cut to
    the exact far field that closes it past the grid's 10 R."""

    def test_readme_band_and_its_edges(self):
        p = params()
        d, R = q.DeltaPair(SQ2M1, 1.0), 1.0 / SQ2M1  # sqrt2+1
        C = xc._c_growth(p, d)
        lo, hi = xc._ratio_band(d, R, C, p)
        assert lo == pytest.approx(0.343, abs=5e-4)
        assert hi == pytest.approx(6.51, abs=5e-3)
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        assert (spec.deltas, spec.R) == (d, R)
        assert spec.c2 == pytest.approx(math.sqrt(lo * hi), rel=1e-12)
        assert spec.c3 == 1.0
        for t in (0.99 * lo, 1.01 * hi):
            edge = q.LyapunovSpec(c2=t, c3=1.0, deltas=d, R=R, C=C)
            assert q.verify_generator_inequality(edge, p).violations > 0
        assert q.verify_generator_inequality(spec, p).violations == 0

    def test_far_row_is_the_dense_k_minimum(self):
        for p, spec in seeded_specs():
            far = xc._far_slack(spec.c2, spec.c3, spec.deltas, spec.C, p)
            dense = far_field_min(spec.to_json(), p.to_json())
            # the k grid's log step of 2.3e-5 leaves a gap of ~1e-10 hat
            hat = far + spec.C * spec.c1
            assert abs(dense - far) <= 1e-9 * hat, p

    def test_band_closes_at_the_far_end(self):
        p = params(**FAR_BOUND)
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        d, R, C = spec.deltas, spec.R, spec.C
        lo, hi = xc._ratio_band(d, R, C, p)
        assert spec.c2 == pytest.approx(math.sqrt(lo * hi), rel=1e-12)
        f, g = xc._slack_rows(d, R, C, p)[2:]
        assert hi < np.min(g[f < 0.0] / -f[f < 0.0])  # the grid's end
        assert hi == pytest.approx(6.96949, abs=1e-5)
        for t, bad in ((1.0001 * hi, True), (0.9999 * hi, False)):
            edge = q.LyapunovSpec(c2=t, c3=1.0, deltas=d, R=R, C=C)
            ver = q.verify_generator_inequality(edge, p)
            assert (ver.violations > 0) == bad
            assert ver.worst_point == (math.inf, math.inf)
            assert (far_field_min(edge.to_json(), p.to_json()) < 0.0) == bad

    def test_far_field_alone_bounds_the_band_below(self):
        # at a tiny sigma every grid row with f > 0 has g > 0, so only the
        # far field keeps C2/C3 above its lower end
        p = params(sigma=1e-20, beta=0.0)
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        d, R, C = spec.deltas, spec.R, spec.C
        f, g = xc._slack_rows(d, R, C, p)[2:]
        assert np.all(g[f > 0.0] > 0.0)
        lo, hi = xc._ratio_band(d, R, C, p)
        assert 0.0 < lo < spec.c2 < hi
        assert far_field_min(spec.to_json(), p.to_json()) > 0.0
        # slacks are of order C ~ 1e-40 here, and a violation is counted
        # relative to C C1
        edge = q.LyapunovSpec(c2=0.999 * lo, c3=1.0, deltas=d, R=R, C=C)
        ver = q.verify_generator_inequality(edge, p)
        assert ver.violations > 0 and ver.worst_point == (math.inf, math.inf)
        assert q.verify_generator_inequality(spec, p).min_slack > 0.0

    def test_subnormal_rows_give_the_same_spec_without_a_warning(self):
        # at sigma 1e-160 some rows have a subnormal f, and g / -f
        # overflows to inf, which the band's ends read as it is
        p = params(sigma=1e-160, beta=0.0)
        report = q.check_condition(p, "II")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = q.build_lyapunov(p, report)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert q.build_lyapunov(p, report) == spec
        assert q.verify_generator_inequality(spec, p).violations == 0

    def test_ratio_between_exact_and_sampled_end_fails(self):
        # the far field sampled at 801 log-spaced k passes C2/C3 = 6.9718
        p = params(**FAR_BOUND)
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        bad = q.LyapunovSpec(c2=6.9718, c3=1.0, deltas=spec.deltas,
                             R=spec.R, C=spec.C)
        ver = q.verify_generator_inequality(bad, p)
        assert ver.violations >= 1
        assert ver.worst_point == (math.inf, math.inf)

    def test_false_certificate_past_ten_r_is_gone(self):
        # a ratio chosen on a grid cut off at 10 R, C2/C3 ~ 538, has
        # LV - C V = -0.33 near (1.9e8, 3.0e9) here
        p = q.ModelParams(sigma=0.673901078740194, beta=0.002558949882290202,
                          gamma=0.5221521078941425, epsilon=0.1978223737271069,
                          lambda0=0.3956447474542138)
        spec = q.build_lyapunov(p, q.check_condition(p, "II"))
        assert far_slack_min(spec, p) >= -1e-12

    def test_seeded_draw_certificates_hold_far_out(self):
        built = 0
        for p in seeded_models(20261019, 40):
            rep = q.check_condition(p, "II")
            if not rep.satisfied:
                continue
            try:
                spec = q.build_lyapunov(p, rep)
            except q.InfeasibleWedge:
                continue
            built += 1
            assert far_slack_min(spec, p) >= -1e-12, p
        assert built >= 25


class TestLyapunovSpec:
    @pytest.mark.parametrize("field", ["c2", "c3", "R", "C"])
    def test_infinite_constant_rejected(self, field):
        kw = dict(c2=1.0, c3=1.0, R=4.0, C=0.1, deltas=q.DeltaPair(0.5, 1.0))
        with pytest.raises(q.ConfigError, match="positive and finite"):
            q.LyapunovSpec(**dict(kw, **{field: math.inf}))

    def test_c1_is_derived(self):
        # C1 = C2 + C3 by construction: not a field, still in to_json, and
        # scale_c3 moves it with C3
        spec = q.LyapunovSpec(c2=2.0, c3=1.0, R=4.0, C=0.1,
                              deltas=q.DeltaPair(0.5, 1.0))
        assert spec.c1 == 3.0 and spec.to_json()["c1"] == 3.0
        scaled = q.scale_c3(spec, 4.0)
        assert (scaled.c1, scaled.c2, scaled.c3) == (6.0, 2.0, 4.0)
        assert scaled.deltas == spec.deltas and scaled.R == spec.R
        with pytest.raises(TypeError):
            q.LyapunovSpec(c1=3.0, c2=2.0, c3=1.0, R=4.0, C=0.1,
                           deltas=q.DeltaPair(0.5, 1.0))


class TestK0:
    def make_spec(self, c2, c3, R, d2=0.5):
        d = q.DeltaPair(d2, 1.0)
        return q.LyapunovSpec(c2=c2, c3=c3, deltas=d, R=R, C=0.1)

    def test_positive_when_budget_tight(self):
        spec = self.make_spec(2.0, 1.0, 3.0)
        assert q.k0(spec) > 0.0

    def test_large_R_limit(self):
        spec = self.make_spec(2.0, 1.0, 1e40)
        assert q.k0(spec) == pytest.approx(spec.c1 - max(spec.c2, spec.c3),
                                           rel=1e-10)

    def test_symmetric_case(self):
        d = q.DeltaPair(delta2=SQ2M1, gamma=1.0)
        spec = q.LyapunovSpec(c2=1.0, c3=1.0, deltas=d, R=4.0, C=0.1)
        want = spec.c1 - spec.c2 * (1.0 + (1.0 + 4.0) ** -SQ2M1)
        assert q.k0(spec) == pytest.approx(want, rel=1e-14)


class TestAlmostSureThreshold:
    def test_frozen_reference(self):
        # frozen from a 50-digit evaluation of both branches
        thr = q.as_explosion_r0_threshold(1.0, params())
        assert thr.log_value == pytest.approx(50.347513165933, rel=1e-12)
        assert not thr.overflow
        assert thr.value == pytest.approx(math.exp(50.347513165933), rel=1e-9)
        # the linear branch evaluates to ~15.77 and loses
        first = (math.e / 0.05) * (4 * 0.05 + 0.05 + 0.04)
        assert first == pytest.approx(15.766034605062462, rel=1e-13)
        assert thr.log_value > math.log(first)

    def test_increasing_in_R(self):
        vals = [q.as_explosion_r0_threshold(R, params()).log_value
                for R in np.linspace(0.5, 3.0, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_overflow_flag(self):
        thr = q.as_explosion_r0_threshold(4.0, params(sigma=0.05, beta=2.0))
        assert thr.overflow
        assert thr.value is None
        assert thr.log_value > 700.0

    def test_large_beta_branches(self):
        p = params(beta=1e6, sigma=0.2)
        thr = q.as_explosion_r0_threshold(1.0, p)
        log1 = 1.0 - math.log(p.beta) + math.log(4e6 + 1e6 + 0.04)
        log2 = math.log(0.04 / 1e6) \
            + math.exp(2.0) / 0.04 * (4e6 + 1e6 + 0.04) - 3.0
        assert thr.log_value == pytest.approx(max(log1, log2), rel=1e-12)

    def test_beta_zero_rejected(self):
        with pytest.raises(q.DomainError):
            q.as_explosion_r0_threshold(1.0, params(beta=0.0))

    def test_overflowing_exponential(self):
        # e^(2R) overflows a double past R ~ 354.9; the wedge route reaches
        # R = 1e4, where the threshold is infinite rather than an error
        thr = q.as_explosion_r0_threshold(1e4, params(beta=0.01))
        assert thr.log_value == math.inf
        assert thr.overflow
        assert thr.value is None


class TestA5Function:
    def test_partials(self):
        f = q.explosion_criteria.a5_field()
        assert f.value(1.0, 2.0) == pytest.approx(math.exp(-1) + math.exp(-2))
        assert f.d_r(1.0, 2.0) == pytest.approx(-math.exp(-1))
        assert f.d_rr(1.0, 2.0) == pytest.approx(math.exp(-1))
        assert f.d_y(1.0, 2.0) == pytest.approx(-math.exp(-2))

    def test_compliant_initial_rate_is_negative_everywhere(self):
        base = params()
        thr = q.as_explosion_r0_threshold(1.0, base)
        assert not thr.overflow
        compliant = params(lambda0=thr.value)
        rep = q.verify_a5_function(compliant, 1.0)
        assert rep.negative
        assert rep.max_value < 0.0

    def test_small_initial_rate_has_positive_spots(self):
        rep = q.verify_a5_function(params(), 1.0)
        assert not rep.negative
        assert rep.max_value > 0.0

    def test_requires_positive_beta(self):
        with pytest.raises(q.DomainError):
            q.verify_a5_function(params(beta=0.0), 1.0)
