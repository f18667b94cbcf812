"""Acceptance suite: every headline requirement at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
import pytest

import qghjm as q
from oracles import holds_19p, sample_nonempty_wedges

FLAT = ForwardCurve = q.ForwardCurve.flat(0.1)


def params(**kw):
    base = dict(sigma=0.2, beta=0.0, gamma=1.0, epsilon=0.01, lambda0=0.1)
    base.update(kw)
    return q.ModelParams(**base)


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_ode_explosion_time():
    t0 = time.perf_counter()
    res = q.ode_integrate(params(), FLAT, 100.0)
    elapsed = time.perf_counter() - t0
    ok = res.exploded and abs(res.t_exp - 47.03) <= 0.05 and elapsed < 1.0
    check(1, ok, f"t_exp = {res.t_exp:.4f} (target 47.03 +- 0.05), "
                 f"runtime {elapsed:.3f}s < 1s")


def test_criterion_02_critical_mean_reversion():
    bc = q.beta_critical(params())
    ok_bc = abs(bc - 0.08944) <= 1e-5
    below = q.ode_integrate(params(beta=0.99 * bc), FLAT, 5000.0)
    above = q.ode_integrate(params(beta=1.01 * bc), FLAT, 5000.0)
    fp = q.fixed_point_r(params(beta=1.01 * bc))
    rel = abs(above.terminal[0] / fp - 1.0) if not above.exploded else math.inf
    ok = ok_bc and below.exploded and not above.exploded and rel <= 1e-6
    check(2, ok, f"beta_C = {bc:.6f} (0.08944 +- 1e-5); "
                 f"0.99*beta_C exploded = {below.exploded}, "
                 f"1.01*beta_C converged with |rel err| = {rel:.2e} <= 1e-6")


def test_criterion_03_sigma_max_property():
    b140 = q.beta_max(1.40, 1.0)
    caps = [q.beta_max(1.42, g) for g in (0.6, 0.75, 0.9, 1.0)]
    grid = np.linspace(0.1, 1.45, 55)
    vals = [q.beta_max(float(s), 1.0) for s in grid]
    mono = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    ok = b140 > 0.0 and all(c <= 1e-4 for c in caps) and mono
    check(3, ok, f"beta_max(1.40) = {b140:.2e} > 0; "
                 f"max beta_max(1.42, gamma) = {max(caps):.2e} <= 1e-4; "
                 f"non-increasing on [0.1, 1.45] = {mono}")


def test_criterion_04_region_curve_structure():
    gammas = (0.6, 0.75, 0.9, 1.0)
    small = [q.beta_max(0.1, g) for g in gammas]
    stars_small = [q.delta2_star(0.1, g)[0] for g in gammas]
    distinct = all(b > a for a, b in zip(small, small[1:]))
    at_boundary = all(abs(s - (2 * g - 1)) <= 1e-12
                      for s, g in zip(stars_small, gammas))
    sigma_big = 1.2
    stars_big = [q.delta2_star(sigma_big, g)[0] for g in gammas]
    interior = all(s < 2 * g - 1 for s, g in zip(stars_big, gammas))
    big = [q.beta_max(sigma_big, g) for g in gammas]
    spread = max(big) - min(big)
    ok = distinct and at_boundary and interior and spread < 1e-10
    check(4, ok, f"sigma=0.1: curves distinct with delta2* = 2g-1 "
                 f"({distinct and at_boundary}); sigma={sigma_big}: interior "
                 f"delta2* and spread = {spread:.2e} < 1e-10")


def test_criterion_05_monte_carlo_explosion():
    t0 = time.perf_counter()
    cfg = q.SimConfig(dt=0.01, horizon=100.0, n_paths=10000, seed=20240815)
    free = q.simulate_batch(params(beta=0.0), FLAT, cfg)
    damped = q.simulate_batch(params(beta=0.05), FLAT, cfg)
    elapsed = time.perf_counter() - t0

    frac = float(free.exploded.mean())
    taus = free.tau_hat[free.exploded]
    q25, q75 = np.percentile(taus, [25, 75])
    share = float(((taus >= 30.0) & (taus <= 80.0)).mean())
    concentrated = (30.0 <= q25) and (q75 <= 80.0) and share >= 0.75

    ordered = True
    n = cfg.n_paths
    for T in np.linspace(10.0, 100.0, 10):
        f0 = float((free.tau_hat <= T).mean())
        fb = float((damped.tau_hat <= T).mean())
        se = math.sqrt(max(f0 * (1.0 - f0), 1e-12) / n)
        if fb > f0 + 2.0 * se:
            ordered = False
    ok = frac > 0.5 and concentrated and ordered and elapsed < 60.0
    check(5, ok, f"fraction = {frac:.4f} > 0.5; tau quartiles "
                 f"[{q25:.1f}, {q75:.1f}] in [30, 80] with {share:.0%} inside; "
                 f"beta=0.05 fraction never above beta=0 + 2se = {ordered}; "
                 f"runtime {elapsed:.1f}s < 60s")


def test_criterion_06_no_explosion_below_half():
    cfg = q.SimConfig(dt=0.01, horizon=50.0, n_paths=10000, seed=7,
                      explosion_threshold=1e8)
    batch = q.simulate_batch(params(gamma=0.5), FLAT, cfg)
    n_expl = int(batch.exploded.sum())
    check(6, n_expl == 0, f"gamma = 0.5: {n_expl} of 10000 paths exploded "
                          f"(threshold 1e8, horizon 50y)")


def test_criterion_07_lyapunov_verification():
    p = params(beta=0.05)
    rep = q.check_condition(p, "II")
    spec = q.build_lyapunov(p, rep)
    ver = q.verify_generator_inequality(spec, p)
    d = spec.deltas
    R = spec.R
    K2 = spec.c1 - spec.c2 * (1 + R) ** -d.delta1 \
        - spec.c3 * (1 + R) ** -d.delta2
    K3 = spec.c1 - spec.c2 * (1 + 2 * R) ** -d.delta1 \
        - spec.c3 * (1 + 2 * R) ** -d.delta2
    K0 = q.k0(spec)
    bad = q.verify_generator_inequality(q.scale_c3(spec, 100.0), p)
    ok = (rep.satisfied and ver.violations == 0 and K2 < K3 and K0 > 0.0
          and bad.violations > 0)
    check(7, ok, f"condition II satisfied; violations = {ver.violations} "
                 f"(min slack {ver.min_slack:.3e}); K0 = {K0:.3f} > 0; "
                 f"K2 = {K2:.3f} < K3 = {K3:.3f}; corrupted spec violations "
                 f"= {bad.violations} > 0")


def test_criterion_08_infimum_oracle():
    from oracles import brute_min_fhat

    rng = np.random.default_rng(20240816)
    worst = 0.0
    for _ in range(1000):
        a = float(np.exp(rng.uniform(-6.0, 6.0)))
        b = float(np.exp(rng.uniform(-6.0, 6.0)))
        d1 = float(rng.uniform(0.0, 1.0))
        closed = q.min_F_hat(a, b, d1)
        brute = brute_min_fhat(a, b, d1)
        worst = max(worst, abs(closed / brute - 1.0))
    kd = q.kappa_delta(1.0)
    kd_err = abs(kd - 3.0 * 2.0 ** (-2.0 / 3.0))
    ok = worst <= 1e-8 and kd_err <= 1e-12
    check(8, ok, f"1000 random triples: worst relative gap {worst:.2e} "
                 f"<= 1e-8; |kappa_delta(1) - 3*2^(-2/3)| = {kd_err:.2e} "
                 f"<= 1e-12")


def test_criterion_09_wedge_soundness():
    sets = sample_nonempty_wedges(200, seed=424242)
    interior_ok = exterior_bad = 0
    interior_total = exterior_total = 0
    for p, d, R, w in sets:
        inner = np.geomspace(w.slope_lo, w.slope_hi, 22)[1:-1]
        for s in inner:
            interior_total += 1
            interior_ok += holds_19p(1.0, float(s), R, p, d)
        outer = np.concatenate([
            np.linspace(0.90, 0.99, 10) * w.slope_lo,
            np.linspace(1.01, 1.10, 10) * w.slope_hi,
        ])
        for s in outer:
            exterior_total += 1
            exterior_bad += not holds_19p(1.0, float(s), R, p, d)
    ok = (interior_ok == interior_total == 200 * 20
          and exterior_bad == exterior_total == 200 * 20)
    check(9, ok, f"{interior_ok}/{interior_total} interior samples satisfy "
                 f"the wedge inequality; {exterior_bad}/{exterior_total} "
                 f"exterior samples (1% beyond) violate it")


def test_criterion_10_pricing_sanity():
    p = params(beta=0.2)
    cfg = q.SimConfig(dt=1.0 / 365.0, horizon=1.0, n_paths=100000, seed=99)
    est = q.discount_consistency_check(p, FLAT, cfg, 1.0)
    target = math.exp(-0.1)
    rel = abs(est.mean / target - 1.0)

    at_maturity = q.zcb_price(2.0, 2.0, 0.3, 0.2, p, FLAT)
    ratio = q.zcb_price(1.0, 4.0, 0.0, 0.0, p, FLAT)
    ident = (abs(at_maturity - 1.0) <= 1e-15
             and abs(ratio - math.exp(-0.3)) <= 1e-15)

    pe = params(sigma=0.5, beta=0.0)
    cfg_e = q.SimConfig(dt=0.02, horizon=30.0, n_paths=400, seed=13)
    fut = q.eurodollar_futures(pe, FLAT, cfg_e, 25.0, 0.25)
    ok = rel <= 0.01 and ident and fut.diverged
    check(10, ok, f"discount check rel err = {rel:.2e} <= 0.01 "
                  f"(100k paths); bond identities exact to 1e-15 = {ident}; "
                  f"futures diverged in explosion regime = {fut.diverged}")
