"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately brute force or closed form from first
principles and never calls the code path it is checking.
"""

import math

import numpy as np
from scipy.integrate import quad

import qghjm as q


def blowup_time_by_quadrature(sigma: float, r0: float) -> float:
    """Blow-up time of r'' = sigma^2 r^2, r(0)=r0, r'(0)=0 via the energy
    integral t = sqrt(3/(2 sigma^2 r0)) * int_1^inf du/sqrt(u^3 - 1)."""
    I, err = quad(lambda u: (u ** 3 - 1.0) ** -0.5, 1.0, np.inf, limit=400)
    assert err < 1e-8
    return math.sqrt(3.0 / (2.0 * sigma * sigma * r0)) * I


def brute_min_fhat(a: float, b: float, delta1: float) -> float:
    """Grid + ternary refinement minimum of x -> a x^(delta1+1) + b/x."""
    f = lambda x: a * x ** (delta1 + 1.0) + b / x
    xs = np.geomspace(1e-8, 1e8, 4001)
    vals = a * xs ** (delta1 + 1.0) + b / xs
    i = int(np.argmin(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo <= 1e-14 * hi:
            break
    return f(0.5 * (lo + hi))


def holds_19p(a: float, b: float, R: float, p: q.ModelParams,
              d: q.DeltaPair) -> bool:
    """Direct evaluation of the three-way wedge inequality
    kappa1 a + kappa2 b <= min{kappa_d a^e1 b^e2, a R^(2g-d1-1), b R^(-d2)}."""
    k1, k2 = q.kappas(R, p, d)
    e1 = 1.0 / (d.delta1 + 2.0)
    lhs = k1 * a + k2 * b
    rhs = min(q.kappa_delta(d.delta1) * a ** e1 * b ** (1.0 - e1),
              a * R ** (2.0 * d.gamma - d.delta1 - 1.0),
              b * R ** (-d.delta2))
    return lhs <= rhs


def sample_nonempty_wedges(n: int, seed: int, max_tries: int = 100000):
    """Random parameter sets whose certificate wedge is non-empty, with a
    usable slope band."""
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < n and tries < max_tries:
        tries += 1
        gamma = rng.uniform(0.55, 1.0)
        sigma = rng.uniform(0.05, 0.8)
        beta = rng.uniform(0.0, 0.02)
        p = q.ModelParams(sigma=sigma, beta=beta, gamma=gamma, epsilon=0.01,
                          lambda0=0.1)
        d2 = rng.uniform(1e-3, 2.0 * gamma - 1.0 - 1e-6)
        d = q.DeltaPair(d2, gamma)
        R = math.exp(rng.uniform(math.log(0.01), math.log(1e3)))
        w = q.wedge_feasible_slopes(R, p, d)
        if w.nonempty and w.slope_lo is not None and w.slope_hi is not None \
                and w.slope_hi > w.slope_lo > 0.0:
            out.append((p, d, R, w))
    assert len(out) == n, f"only found {len(out)} wedges in {tries} tries"
    return out


def lyapunov_slack(spec: dict, model: dict, r, y):
    """LV - C V for V = C1 - C2 (1+y)^(-d1) - C3 (1+r)^(-d2), written out
    from V's partials and the flat-curve generator of a model without
    displacement or vol_cap; spec and model are the to_json() dicts."""
    c1, c2, c3, C = spec["c1"], spec["c2"], spec["c3"], spec["C"]
    d1, d2 = spec["delta1"], spec["delta2"]
    sigma, beta, gamma = model["sigma"], model["beta"], model["gamma"]
    # sigma_r = sigma r min(r^(gamma-1), eps^(gamma-1)); r > 0 on the grid
    vol2 = (sigma * r * np.minimum(r ** (gamma - 1.0),
                                   model["epsilon"] ** (gamma - 1.0))) ** 2
    v_y = d1 * c2 * (1.0 + y) ** (-d1 - 1.0)
    v_r = d2 * c3 * (1.0 + r) ** (-d2 - 1.0)
    v_rr = -(d2 + 1.0) * v_r / (1.0 + r)
    lv = ((vol2 - 2.0 * beta * y) * v_y
          + (y - beta * r + beta * model["lambda0"]) * v_r + 0.5 * vol2 * v_rr)
    return lv - C * (c1 - c2 * (1.0 + y) ** (-d1) - c3 * (1.0 + r) ** (-d2))


def far_field_min(spec: dict, model: dict) -> float:
    """The far-field minimum of LV - C V, written out from the limits
    along y = k r^(1+d2), r -> inf: C2 (sigma^2 d1 k^(-1-d1) - C)
    + C3 (d2 k - C), least over 2e6 k in (C/d2) geomspace(1e-10, 1e10).
    It samples k densely instead of calling min_F_hat."""
    c2, c3, C = spec["c2"], spec["c3"], spec["C"]
    d1, d2 = spec["delta1"], spec["delta2"]
    k = C / d2 * np.geomspace(1e-10, 1e10, 2_000_000)
    f = model["sigma"] ** 2 * d1 * k ** (-1.0 - d1) - C
    return float(np.min(c2 * f + c3 * (d2 * k - C)))


def exterior_log_grid(R: float, n: int = 700, lo: float = 1e-8,
                      hi: float = 1e20):
    """The n x n log grid on [lo R, hi R]^2 outside the open square
    (0, R)^2: it reaches far past any grid the package samples."""
    g = np.geomspace(R * lo, R * hi, n)
    rr, yy = np.meshgrid(g, g)
    keep = (rr >= R) | (yy >= R)
    return rr[keep], yy[keep]


def seeded_models(seed: int, n: int):
    """n models drawn one at a time in the order gamma, sigma, beta,
    epsilon: gamma uniform in (1/2, 1), sigma log-uniform in [0.03, 1.45],
    beta uniform in [0, 1.05 beta_max], epsilon log-uniform in [1e-3, 2]
    and lambda0 = max(0.1, 2 epsilon)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        gamma = rng.uniform(0.5, 1.0)
        sigma = math.exp(rng.uniform(math.log(0.03), math.log(1.45)))
        beta = rng.uniform(0.0, 1.05 * q.beta_max(sigma, gamma))
        eps = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
        yield q.ModelParams(sigma=sigma, beta=beta, gamma=gamma, epsilon=eps,
                            lambda0=max(0.1, 2.0 * eps))


def condition_f_rows(p: q.ModelParams, d2s, rs) -> np.ndarray:
    """Condition I's (delta2, R) grid one row at a time: a scalar DeltaPair
    and one condition_F call per delta2, the reference for the broadcast
    over a delta2 column."""
    return np.array([q.condition_F(rs, p, q.DeltaPair(d2, p.gamma))
                     for d2 in map(float, d2s)])
