"""Independent checks of the program's outputs.

Every reference here is recomputed from the model's formulas with numpy
and the standard library; nothing imports qghjm. Each check function
returns a list of problems, empty when the output passes.

Model (flat curve lambda0, no displacement, no volatility cap):

    r_{k+1} = r_k + (y_k - beta r_k + beta lambda0) dt + s(r_k) sqrt(dt) Z_k
    y_{k+1} = max(y_k + (s(r_k)^2 - 2 beta y_k) dt, 0)
    s(r)    = sigma r min(r^(gamma-1), epsilon^(gamma-1)) for r > 0, else 0

with Z_k the k-th standard normal of Philox keyed by (seed, path index).
A path stops at the first step whose update is non-finite or reaches the
threshold; tau_hat is that step's left edge k dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

REL_TOL = 1e-12


@dataclass
class ScalarPath:
    """One reference path: explosion time, last good state, recorded rows."""

    tau: float
    r: float
    y: float
    rows: list = field(default_factory=list)  # (step, r, y) while alive


def philox_normals(seed: int, index: int, n: int) -> np.ndarray:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


def scalar_euler(model: dict, dt: float, n_steps: int, threshold: float,
                 seed: int, index: int, stride: int = 0) -> ScalarPath:
    """Euler path `index`, one scalar step at a time.

    With stride > 0 the state is recorded before every stride-th step and
    after the last step when it falls on the stride, as paths.csv does.
    """
    sigma, beta, gamma = model["sigma"], model["beta"], model["gamma"]
    lam = model["lambda0"]
    eps_pow = model["epsilon"] ** (gamma - 1.0)
    sqdt = math.sqrt(dt)
    r, y = lam, 0.0
    rows = []
    for k, z in enumerate(philox_normals(seed, index, n_steps).tolist()):
        if stride and k % stride == 0:
            rows.append((k, r, y))
        s = sigma * r * min(r ** (gamma - 1.0), eps_pow) if r > 0.0 else 0.0
        rn = r + (y - beta * r + beta * lam + 0.0) * dt + s * sqdt * z
        yn = max(y + (s * s - 2.0 * beta * y) * dt, 0.0)
        if not (math.isfinite(rn) and math.isfinite(yn)) \
                or rn >= threshold or yn >= threshold:
            return ScalarPath(k * dt, r, y, rows)
        r, y = rn, yn
    if stride and n_steps % stride == 0:
        rows.append((n_steps, r, y))
    return ScalarPath(math.inf, r, y, rows)


def sample_indices(seed: int, n_paths: int, k: int) -> list[int]:
    """k distinct path indices drawn from the workload seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    return sorted(int(i) for i in rng.choice(n_paths, size=k, replace=False))


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_path(ref: ScalarPath, tau: float, r: float, y: float,
               what: str) -> list[str]:
    """The program's tau_hat must equal the reference's bit for bit and the
    terminal state must agree to REL_TOL."""
    errs = []
    if not (tau == ref.tau):
        errs.append(f"{what}: tau_hat {tau!r} != reference {ref.tau!r}")
    if not (_close(r, ref.r) and _close(y, ref.y)):
        errs.append(f"{what}: terminal (r, y) = ({r!r}, {y!r}) != "
                    f"reference ({ref.r!r}, {ref.y!r})")
    return errs


def check_recorded(ref: ScalarPath, rows: list, dt: float,
                   what: str) -> list[str]:
    """Recorded (t, r, y) rows must match the reference's, row for row."""
    if len(rows) != len(ref.rows):
        return [f"{what}: {len(rows)} recorded rows, reference has "
                f"{len(ref.rows)}"]
    for (t, r, y), (k, rr, yy) in zip(rows, ref.rows):
        if not (_close(t, k * dt) and _close(r, rr) and _close(y, yy)):
            return [f"{what}: row t={t!r} (r={r!r}, y={y!r}) != reference "
                    f"t={k * dt!r} (r={rr!r}, y={yy!r})"]
    return []


def alive_path_steps(tau: np.ndarray, dt: float, n_steps: int) -> int:
    """Step updates computed while paths were alive, from tau_hat: a path
    exploding at step k computed k + 1 updates, a survivor n_steps."""
    tau = np.asarray(tau, dtype=float)
    fin = np.isfinite(tau)
    return int(np.rint(tau[fin] / dt).sum() + fin.sum()
               + (~fin).sum() * n_steps)


# ---------------------------------------------------------------------------
# gamma = 1/2: no explosion, and the linear mean recursion


def mean_recursion(sigma: float, lambda0: float, dt: float,
                   n_steps: int) -> tuple[float, float]:
    """Euler means of (r, y) for gamma = 1/2, beta = 0 and r >= epsilon,
    where s(r)^2 = sigma^2 r is linear: m <- m + u dt, u <- u + sigma^2 m dt."""
    m, u = lambda0, 0.0
    s2 = sigma * sigma
    for _ in range(n_steps):
        m, u = m + u * dt, u + s2 * m * dt
    return m, u


def check_means(r_T: np.ndarray, y_T: np.ndarray, sigma: float,
                lambda0: float, dt: float, n_steps: int,
                n_se: float = 5.0) -> list[str]:
    """Terminal means within n_se standard errors of the mean recursion."""
    errs = []
    for name, vals, ref in zip(("r_T", "y_T"), (r_T, y_T),
                               mean_recursion(sigma, lambda0, dt, n_steps)):
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        if not abs(mean - ref) <= n_se * se:
            errs.append(f"mean {name} = {mean:.6g} is {abs(mean - ref) / se:.2f} "
                        f"SE from the recursion's {ref:.6g}")
    return errs


# ---------------------------------------------------------------------------
# deterministic limit


def ode_blowup_time(sigma: float, beta: float, lambda0: float,
                    horizon: float, dtau: float = 0.02,
                    r_stop: float = 1e12) -> float:
    """Blow-up time of r' = y - beta r + beta lambda0, y' = sigma^2 r^2 - 2 beta y
    from (lambda0, 0), or inf when r stays below r_stop up to the horizon.

    Classical RK4 in the time change dt/dtau = 1/sqrt(1 + r), under which
    the blow-up is pushed to tau = inf and r grows only exponentially. Past
    r_stop the remaining time follows the asymptote r ~ 6/(sigma^2 (t* - t)^2).
    """
    def f(z):
        t, r, y = z
        w = 1.0 / math.sqrt(1.0 + abs(r))
        return (w, (y - beta * r + beta * lambda0) * w,
                (sigma * sigma * r * r - 2.0 * beta * y) * w)

    z = (0.0, lambda0, 0.0)
    h = dtau
    while z[0] < horizon:
        k1 = f(z)
        k2 = f(tuple(a + 0.5 * h * b for a, b in zip(z, k1)))
        k3 = f(tuple(a + 0.5 * h * b for a, b in zip(z, k2)))
        k4 = f(tuple(a + h * b for a, b in zip(z, k3)))
        z = tuple(a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4))
        if z[1] >= r_stop:
            return z[0] + math.sqrt(6.0 / (sigma * sigma * z[1]))
    return math.inf


def check_ode(exploded: bool, t_exp, ref: float, tol: float = 0.01
              ) -> list[str]:
    if math.isinf(ref):
        return [] if not exploded else [f"ode exploded at {t_exp}, "
                                        "reference does not"]
    if not exploded or t_exp is None or not abs(t_exp - ref) <= tol:
        return [f"ode t_exp = {t_exp!r} (exploded {exploded}), reference "
                f"{ref:.6f} +- {tol}"]
    return []


# ---------------------------------------------------------------------------
# admissible region


@cache
def beta_max_reference(sigma: float, gamma: float, n: int = 20001) -> float:
    """max(0, max over d in [0, 2 gamma - 1] of
    (1/2)(d/(1+d))^(d+1) - (1/4) sigma^2 d (d+1)), by a dense grid refined
    twice around its best point."""
    def J(d):
        return 0.5 * (d / (1.0 + d)) ** (d + 1.0) - 0.25 * sigma * sigma * d * (d + 1.0)

    lo, hi = 0.0, 2.0 * gamma - 1.0
    best = -math.inf
    for _ in range(3):
        d = np.linspace(lo, hi, n)
        v = J(d)
        i = int(np.argmax(v))
        best = max(best, float(v[i]))
        step = (hi - lo) / (n - 1)
        lo, hi = max(lo, d[i] - step), min(hi, d[i] + step)
    return max(0.0, best)


def check_region(rows: np.ndarray, gamma: float, sigma_grid: np.ndarray,
                 tol: float = 1e-9) -> list[str]:
    """rows are (sigma, beta_max, delta2_star) as region_gamma_<g>.csv holds."""
    rows = np.atleast_2d(rows)
    if rows.shape != (len(sigma_grid), 3) \
            or not np.array_equal(rows[:, 0], sigma_grid):
        return [f"region gamma={gamma}: sigma column does not match the grid"]
    for s, b, _ in rows:
        ref = beta_max_reference(float(s), float(gamma))
        if not abs(b - ref) <= tol:
            return [f"region gamma={gamma} sigma={s:.4g}: beta_max {b!r} != "
                    f"reference {ref!r}"]
    return []


# ---------------------------------------------------------------------------
# Lyapunov certificate


def lyapunov_slack(spec: dict, model: dict, r: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """LV - C V for V = C1 - C2 (1+y)^(-d1) - C3 (1+r)^(-d2), from the closed
    forms of V's partials and the flat-curve generator."""
    c1, c2, c3, C = spec["c1"], spec["c2"], spec["c3"], spec["C"]
    d1, d2 = spec["delta1"], spec["delta2"]
    sigma, beta, gamma = model["sigma"], model["beta"], model["gamma"]
    eps_pow = model["epsilon"] ** (gamma - 1.0)
    rp = np.where(r > 0.0, r, 1.0)
    s = np.where(r > 0.0, sigma * r * np.minimum(rp ** (gamma - 1.0), eps_pow), 0.0)
    a2 = s * s
    V = c1 - c2 * (1.0 + y) ** (-d1) - c3 * (1.0 + r) ** (-d2)
    V_y = d1 * c2 * (1.0 + y) ** (-d1 - 1.0)
    V_r = d2 * c3 * (1.0 + r) ** (-d2 - 1.0)
    V_rr = -d2 * (d2 + 1.0) * c3 * (1.0 + r) ** (-d2 - 2.0)
    LV = ((a2 - 2.0 * beta * y) * V_y
          + (y - beta * r + beta * model["lambda0"]) * V_r + 0.5 * a2 * V_rr)
    return LV - C * V


def exterior_points(R: float, n: int = 400, lo: float = 1e-8,
                    hi: float = 1e8) -> tuple[np.ndarray, np.ndarray]:
    """Log grid on [lo R, hi R]^2 outside the open square (0, R)^2, plus
    both faces r = R and y = R; reaches 10^7 times past the program's
    10 R cut-off."""
    g = np.geomspace(R * lo, R * hi, n)
    rr, yy = np.meshgrid(g, g)
    keep = (rr >= R) | (yy >= R)
    face = np.full(n, R)
    return (np.concatenate([rr[keep], face, g]),
            np.concatenate([yy[keep], g, face]))


def check_lyapunov(spec: dict, model: dict) -> list[str]:
    r, y = exterior_points(spec["R"])
    slack = lyapunov_slack(spec, model, r, y)
    bad = ~(slack >= -1e-12)
    if bad.any():
        i = int(np.argmin(np.where(np.isnan(slack), -np.inf, slack)))
        return [f"LV - C V < 0 at {int(bad.sum())} of {len(slack)} exterior "
                f"points, worst {slack[i]:.3e} at (r, y) = ({r[i]:.4g}, {y[i]:.4g})"]
    return []


# ---------------------------------------------------------------------------
# pricing


@dataclass
class PathSet:
    """Reference Euler results for paths 0 .. n-1 after some number of steps.

    tau is the explosion time (inf for survivors), (r, y) the state after
    the steps or the last good state of an exploded path, and log_discount
    the sum of r_k dt over the left endpoints of the steps taken alive.
    """

    tau: np.ndarray
    r: np.ndarray
    y: np.ndarray
    log_discount: np.ndarray

    @property
    def exploded(self) -> np.ndarray:
        return np.isfinite(self.tau)


def euler_paths(model: dict, dt: float, steps: list[int], threshold: float,
                seed: int, n_paths: int, chunk: int = 4096
                ) -> dict[int, PathSet]:
    """Every path 0 .. n_paths-1, vectorised over paths, with scalar_euler's
    step and stopping rule; the result after k steps for each k in steps.

    A run of horizon k dt is the first k steps of any longer run with the
    same seed, since draw k of a path depends only on (seed, index, k).
    """
    sigma, beta, gamma = model["sigma"], model["beta"], model["gamma"]
    lam = model["lambda0"]
    eps_pow = model["epsilon"] ** (gamma - 1.0)
    sqdt = math.sqrt(dt)
    n_steps = max(steps)
    out = {k: PathSet(np.empty(n_paths), np.empty(n_paths), np.empty(n_paths),
                      np.empty(n_paths)) for k in steps}
    for a in range(0, n_paths, chunk):
        b = min(a + chunk, n_paths)
        z = np.empty((b - a, n_steps))
        for j in range(b - a):
            z[j] = philox_normals(seed, a + j, n_steps)
        r, y, ld = np.full(b - a, lam), np.zeros(b - a), np.zeros(b - a)
        k_expl = np.full(b - a, n_steps)
        alive = np.ones(b - a, dtype=bool)
        for k in range(n_steps + 1):
            if k in out:
                o = out[k]
                o.tau[a:b] = np.where(k_expl < k, k_expl * dt, np.inf)
                o.r[a:b], o.y[a:b], o.log_discount[a:b] = r, y, ld
            if k == n_steps:
                break
            ld = np.where(alive, ld + r * dt, ld)
            pos = r > 0.0
            s = np.where(pos, sigma * r * np.minimum(
                np.where(pos, r, 1.0) ** (gamma - 1.0), eps_pow), 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                rn = r + (y - beta * r + beta * lam + 0.0) * dt \
                    + s * sqdt * z[:, k]
                yn = np.maximum(y + (s * s - 2.0 * beta * y) * dt, 0.0)
                ok = np.isfinite(rn) & np.isfinite(yn) \
                    & (rn < threshold) & (yn < threshold)
            k_expl[alive & ~ok] = k
            alive &= ok
            r, y = np.where(alive, rn, r), np.where(alive, yn, y)
    return out


def discount_reference(ps: PathSet) -> float:
    """Mean pathwise discount factor exp(-sum r_k dt) over the survivors."""
    return float(np.mean(np.exp(-ps.log_discount[~ps.exploded])))


def futures_reference(ps: PathSet, model: dict, T: float,
                      delta: float) -> float:
    """Survivors' mean of 1/P(T, T+delta) on the flat curve:
    exp(lambda0 delta) E[exp(G x_T + G^2 y_T / 2)], x_T = r_T - lambda0,
    G = (1 - exp(-beta delta))/beta (delta at beta = 0)."""
    beta, lam = model["beta"], model["lambda0"]
    G = (1.0 - math.exp(-beta * delta)) / beta if beta else delta
    surv = ~ps.exploded
    x, y = ps.r[surv] - lam, ps.y[surv]
    with np.errstate(over="ignore"):
        vals = np.exp(G * x + 0.5 * G * G * y)
    return float(np.mean(vals)) * math.exp(-lam * T) / math.exp(-lam * (T + delta))


def check_estimate(mean: float, n_exploded: int, ref_mean: float,
                   ref_exploded: int, what: str,
                   rel: float = 1e-10) -> list[str]:
    """A Monte Carlo estimate equals the reference's over the same paths:
    the exploded count exactly and the mean to rel."""
    errs = []
    if n_exploded != ref_exploded:
        errs.append(f"{what}: {n_exploded} exploded paths, reference counts "
                    f"{ref_exploded}")
    if not _close(mean, ref_mean, rel):
        errs.append(f"{what}: mean {mean!r} != reference {ref_mean!r} "
                    f"(rel {rel:g})")
    return errs


def check_discount(mean: float, lambda0: float, T: float,
                   rel: float = 0.01) -> list[str]:
    """The Monte Carlo discount factor reproduces P(0, T) = exp(-lambda0 T)."""
    target = math.exp(-lambda0 * T)
    if not abs(mean / target - 1.0) <= rel:
        return [f"discount mean {mean!r} is not within {rel:.0%} of "
                f"P(0,{T:g}) = {target!r}"]
    return []


def check_futures(mean: float, se: float, lambda0: float, delta: float,
                  n_se: float = 3.0) -> list[str]:
    """E[1/P(T, T+delta)] sits at or above the forward ratio
    P(0,T)/P(0,T+delta) = exp(lambda0 delta), up to n_se standard errors."""
    ratio = math.exp(lambda0 * delta)
    if not mean + n_se * se >= ratio:
        return [f"futures {mean!r} (se {se!r}) below the forward ratio {ratio!r}"]
    return []


def check_diverged(diverged: bool, n_exploded: int) -> list[str]:
    """diverged is set exactly when paths exploded."""
    if bool(diverged) != (n_exploded > 0):
        return [f"diverged={diverged} with {n_exploded} exploded paths"]
    return []
