"""Deterministic small-noise limit of the log-normal model.

Dropping the Brownian term leaves the planar system

    r'(t) = y(t) - beta*r(t) + beta*lambda(t) + lambda'(t)
    y'(t) = sigma^2 r(t)^2 - 2*beta*y(t)

from (lambda(0), 0): the drifts of model_core.coefficients, sigma*r
being the model's sigma_r (sigma*(r + displacement), 0 where that is
<= 0, capped at vol_cap). Uncapped and undisplaced, on a flat curve the
solution blows up in finite time when beta < beta_C = sigma*sqrt(2*lambda0)
and otherwise converges to the stable rate
(beta^2/sigma^2) * (1 - sqrt(1 - 2*sigma^2*lambda0/beta^2)). The limit is
only defined for gamma = 1; other exponents are rejected.

ode_integrate steps u = r^(-1/2), v = y*r^(-3/2) and t in s, dt = u ds:
du/ds = -u^4 mu_r / 2, dv/ds = u^4 mu_y - 3 v u^3 mu_r / 2 (Stuart & Floater,
"On the computation of blow-up", 1990). r >= lambda(t) > 0, since
x = r - lambda has x(0) = 0 and x' = y - beta*x with y >= 0. A blow-up
is u -> 0 as s -> inf with v bounded; t nears t_exp with remainder ~ 2u/v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, UnsupportedGamma
from .model_core import ForwardCurve, ModelParams, coefficients

__all__ = ["OdeResult", "ode_integrate", "beta_critical", "fixed_point_r"]

# Dormand & Prince (1980): rows a_ij (the last the 5th-order weights), b5 - b4
_A = [np.array(a) for a in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])


@dataclass(frozen=True)
class OdeResult:
    """Integration outcome: blow-up flag and time, terminal state, trace.

    t_exp is +inf when no blow-up occurred; terminal is None for exploded
    runs. trace rows are (t, r, y) at the start and after each accepted
    step (steps of them); nfev counts the right-hand-side evaluations.
    """

    exploded: bool
    t_exp: float
    terminal: Optional[tuple[float, float]]
    trace: np.ndarray
    steps: int
    nfev: int


def _dopri54(f, w, h, tol, t_end):
    """Yield (w, nfev) at each accepted Dormand-Prince 5(4) step (first
    same as last) of w' = f(w) from w, first step h, until the clock w[0]
    (w[0]' > 0) lands on t_end. A step passes when each error estimate is
    at most tol * max(|w|, |w_new|); one that ends past t_end by more than
    tol * t_end is shrunk by the fraction of the clock still to go.
    """
    k = np.empty((7, len(w)))
    k[0] = f(w)
    nfev = 1
    while True:
        if not w[0] + h * k[0, 0] > w[0]:
            raise DomainError(f"step size underflow at t = {w[0]:g}")
        for i, a in enumerate(_A, 1):
            wn = w + h * (a @ k[:i])
            k[i] = f(wn)
        nfev += 6
        scale = np.maximum(np.maximum(np.abs(w), np.abs(wn)), 1e-300)
        err = float(np.max(np.abs(h * (_E @ k)) / scale)) / tol
        fac = 0.9 * max(err, 1e-4) ** -0.2
        if not err <= 1.0:  # rejected, also for a nan estimate
            h *= max(0.2, fac)
        elif wn[0] - t_end > tol * t_end:
            h *= (t_end - w[0]) / (wn[0] - w[0])
        else:
            w, k[0] = wn, k[6]
            yield w, nfev
            if t_end - w[0] <= tol * t_end:
                return
            h *= min(5.0, fac)


def ode_integrate(p: ModelParams, curve: ForwardCurve, horizon: float,
                  tol: float = 1e-10) -> OdeResult:
    """Integrate the small-noise system with blow-up detection.

    Steps (t, u, v) of the module docstring at relative tolerance
    tol >= 100 eps, rejecting a trial step that overflows. Once the
    remainder 2u/v is at most tol * t the run has blown up at
    t_exp = t + 2u/v; otherwise it lands on t = horizon.
    """
    if p.gamma != 1.0:
        raise UnsupportedGamma(
            f"the deterministic limit requires gamma = 1, got {p.gamma}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be in (0, inf), got {horizon}")
    if not tol >= 100 * np.finfo(float).eps:  # above the rounding of w
        raise DomainError(f"tol must be >= 2.22e-14, got {tol}")

    def rhs(w):
        t, u, v = w
        u3 = u * u * u
        lam, dlam = curve.rate_and_slope(t)
        mu_r, mu_y, _ = coefficients(u / u3, v / u3, lam, dlam, p)
        return u, -0.5 * u * u3 * mu_r, u * u3 * mu_y - 1.5 * v * u3 * mu_r

    rows = [np.array([0.0, curve.lambda0 ** -0.5, 0.0])]
    with np.errstate(over="ignore", invalid="ignore"):
        for w, nfev in _dopri54(rhs, rows[0], tol ** 0.2 * rows[0][1], tol,
                                float(horizon)):
            rows.append(w)
            if exploded := bool(2.0 * w[1] <= tol * w[0] * w[2]):
                break
    t, u, v = np.array(rows).T
    trace = np.column_stack([t, u ** -2, v * u ** -3])
    return OdeResult(
        exploded=exploded,
        t_exp=float(t[-1] + 2.0 * u[-1] / v[-1]) if exploded else math.inf,
        terminal=None if exploded else tuple(trace[-1, 1:].tolist()),
        trace=trace, steps=len(rows) - 1, nfev=nfev)


def beta_critical(p: ModelParams) -> float:
    """Critical mean reversion sigma * sqrt(2 * lambda0) on a flat curve.

    Below this level the deterministic solution blows up in finite time;
    at or above it the rate converges to a finite fixed point.
    """
    return p.sigma * math.sqrt(2.0 * p.lambda0)


def fixed_point_r(p: ModelParams) -> float:
    """Long-run rate (beta^2/sigma^2)(1 - sqrt(1 - 2 sigma^2 lambda0 / beta^2)).

    Defined for beta >= beta_critical; at equality the square root vanishes
    and the limit is 2*lambda0.
    """
    bc = beta_critical(p)
    if p.beta < bc:
        raise DomainError(
            f"fixed point requires beta >= beta_critical ({bc}), got {p.beta}")
    ratio = p.beta * p.beta / (p.sigma * p.sigma)
    radicand = 1.0 - 2.0 * p.sigma * p.sigma * p.lambda0 / (p.beta * p.beta)
    return ratio * (1.0 - math.sqrt(max(radicand, 0.0)))
