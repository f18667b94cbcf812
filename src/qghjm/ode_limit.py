"""Deterministic small-noise limit of the log-normal model.

Dropping the Brownian term leaves the planar system

    r'(t) = y(t) - beta*r(t) + beta*lambda(t) + lambda'(t)
    y'(t) = sigma^2 r(t)^2 - 2*beta*y(t)

from (lambda(0), 0): the drifts of model_core.coefficients, sigma*r
being the model's sigma_r (0 for r <= 0, capped at vol_cap). Uncapped,
on a flat curve the solution blows up in finite time when
beta < beta_C = sigma*sqrt(2*lambda0) and otherwise converges to the
stable rate
(beta^2/sigma^2) * (1 - sqrt(1 - 2*sigma^2*lambda0/beta^2)). The limit is
only defined for gamma = 1; other exponents are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainError, UnsupportedGamma
from .model_core import ForwardCurve, ModelParams, coefficients

__all__ = ["OdeResult", "ode_integrate", "beta_critical", "fixed_point_r"]


@dataclass(frozen=True)
class OdeResult:
    """Integration outcome: blow-up flag and time, terminal state, trace.

    t_exp is +inf when no blow-up occurred; terminal is None for exploded
    runs. trace rows are (t, r, y) at the integrator's accepted steps.
    """

    exploded: bool
    t_exp: float
    terminal: Optional[tuple[float, float]]
    trace: np.ndarray


def ode_integrate(p: ModelParams, curve: ForwardCurve, horizon: float,
                  tol: float = 1e-10, *,
                  blowup_threshold: float = 1e10) -> OdeResult:
    """Integrate the small-noise system with blow-up detection.

    Uses an adaptive 8th-order embedded Runge-Kutta pair at relative
    tolerance tol >= 100 eps. Blow-up is declared when r crosses X =
    blowup_threshold > 100 lambda(0) (shifted); t_exp extrapolates the
    crossing times of X and X/100 by the square-root law t_exp - t(X) ~
    C/sqrt(X) of the quadratic blow-up, stable to well under 0.01y.
    """
    if p.gamma != 1.0:
        raise UnsupportedGamma(
            f"the deterministic limit requires gamma = 1, got {p.gamma}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be in (0, inf), got {horizon}")
    if not tol >= 100 * np.finfo(float).eps:  # solve_ivp's own rtol floor
        raise DomainError(f"tol must be >= 2.22e-14, got {tol}")
    # the shifted rate on the shifted curve, as in the Euler step
    shift = p.displacement
    p0 = replace(p, displacement=0.0)
    crv = curve.shifted(shift)
    r0 = crv.lambda0
    if not 100.0 * r0 < blowup_threshold < math.inf:  # both crossings above r0
        raise DomainError(f"blowup_threshold must be finite and > 100 * "
                          f"lambda(0) = {100.0 * r0}, got {blowup_threshold}")
    # imported here: scipy.integrate dominates the package import time
    from scipy.integrate import solve_ivp

    def rhs(t, z):
        lam, dlam = crv.rate_and_slope(t)
        return coefficients(z[0], z[1], lam, dlam, p0)[:2]

    x_hi = float(blowup_threshold)
    x_lo = x_hi / 100.0

    def cross_lo(t, z):
        return z[0] - x_lo

    def cross_hi(t, z):
        return z[0] - x_hi

    cross_hi.terminal = True

    sol = solve_ivp(rhs, (0.0, float(horizon)), [r0, 0.0], method="DOP853",
                    rtol=tol, atol=tol * 1e-4, events=[cross_lo, cross_hi])

    trace = np.column_stack([sol.t, sol.y[0] - shift, sol.y[1]])
    hit_hi = len(sol.t_events[1]) > 0
    if hit_hi:
        t1 = float(sol.t_events[0][0])
        t2 = float(sol.t_events[1][0])
        w = math.sqrt(x_lo / x_hi)
        t_exp = t2 + (t2 - t1) * w / (1.0 - w)
        return OdeResult(exploded=True, t_exp=t_exp, terminal=None, trace=trace)
    if sol.status == -1:
        # step-size underflow without reaching the terminal threshold:
        # treat as blow-up at the integrator's last reachable time
        if sol.y[0, -1] >= x_lo:
            return OdeResult(exploded=True, t_exp=float(sol.t[-1]),
                             terminal=None, trace=trace)
        raise DomainError(f"integration failed below {x_lo:g}: {sol.message}")
    terminal = (float(sol.y[0, -1] - shift), float(sol.y[1, -1]))
    return OdeResult(exploded=False, t_exp=math.inf, terminal=terminal,
                     trace=trace)


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
