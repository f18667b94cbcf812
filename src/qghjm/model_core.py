"""Model primitives: parameters, volatility function, forward curve, the
coefficients of the (r, y) system, and the infinitesimal generator.

The model evolves the pair (r, y) where r is the short rate and y is an
auxiliary convexity state with units of rate squared:

    dr = (y - beta*r + beta*lambda(t) + lambda'(t)) dt + sigma_r(r) dW
    dy = (sigma_r(r)^2 - 2*beta*y) dt

started from r(0) = lambda(0), y(0) = 0. coefficients() is the one
definition of these drifts and of the diffusion; the Euler step, the
small-noise ODE and the generator all evaluate it. The short-rate
volatility is a CEV power law regularized below a cutoff level epsilon,
where it switches to log-normal scaling:

    sigma_r(x) = sigma * x * min(x^(gamma-1), epsilon^(gamma-1)),

so gamma = 1 is the plain log-normal model and the cutoff only affects the
region x < epsilon. A displacement a > 0 shifts the volatility argument,
sigma_r(x) = sigma*(x+a)*min((x+a)^(gamma-1), epsilon^(gamma-1)), which for
gamma = 1 is the displaced log-normal family; it is equivalent to the
non-displaced model run on the shifted curve lambda(t) + a.

Units: time in years, rates as absolute decimals (0.1 means 10%).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, check_keys, from_json

__all__ = [
    "ModelParams",
    "ForwardCurve",
    "SmoothField",
    "sigma_r",
    "coefficients",
    "generator_apply",
]


@dataclass(frozen=True)
class ModelParams:
    """Constant model parameters.

    Attributes
    ----------
    sigma : float
        Volatility scale, units 1/sqrt(year).
    beta : float
        Mean-reversion speed, 1/year. Larger beta delays or suppresses
        explosion.
    gamma : float
        CEV exponent in (0, 1]; gamma = 1 is log-normal.
    epsilon : float
        Cutoff level below which the volatility scales log-normally.
    lambda0 : float
        Initial flat forward rate, must exceed epsilon.
    displacement : float
        Shift a >= 0 of the volatility argument (0 = non-displaced).
    vol_cap : float, optional
        Cap c on sigma_r; when set the volatility is clipped to [0, c],
        which restores sub-linear growth and removes the explosion.
    """

    sigma: float
    beta: float
    gamma: float
    epsilon: float
    lambda0: float
    displacement: float = 0.0
    vol_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if not self.beta >= 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.lambda0 > self.epsilon:
            raise ConfigError(
                f"lambda0 must exceed epsilon, got lambda0={self.lambda0} "
                f"epsilon={self.epsilon}")
        if not self.displacement >= 0.0:
            raise ConfigError(
                f"displacement must be >= 0, got {self.displacement}")
        if self.vol_cap is not None and not self.vol_cap > 0.0:
            raise ConfigError(f"vol_cap must be > 0, got {self.vol_cap}")

    @classmethod
    def from_json(cls, obj: dict) -> "ModelParams":
        return from_json(cls, obj, "model")

    def to_json(self) -> dict:
        return asdict(self)


class ForwardCurve:
    """Initial instantaneous forward curve lambda(t) = f(0, t).

    Piecewise linear between knots (t_i, lambda_i) with t_0 = 0, held
    constant beyond the last knot; lambda'(t) is the analytic segment slope
    (0 beyond the last knot). A flat curve is the single knot (0, lambda0).
    All values must be positive.
    """

    __slots__ = ("_t", "_v", "_m", "_mom")

    def __init__(self, knots: Sequence[Sequence[float]]) -> None:
        arr = np.asarray(knots, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ConfigError("curve needs (t, value) knots")
        t, v = arr[:, 0], arr[:, 1]
        if t[0] != 0.0:
            raise ConfigError("first knot must be at t = 0")
        if not np.all(np.diff(t) > 0.0):
            raise ConfigError("knot times must be strictly increasing")
        if not np.all(v > 0.0):
            raise ConfigError("curve values must be positive")
        m = np.append(np.diff(v) / np.diff(t), 0.0)  # slope from each knot on
        # int_0^{t_i} s lambda'(s) ds at each knot, for integral()
        mom = np.concatenate([[0.0], np.cumsum(0.5 * m[:-1] * np.diff(t * t))])
        self._t, self._v, self._m, self._mom = t, v, m, mom
        for a in (t, v, m, mom):
            a.setflags(write=False)

    @classmethod
    def flat(cls, lambda0: float) -> "ForwardCurve":
        return cls([[0.0, lambda0]])

    @classmethod
    def tabulated(cls, knots: Sequence[Sequence[float]]) -> "ForwardCurve":
        curve = cls(knots)
        if len(curve._t) < 2:
            raise ConfigError("tabulated curve needs >= 2 (t, value) knots")
        return curve

    @property
    def lambda0(self) -> float:
        return float(self._v[0])

    def _segment(self, t):
        return np.maximum(np.searchsorted(self._t, t, side="right") - 1, 0)

    def value(self, t):
        """lambda(t); accepts scalars or arrays."""
        return np.interp(t, self._t, self._v)

    def slope(self, t):
        """lambda'(t): the segment slope, 0 beyond the last knot."""
        out = self._m[self._segment(t)]
        return out if np.ndim(t) else float(out)

    def rate_and_slope(self, t):
        return self.value(t), self.slope(t)

    def integral(self, T):
        """int_0^T lambda(s) ds = T lambda(T) - int_0^T s lambda'(s) ds,
        exact per segment; a constant curve gives exactly T * lambda0."""
        T = np.asarray(T, dtype=float)
        i = self._segment(T)
        ti = self._t[i]
        mom = self._mom[i] + 0.5 * self._m[i] * (T * T - ti * ti)
        out = T * self.value(T) - mom
        return out if np.ndim(T) else float(out)

    def discount(self, T):
        """P(0, T) = exp(-int_0^T lambda); 1 at T = 0."""
        out = np.exp(-self.integral(T))
        return out if np.ndim(T) else float(out)

    def shifted(self, a: float) -> "ForwardCurve":
        """The curve lambda(t) + a (used by the displaced-model reduction)."""
        if a == 0.0:
            return self
        return ForwardCurve(np.column_stack([self._t, self._v + a]))

    def satisfies_lower_bound(self, beta: float) -> bool:
        """Test lambda'(t) + beta*lambda(t) >= beta*lambda(0) at all knots.

        Under this condition the time-dependent dynamics dominate the flat
        dynamics at level lambda(0), so flat-curve explosion results apply.
        The slope is constant per segment and lambda is linear, so checking
        both ends of every segment, and the flat tail, is exact.
        """
        target = beta * self._v[0]
        m = self._m
        return bool(np.all(m + beta * self._v >= target)
                    and np.all(m[:-1] + beta * self._v[1:] >= target))

    def to_json(self) -> dict:
        if len(self._t) == 1:
            return {"kind": "flat", "lambda0": self.lambda0}
        return {"kind": "tabulated",
                "knots": [[float(t), float(v)] for t, v in zip(self._t, self._v)]}

    @classmethod
    def from_json(cls, obj: dict) -> "ForwardCurve":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "flat":
            check_keys(obj, "curve", {"kind", "lambda0"}, {"lambda0"})
            return cls.flat(float(obj["lambda0"]))
        if kind == "tabulated":
            check_keys(obj, "curve", {"kind", "knots"}, {"knots"})
            return cls.tabulated(obj["knots"])
        raise ConfigError(f"curve kind must be 'flat' or 'tabulated', got {kind!r}")


@dataclass(frozen=True)
class SmoothField:
    """A twice-differentiable scalar field V(r, y) with analytic partials.

    The callables must accept (r, y) and broadcast over numpy arrays.
    """

    value: Callable
    d_r: Callable
    d_rr: Callable
    d_y: Callable


def sigma_r(x, p: ModelParams, out=None):
    """Short-rate volatility sigma * z * min(z^(gamma-1), epsilon^(gamma-1))
    with z = x + displacement.

    Full truncation: returns 0 for z <= 0, so negative Euler overshoots see
    zero diffusion and the positive drift restores the state. Continuous at
    z = epsilon, and exactly sigma*z for gamma = 1. When vol_cap is set the
    result is clipped to [0, vol_cap]. Accepts scalars or arrays; out, an
    array shaped like x, receives the result. Only the gamma = 1 branch
    without a cap, max(sigma*z, 0), fills out with no temporary (and gives
    nan, not 0, for a nan x).
    """
    z = np.add(x, p.displacement, out=out)
    if p.gamma == 1.0 and p.vol_cap is None:
        return np.maximum(np.multiply(z, p.sigma, out=out), 0.0, out=out)
    pos = z > 0.0
    zs = np.where(pos, z, 1.0)
    cut = p.epsilon ** (p.gamma - 1.0)
    v = np.where(pos, p.sigma * z * np.minimum(zs ** (p.gamma - 1.0), cut), 0.0)
    if p.vol_cap is not None:
        v = np.minimum(np.maximum(v, 0.0), p.vol_cap)
    if out is None:
        return float(v) if v.ndim == 0 else v
    out[...] = v
    return out


def coefficients(r, y, lam, dlam, p: ModelParams, out=None):
    """Coefficients (mu_r, mu_y, sr) of the (r, y) system, where

        dr = mu_r dt + sr dW,  mu_r = y - beta*r + beta*lam + dlam,
        dy = mu_y dt,          mu_y = sr^2 - 2*beta*y,

    sr = sigma_r(r), and lam, dlam are the curve value lambda(t) and slope
    lambda'(t). Accepts scalars or arrays; out, three arrays shaped like r,
    receives the result in place, with the same bits.
    """
    o_r, o_y, o_s = (None, None, None) if out is None else out
    sr = sigma_r(r, p, out=o_s)
    two_beta_y = np.multiply(y, 2.0 * p.beta, out=o_r)  # o_r as scratch
    mu_y = np.subtract(np.multiply(sr, sr, out=o_y), two_beta_y, out=o_y)
    mu_r = np.subtract(y, np.multiply(r, p.beta, out=o_r), out=o_r)
    mu_r = np.add(np.add(mu_r, p.beta * lam, out=o_r), dlam, out=o_r)
    return (mu_r, mu_y, sr) if out is None else out


def generator_apply(field: SmoothField, r, y, p: ModelParams):
    """Apply the infinitesimal generator of the flat-curve diffusion to V.

    Returns

        mu_y dV/dy + mu_r dV/dr + (1/2) sr^2 d2V/dr2

    with the coefficients at lambda = lambda0 and lambda' = 0, evaluated
    with the supplied analytic partials; no finite differencing. Only the
    time-homogeneous (flat-curve) generator is exposed.
    """
    mu_r, mu_y, sr = coefficients(r, y, p.lambda0, 0.0, p)
    return (mu_y * field.d_y(r, y) + mu_r * field.d_r(r, y)
            + 0.5 * (sr * sr) * field.d_rr(r, y))
