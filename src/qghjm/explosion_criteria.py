"""Explosion certificates for exponents gamma in (1/2, 1].

Two scalar conditions decide whether the finite-time explosion of (r, y)
can be certified. Both are parameterized by a split (delta1, delta2) of
the exponent budget,

    (1 + delta1)(1 + delta2) = 2*gamma,    delta1, delta2 > 0,

a domain radius R >= epsilon, and the combination
A = 2*beta + (1/2) sigma^2 delta2 (delta2 + 1):

  (I)  sup_{R >= eps} F(R) > 0 with
       F(R) = R^(2g) - A * [ (1/(d1 s^2)) (1+R)^(d1+1)
                             + (1/d2) R^(2g-1) (1+R)^(d2+1) ]

  (II) sup_{R >= eps} ( G(R) - A ) >= 0 with
       G(R) = d2 * R / (1+R)^(d2+1),

where G peaks at R0 = 1/delta2 with value (d2/(1+d2))^(d2+1). For
epsilon <= 1, condition (II) therefore holds exactly when beta lies in the
admissible band 0 <= beta <= beta_max(sigma, gamma) = max{0, J(d2*)/2},
d2* the maximizer of J(d2) = (d2/(1+d2))^(d2+1) - (1/2) sigma^2 d2 (d2+1)
on [0, 2*gamma-1]. J is strictly concave there and J'(0+) = 1 - sigma^2/2,
so d2* is the root of J' and the band closes at sigma = sqrt(2).

A certificate is realized by a bounded function

    V(r, y) = C1 - C2 (1+y)^(-d1) - C3 (1+r)^(-d2),   C1 = C2 + C3,

whose generator dominates C*V outside the square D = (0,R)^2, with
C = max(2*d1, d2)*beta + (1/2) sigma^2 d2 (d2+1). Feasible (C2, C3) form
a wedge of slopes b/a in transformed coordinates

    a = d1 C2 sigma^2 (R/(1+R))^(d1+1),  b = d2 C3 (R/(1+R))^(d2+1),

on which  kappa1 a + kappa2 b <= min{ kappa_d a^e1 b^e2,
a R^(2g-d1-1), b R^(-d2) }  holds. Solving the three constraints gives
the slope band

    kappa1 / (R^(-d2) - kappa2)  <=  b/a  <=  (R^(2g-d1-1) - kappa1)/kappa2.

It is non-empty exactly when condition (I) holds at that (delta2, R),
and then it contains the divider R^(d2 (d1+2)).

The wedge discards positive terms of the generator, so it is an inner
bound of the exact band below and is only reported. The constants come
from the slack LV - C V = C2 f + C3 g on rows (f, g), one per point of
a fixed exterior grid, and from its exact far-field infimum along
y = k r^(1+d2), r -> inf (min_F_hat): the feasible ratios C2/C3 form one
band, whose geometric middle gives the constants. The band and the check
of a spec read the same rows and far field; only the grid is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._csv import write_rows
from ._search import bisect
from .errors import ConfigError, DomainError, GammaOutOfRange, InfeasibleWedge
from .model_core import ModelParams, SmoothField, generator_apply

__all__ = [
    "DeltaPair",
    "LyapunovSpec",
    "ConditionReport",
    "RegionCurve",
    "WedgeSlopes",
    "VerificationReport",
    "R0Threshold",
    "A5Report",
    "condition_F",
    "condition_G",
    "check_condition",
    "delta2_star",
    "beta_max",
    "region_curve",
    "kappa_delta",
    "min_F_hat",
    "kappas",
    "wedge_feasible_slopes",
    "build_lyapunov",
    "scale_c3",
    "lyapunov_field",
    "a5_field",
    "verify_generator_inequality",
    "as_explosion_r0_threshold",
    "k0",
    "level_constants",
    "verify_a5_function",
]

# delta2 scans run over [_D2_MIN, _D2_TOP * (2*gamma - 1)]
_D2_MIN = 1e-4
_D2_TOP = 1.0 - 1e-9
_R_MAX = 1e4
_N_GRID = 400
_REFINE_TOL = 1e-10
_L_OVER_R = 10.0
_FLOOR = 1e-6
_FACE_OFFSET = 1e-6
_FACE_POINTS = 100
_N_VERIFY = 200


def _require_gamma(gamma: float) -> None:
    if not 0.5 < gamma <= 1.0:
        raise GammaOutOfRange(
            f"explosion certificates require gamma in (1/2, 1], got {gamma}; "
            "for gamma <= 1/2 the dynamics are non-explosive")


def _require_explosive(p: ModelParams) -> None:
    _require_gamma(p.gamma)
    if p.vol_cap is not None:
        raise GammaOutOfRange(f"vol_cap = {p.vol_cap} bounds the volatility, "
                              "so the dynamics are non-explosive")


@dataclass(frozen=True)
class DeltaPair:
    """Exponent split with (1+delta1)(1+delta2) = 2*gamma, both positive;
    delta1 follows from delta2, which may be a column, checked per entry."""

    delta2: float
    gamma: float

    def __post_init__(self) -> None:
        _require_gamma(self.gamma)
        hi = 2.0 * self.gamma - 1.0
        if not np.all((0.0 < self.delta2) & (self.delta2 < hi)):
            raise ConfigError(f"delta2 must lie in (0, {hi}), got {self.delta2}")
        if not np.all(self.delta1 > 0.0):  # delta2 within rounding of 2*gamma-1
            raise ConfigError(f"delta1 must be positive, got {self.delta1}")

    @property
    def delta1(self) -> float:
        return 2.0 * self.gamma / (1.0 + self.delta2) - 1.0


@dataclass(frozen=True)
class LyapunovSpec:
    """Constants (C2, C3, deltas, R, C) of a certificate; C1 = C2 + C3."""

    c2: float
    c3: float
    deltas: DeltaPair
    R: float
    C: float

    def __post_init__(self) -> None:
        vals = (self.c2, self.c3, self.R, self.C)
        if not all(0.0 < v < math.inf for v in vals):
            raise ConfigError("C2, C3, R and C must be positive and "
                              f"finite, got {vals}")

    @property
    def c1(self) -> float:
        return self.c2 + self.c3

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3,
                "delta1": self.deltas.delta1, "delta2": self.deltas.delta2,
                "gamma": self.deltas.gamma, "R": self.R, "C": self.C}


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of scanning condition I or II."""

    condition: str
    satisfied: bool
    witness_R: Optional[float]
    witness_deltas: Optional[DeltaPair]
    sup_value: float

    def to_json(self) -> dict:
        d = self.witness_deltas
        return {"condition": self.condition, "satisfied": self.satisfied,
                "witness_R": self.witness_R, "sup_value": self.sup_value,
                "witness_delta1": None if d is None else d.delta1,
                "witness_delta2": None if d is None else d.delta2}


@dataclass(frozen=True)
class RegionCurve:
    """Sampled admissible-region boundary sigma -> beta_max for one gamma."""

    gamma: float
    points: np.ndarray  # rows (sigma, beta_max, delta2_star)

    def write_csv(self, fh) -> None:
        write_rows(fh, "sigma,beta_max,delta2_star", self.points)


@dataclass(frozen=True)
class WedgeSlopes:
    """Feasible slope band [slope_lo, slope_hi] of b/a in the certificate
    wedge at one (deltas, R); both are None when the band is empty.

    ineq1 (equivalent to F(R) >= 0) makes the band non-empty, and a
    non-empty band contains the divider R^(d2 (d1+2)). ineq1 implies ineq2
    (equivalent to G(R) >= A), which keeps slope_lo finite.
    """

    slope_lo: Optional[float]
    slope_hi: Optional[float]
    divider: float
    ineq1_holds: bool
    ineq2_holds: bool

    @property
    def nonempty(self) -> bool:
        return self.slope_lo is not None

    @property
    def kind(self) -> str:
        return "region1" if self.nonempty else "empty"


@dataclass(frozen=True)
class VerificationReport:
    """Slack statistics for the generator inequality LV - C V >= 0 over
    the grid's slack rows and one exact far-field row at (inf, inf)."""

    min_slack: float
    violations: int
    n_points: int
    worst_point: tuple[float, float]

    def to_json(self) -> dict:
        return {"min_slack": self.min_slack, "violations": self.violations,
                "n_points": self.n_points,
                "worst_r": self.worst_point[0], "worst_y": self.worst_point[1]}


@dataclass(frozen=True)
class R0Threshold:
    """Initial-rate threshold for almost-sure explosion, kept in log space.

    value is None when exp(log_value) would overflow (log_value > 700);
    log_value is inf when e^(2R) itself overflows.
    """

    log_value: float
    value: Optional[float]
    overflow: bool


@dataclass(frozen=True)
class A5Report:
    """Grid maximum of the generator applied to V0 = exp(-r) + exp(-y)."""

    max_value: float
    argmax: tuple[float, float]
    n_points: int

    @property
    def negative(self) -> bool:
        return self.max_value < 0.0


# ---------------------------------------------------------------------------
# scalar building blocks


def _sigma2(p: ModelParams) -> float:
    try:  # a square past the largest double: no condition can hold
        return p.sigma ** 2
    except OverflowError:
        return math.inf


def _a_const(p: ModelParams, d: DeltaPair) -> float:
    return 2.0 * p.beta + 0.5 * _sigma2(p) * d.delta2 * (d.delta2 + 1.0)


def condition_F(R, p: ModelParams, d: DeltaPair):
    """The condition-(I) function F(R); requires R >= epsilon."""
    R = np.asarray(R, dtype=float)
    if np.any(R < p.epsilon):
        raise DomainError(f"R must be >= epsilon ({p.epsilon})")
    g2 = 2.0 * d.gamma
    A = _a_const(p, d)
    val = R ** g2 - A * ((1.0 / (d.delta1 * _sigma2(p))) * (1.0 + R) ** (d.delta1 + 1.0)
                         + (1.0 / d.delta2) * R ** (g2 - 1.0) * (1.0 + R) ** (d.delta2 + 1.0))
    return float(val) if val.ndim == 0 else val


def condition_G(R, d: DeltaPair):
    """G(R) = delta2 * R / (1+R)^(delta2+1); vanishes at 0 and infinity,
    peaks at R = 1/delta2."""
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0.0):
        raise DomainError("R must be positive")
    val = d.delta2 * R / (1.0 + R) ** (d.delta2 + 1.0)
    return float(val) if val.ndim == 0 else val


def _g_peak(d2: float) -> float:
    """Peak value of G: (d2/(1+d2))^(d2+1), continuously 0 at d2 = 0."""
    return (d2 / (1.0 + d2)) ** (d2 + 1.0) if d2 > 0.0 else 0.0


def kappa_delta(delta1: float) -> float:
    """(delta1+2) * (delta1+1)^(-(delta1+1)/(delta1+2)); exceeds 1 on [0, 1]
    and decreases there."""
    return (delta1 + 2.0) * (delta1 + 1.0) ** (-(delta1 + 1.0) / (delta1 + 2.0))


def min_F_hat(a: float, b: float, delta1: float) -> float:
    """Closed-form infimum of x -> a x^(delta1+1) + b/x over x > 0:
    kappa_delta * a^(1/(d1+2)) * b^((d1+1)/(d1+2)), 0 if a or b is 0."""
    if not (a >= 0.0 and b >= 0.0):
        raise DomainError("a and b must be non-negative")
    e1 = 1.0 / (delta1 + 2.0)
    return kappa_delta(delta1) * a ** e1 * b ** (1.0 - e1)


def kappas(R: float, p: ModelParams, d: DeltaPair) -> tuple[float, float]:
    """The wedge constants kappa1, kappa2 at radius R."""
    if not R > 0.0:
        raise DomainError("R must be positive")
    A = _a_const(p, d)
    q = (1.0 + R) / R
    s2 = _sigma2(p)  # A / s2 tends to delta2 (delta2 + 1) / 2 as s2 overflows
    k1 = (A / (d.delta1 * s2) if s2 < math.inf else
          0.5 * d.delta2 * (d.delta2 + 1.0) / d.delta1) * q ** (d.delta1 + 1.0)
    k2 = A / d.delta2 * q ** (d.delta2 + 1.0)
    return k1, k2


# ---------------------------------------------------------------------------
# condition scans and the admissible region


def _sup_condition_i(p: ModelParams, d2_hi: float) -> tuple:
    """(sup F, deltas, R) of condition I: a log-uniform (delta2, R) grid,
    then 21 x 21 grids between the best point's neighbours until they are
    _REFINE_TOL apart, each one condition_F call over a delta2 column. F
    can peak more than once in delta2, so the first grid is dense."""
    d2s = np.geomspace(_D2_MIN, d2_hi * _D2_TOP, _N_GRID)
    # R in [epsilon, max(epsilon, _R_MAX)]; geomspace can round below epsilon
    rs = np.geomspace(p.epsilon, max(p.epsilon, _R_MAX), _N_GRID).clip(p.epsilon)
    best = (-math.inf, d2s[0], rs[0])
    while True:
        with np.errstate(over="ignore"):  # F is -inf where A * [...] overflows
            vals = condition_F(rs, p, DeltaPair(d2s[:, None], p.gamma))
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j] > best[0]:
            best = (float(vals[i, j]), float(d2s[i]), float(rs[j]))
        d2_lo, d2_up = d2s[max(i - 1, 0)], d2s[min(i + 1, len(d2s) - 1)]
        r_lo, r_up = rs[max(j - 1, 0)], rs[min(j + 1, len(rs) - 1)]
        if max(d2_up - d2_lo, r_up - r_lo) <= _REFINE_TOL:
            return best[0], DeltaPair(best[1], p.gamma), best[2]
        d2s, rs = np.linspace(d2_lo, d2_up, 21), np.linspace(r_lo, r_up, 21)


def check_condition(p: ModelParams, which: str) -> ConditionReport:
    """Find the supremum of condition I or II over delta2 in (0, 2*gamma-1)
    and R >= epsilon; I holds when it is positive, II when non-negative.
    Raises GammaOutOfRange if the model cannot explode (vol_cap, gamma <= 1/2).

    G peaks at R0 = 1/delta2, so unless epsilon > 1/delta2* the sup of II
    is at delta2_star's maximizer (clamped into the open interval): II
    holds exactly when beta <= beta_max(sigma, gamma). Otherwise the sup
    lies on R = epsilon, at the one sign change in delta2 of the margin's
    slope eps (1+eps)^(-d2-1) (1 - d2 ln(1+eps)) - (1/2) sigma^2 (2 d2 + 1).
    """
    if which not in ("I", "II"):
        raise ConfigError(f"condition must be 'I' or 'II', got {which!r}")
    _require_explosive(p)
    d2_hi = 2.0 * p.gamma - 1.0
    if which == "I":
        sup, deltas, R = _sup_condition_i(p, d2_hi)
        ok = sup > 0.0
    else:
        # delta2* is 0 for sigma >= sqrt(2) and can be 2*gamma-1 exactly
        d2 = min(max(delta2_star(p.sigma, p.gamma)[0], _D2_MIN),
                 d2_hi * _D2_TOP)
        if p.epsilon * d2 > 1.0:
            # G peaks below epsilon: the sup is on R = epsilon
            e, ln_e = p.epsilon, math.log1p(p.epsilon)
            d2 = bisect(lambda x: e * (1.0 + e) ** (-x - 1.0) * (1.0 - x * ln_e)
                        > 0.5 * _sigma2(p) * (2.0 * x + 1.0),
                        1.0 / e, d2_hi * _D2_TOP)[0]
        deltas = DeltaPair(d2, p.gamma)
        R = max(1.0 / d2, p.epsilon)
        sup = condition_G(R, deltas) - _a_const(p, deltas)
        ok = sup >= 0.0
    return ConditionReport(condition=which, satisfied=ok,
                           witness_R=R if ok else None,
                           witness_deltas=deltas if ok else None,
                           sup_value=float(sup))


def delta2_star(sigma: float, gamma: float) -> tuple[float, float]:
    """The maximizer d2* of J over [0, 2*gamma-1] (module docstring), and
    J(d2*): 0 for sigma^2 >= 2, 2*gamma-1 when J' > 0 there, and otherwise
    the root of J', bisected to adjacent doubles. J does not depend on
    gamma, so interior maximizers coincide across gamma."""
    _require_gamma(gamma)
    hi = 2.0 * gamma - 1.0
    s2 = sigma * sigma

    def rising(d2: float) -> bool:  # J'(d2) > 0
        return (_g_peak(d2) * (1.0 / d2 - math.log1p(1.0 / d2))
                > 0.5 * s2 * (2.0 * d2 + 1.0))

    if s2 >= 2.0:
        return 0.0, 0.0
    x = hi if rising(hi) else bisect(rising, 0.0, hi)[0]
    return x, _g_peak(x) - 0.5 * s2 * x * (x + 1.0)


def beta_max(sigma: float, gamma: float) -> float:
    """Largest mean reversion admitted by condition II:
    max{0, (1/2) G(R0(d2*)) - (1/4) sigma^2 d2* (d2*+1)}, that is half the
    optimal objective of delta2_star, floored at 0."""
    return max(0.0, 0.5 * delta2_star(sigma, gamma)[1])


def region_curve(gamma: float, sigma_grid) -> RegionCurve:
    """Map beta_max over a sigma grid, recording delta2* per point (one
    delta2_star call per point gives both)."""
    _require_gamma(gamma)
    rows = []
    for s in np.asarray(sigma_grid, dtype=float):
        d2s, v = delta2_star(float(s), gamma)
        rows.append((float(s), max(0.0, 0.5 * v), d2s))
    return RegionCurve(gamma=gamma, points=np.array(rows))


# ---------------------------------------------------------------------------
# wedge geometry and Lyapunov construction


def wedge_feasible_slopes(R: float, p: ModelParams, d: DeltaPair) -> WedgeSlopes:
    """Feasible slope band of the certificate wedge at radius R.

    The three wedge constraints reduce to the slope bounds
    lo = kappa1/(R^(-d2) - kappa2) and hi = (R^(2g-d1-1) - kappa1)/kappa2.
    The band [lo, hi] is non-empty exactly when ineq1 holds, and ineq1
    implies ineq2 (a positive lo); requiring both keeps a rounding tie at
    the band's closing edge from dividing by zero.
    """
    if not R >= p.epsilon:
        raise DomainError(f"R must be >= epsilon ({p.epsilon})")
    k1, k2 = kappas(R, p, d)
    divider = R ** (d.delta2 * (d.delta1 + 2.0))
    pow1 = R ** (2.0 * d.gamma - d.delta1 - 1.0)
    pow2 = R ** (-d.delta2)
    ineq1 = bool(k2 * divider <= pow1 - k1)
    ineq2 = bool(pow2 > k2)
    lo, hi = ((k1 / (pow2 - k2), (pow1 - k1) / k2) if ineq1 and ineq2
              else (None, None))
    return WedgeSlopes(slope_lo=lo, slope_hi=hi, divider=divider,
                       ineq1_holds=ineq1, ineq2_holds=ineq2)


def _c_growth(p: ModelParams, d: DeltaPair) -> float:
    return (max(2.0 * d.delta1, d.delta2) * p.beta
            + 0.5 * _sigma2(p) * d.delta2 * (d.delta2 + 1.0))


def _v_field(c2: float, c3: float, d: DeltaPair) -> SmoothField:
    c1, d1, d2 = c2 + c3, d.delta1, d.delta2
    return SmoothField(
        value=lambda r, y: c1 - c2 * (1.0 + y) ** (-d1) - c3 * (1.0 + r) ** (-d2),
        d_r=lambda r, y: d2 * c3 * (1.0 + r) ** (-d2 - 1.0),
        d_rr=lambda r, y: -d2 * (d2 + 1.0) * c3 * (1.0 + r) ** (-d2 - 2.0),
        d_y=lambda r, y: d1 * c2 * (1.0 + y) ** (-d1 - 1.0),
    )


def lyapunov_field(spec: LyapunovSpec) -> SmoothField:
    """V(r,y) = C1 - C2 (1+y)^(-d1) - C3 (1+r)^(-d2) with analytic partials."""
    return _v_field(spec.c2, spec.c3, spec.deltas)


def a5_field() -> SmoothField:
    """V0(r,y) = exp(-r) + exp(-y) with analytic partials."""
    return SmoothField(
        value=lambda r, y: np.exp(-r) + np.exp(-y),
        d_r=lambda r, y: -np.exp(-r),
        d_rr=lambda r, y: np.exp(-r),
        d_y=lambda r, y: -np.exp(-y),
    )


def _log_grid(R: float, keep) -> tuple[np.ndarray, np.ndarray]:
    """The points (r, y) of the _N_VERIFY x _N_VERIFY log grid on
    [_FLOOR * R, _L_OVER_R * R]^2 where keep(r) or keep(y) holds."""
    g = np.geomspace(R * _FLOOR, R * _L_OVER_R, _N_VERIFY)
    rr, yy = np.meshgrid(g, g)
    mask = keep(rr) | keep(yy)
    return rr[mask], yy[mask]


def _slack_rows(d: DeltaPair, R: float, C: float,
                p: ModelParams) -> tuple[np.ndarray, ...]:
    """Points (r, y) and rows (f, g), LV - C V = C2 f + C3 g, on the
    exterior log grid and _FACE_POINTS points on and just outside each
    face, where f and g are the slacks of 1 - (1+y)^(-d1) and
    1 - (1+r)^(-d2). Past the grid, _far_slack holds the limit."""
    r, y = _log_grid(R, lambda v: v >= R)
    s = np.linspace(R * _FLOOR, R, _FACE_POINTS)
    face = np.full(_FACE_POINTS, R)
    off = face * (1.0 + _FACE_OFFSET)
    r = np.concatenate([r, face, s, off, s])
    y = np.concatenate([y, s, face, s, off])
    f, g = (generator_apply(u, r, y, p) - C * u.value(r, y)
            for u in (_v_field(1.0, 0.0, d), _v_field(0.0, 1.0, d)))
    return r, y, f, g


def _far_slack(c2, c3, d: DeltaPair, C: float, p: ModelParams) -> float:
    """Infimum over k of the limit of C2 f + C3 g along y = k r^(1+d2),
    r -> inf: f -> sigma^2 d1 k^(-1-d1) - C and g -> d2 k - C there."""
    return min_F_hat(c2 * _sigma2(p) * d.delta1, c3 * d.delta2,
                     d.delta1) - C * (c2 + c3)


def _ratio_band(d: DeltaPair, R: float, C: float,
                p: ModelParams) -> tuple[float, float]:
    """The ratios t = C2/C3 with t f + g >= 0 on every row, [max -g/f over
    f > 0, min g/(-f) over f < 0] within [0, the largest double], cut to
    {t : _far_slack(t, 1) >= 0}: one interval, as t^e/(1+t),
    e = 1/(d1+2), peaks at t = 1/(1+d1), so each end is the row end or a
    bisection toward the band's point nearest it; (inf, -inf) if empty."""
    f, g = _slack_rows(d, R, C, p)[2:]
    pos, neg = f > 0.0, f < 0.0
    with np.errstate(over="ignore"):  # a subnormal f: the ratio is +-inf
        lo = float(np.max(-g[pos] / f[pos], initial=0.0))
        hi = float(np.min(g[neg] / -f[neg], initial=np.finfo(float).max))
    ok = lambda t: _far_slack(t, 1.0, d, C, p) >= 0.0
    peak = min(max(1.0 / (1.0 + d.delta1), lo), hi)
    if np.any(g[~pos & ~neg] < 0.0) or not (lo < hi and ok(peak)):
        return math.inf, -math.inf
    return (lo if ok(lo) else bisect(lambda t: not ok(t), lo, peak)[1],
            hi if ok(hi) else bisect(ok, peak, hi)[0])


def verify_generator_inequality(spec: LyapunovSpec,
                                p: ModelParams) -> VerificationReport:
    """Evaluate LV - C*V on the slack rows and the far field that
    build_lyapunov's band reads, and count violations: slacks below
    -1e-12 C C1, their scale. Raises GammaOutOfRange as check_condition."""
    _require_explosive(p)
    if spec.R < p.epsilon:
        raise DomainError(f"spec.R must be >= epsilon ({p.epsilon})")
    if spec.deltas.gamma != p.gamma:  # the far field assumes p.gamma
        raise DomainError(f"spec.deltas.gamma must equal gamma ({p.gamma})")
    if spec.C < _c_growth(p, spec.deltas) * (1.0 - 1e-12):
        raise DomainError("spec.C is below the admissible growth constant")
    r, y, f, g = _slack_rows(spec.deltas, spec.R, spec.C, p)
    r, y = np.append(r, math.inf), np.append(y, math.inf)
    slack = np.append(spec.c2 * f + spec.c3 * g, _far_slack(
        spec.c2, spec.c3, spec.deltas, spec.C, p))
    i, tol = int(np.argmin(slack)), -1e-12 * spec.C * spec.c1
    return VerificationReport(min_slack=float(slack[i]), n_points=len(slack),
                              violations=int(np.count_nonzero(slack < tol)),
                              worst_point=(float(r[i]), float(y[i])))


def build_lyapunov(p: ModelParams, report: ConditionReport) -> LyapunovSpec:
    """Construct certificate constants from a satisfied condition report.

    Walks the candidates (delta2, R): the report's witness, then the
    symmetric split delta1 = delta2 and 1/4, 1/2, 3/4 of 2*gamma - 1, each
    at R = max(1/delta2, epsilon). The first whose ratio band has
    0 < lo < hi gives C3 = 1 and C2 = sqrt(lo * hi). Raises InfeasibleWedge
    when no candidate has such a band, GammaOutOfRange as check_condition.
    """
    if not report.satisfied:
        raise InfeasibleWedge("condition report is not satisfied")
    _require_explosive(p)
    d2_hi = 2.0 * p.gamma - 1.0
    candidates = [(report.witness_deltas, report.witness_R)] + [
        (DeltaPair(d2, p.gamma), max(1.0 / d2, p.epsilon))
        for d2 in (math.sqrt(2.0 * p.gamma) - 1.0,
                   0.25 * d2_hi, 0.5 * d2_hi, 0.75 * d2_hi)
        if 0.0 < d2 < d2_hi]
    for d, R in candidates:
        if d.delta1 > 1e-6:
            C = _c_growth(p, d)
            lo, hi = _ratio_band(d, R, C, p)
            if 0.0 < lo < hi < math.inf:
                c2 = math.sqrt(lo * hi)
                return LyapunovSpec(c2=c2, c3=1.0, deltas=d, R=R, C=C)
    raise InfeasibleWedge(
        "no feasible Lyapunov constants found for these parameters")


def scale_c3(spec: LyapunovSpec, factor: float) -> LyapunovSpec:
    """Rescale C3 by the given factor; C1 = C2 + C3 follows.

    Used as a negative control: a large factor pushes the C2/C3 ratio out
    of the feasible band so the generator inequality must fail somewhere.
    """
    if not factor > 0.0:
        raise ConfigError("factor must be positive")
    return replace(spec, c3=spec.c3 * factor)


# ---------------------------------------------------------------------------
# almost-sure explosion machinery


def k0(spec: LyapunovSpec) -> float:
    """Infimum of V over the exterior domain, min{V(0, R), V(R, 0)}: V
    increases in r and in y."""
    v, R = lyapunov_field(spec).value, spec.R
    return min(v(0.0, R), v(R, 0.0))


def level_constants(spec: LyapunovSpec) -> dict:
    """The certificate levels: K0 = k0(spec), K1 = C1, K2 = V(R, R) and
    K3 = V(2R, 2R)."""
    v, R = lyapunov_field(spec).value, spec.R
    return {"K0": k0(spec), "K1": spec.c1, "K2": v(R, R), "K3": v(2 * R, 2 * R)}


def as_explosion_r0_threshold(R: float, p: ModelParams) -> R0Threshold:
    """Initial-rate level above which the explosion is almost sure:

        max{ (e/beta)(4 beta R + beta + sigma^2),
             (sigma^2/beta) exp( (e^(2R)/sigma^2)(4 beta R + beta + sigma^2)
                                 - 2R - 1 ) }

    computed in log space; requires beta > 0.
    """
    if not p.beta > 0.0:
        raise DomainError("the almost-sure threshold requires beta > 0")
    if not R > 0.0:
        raise DomainError("R must be positive")
    s2 = _sigma2(p)
    core = 4.0 * p.beta * R + p.beta + s2
    log1 = 1.0 - math.log(p.beta) + math.log(core)
    try:
        e2r = math.exp(2.0 * R)
    except OverflowError:  # past R ~ 354.9: the threshold is infinite
        e2r = math.inf
    log2 = math.log(s2 / p.beta) + e2r / s2 * core - 2.0 * R - 1.0
    log_val = max(log1, log2)
    overflow = log_val > 700.0
    return R0Threshold(log_value=log_val,
                       value=None if overflow else math.exp(log_val),
                       overflow=overflow)


def verify_a5_function(p: ModelParams, R: float) -> A5Report:
    """Evaluate L V0 for V0 = exp(-r) + exp(-y) over the strip complement
    {0 < y < 2R or 0 < r < 2R}, truncated at _L_OVER_R * R.

    With beta > 0 and lambda0 at or above the almost-sure threshold the
    maximum is negative; small lambda0 produces positive spots.
    """
    if not p.beta > 0.0:
        raise DomainError("requires beta > 0")
    if not R > 0.0:
        raise DomainError("R must be positive")
    r, y = _log_grid(R, lambda v: v < 2.0 * R)
    vals = generator_apply(a5_field(), r, y, p)
    i = int(np.argmax(vals))
    return A5Report(max_value=float(vals[i]),
                    argmax=(float(r[i]), float(y[i])), n_points=len(vals))
