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
admissible mean-reversion band 0 <= beta <= beta_max(sigma, gamma) that
the peak value scanned over delta2 yields; it closes at sigma = sqrt(2).

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

With the divider D = R^(d2 (d1+2)), R^(2g-d1-1) = D R^(-d2), so the lower
bound is at most D, and the upper at least D, each exactly when
kappa1 + kappa2 D <= R^(2g-d1-1) (ineq1, equivalent to F(R) >= 0). The
band is non-empty exactly when condition (I) holds at that (delta2, R),
and then it contains D; ineq1 implies ineq2, kappa2 < R^(-d2). When no
wedge exists anywhere, constants are instead picked by directly
maximizing the worst-case generator slack on the verification grid,
which succeeds on a strictly larger parameter region because the wedge
inequalities discard several positive terms of the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csv import write_rows
from ._search import golden_max
from .errors import ConfigError, DomainError, GammaOutOfRange, InfeasibleWedge
from .model_core import ModelParams, SmoothField, generator_apply

__all__ = [
    "DeltaPair",
    "LyapunovSpec",
    "ConditionReport",
    "RegionCurve",
    "WedgeSlopes",
    "VerifyGrid",
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

_COUPLING_TOL = 1e-12
# delta2 scans run over [_D2_MIN, _D2_TOP * (2*gamma - 1)]
_D2_MIN = 1e-4
_D2_TOP = 1.0 - 1e-9
_R_MAX = 1e4
_N_GRID = 400
_REFINE_TOL = 1e-10
_L_OVER_R = 10.0
_FLOOR = 1e-6
_FACE_OFFSET = 1e-6


def _require_gamma(gamma: float) -> None:
    if not 0.5 < gamma <= 1.0:
        raise GammaOutOfRange(
            f"explosion certificates require gamma in (1/2, 1], got {gamma}; "
            "for gamma <= 1/2 the dynamics are non-explosive")


@dataclass(frozen=True)
class DeltaPair:
    """Exponent split with (1+delta1)(1+delta2) = 2*gamma, both positive."""

    delta1: float
    delta2: float
    gamma: float

    def __post_init__(self) -> None:
        _require_gamma(self.gamma)
        if not (self.delta1 > 0.0 and self.delta2 > 0.0):
            raise ConfigError(
                f"deltas must be positive, got ({self.delta1}, {self.delta2})")
        resid = (1.0 + self.delta1) * (1.0 + self.delta2) - 2.0 * self.gamma
        if abs(resid) > _COUPLING_TOL:
            raise ConfigError(
                f"(1+delta1)(1+delta2) != 2*gamma (residual {resid:.3e})")

    @classmethod
    def from_delta2(cls, delta2: float, gamma: float) -> "DeltaPair":
        _require_gamma(gamma)
        if not 0.0 < delta2 < 2.0 * gamma - 1.0:
            raise ConfigError(
                f"delta2 must lie in (0, {2.0 * gamma - 1.0}), got {delta2}")
        return cls(delta1=2.0 * gamma / (1.0 + delta2) - 1.0,
                   delta2=delta2, gamma=gamma)


@dataclass(frozen=True)
class LyapunovSpec:
    """Constants (C1, C2, C3, deltas, R, C) of a certificate candidate."""

    c1: float
    c2: float
    c3: float
    deltas: DeltaPair
    R: float
    C: float

    def __post_init__(self) -> None:
        vals = (self.c1, self.c2, self.c3, self.R, self.C)
        if not all(0.0 < v < math.inf for v in vals):
            raise ConfigError("C1, C2, C3, R and C must be positive and "
                              f"finite, got {vals}")
        if self.c1 < (self.c2 + self.c3) * (1.0 - 1e-12):
            raise ConfigError("C1 must be at least C2 + C3")

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
class VerifyGrid:
    """Verification grid: n x n log-spaced points on
    [_FLOOR * R, _L_OVER_R * R]^2 outside the open square, plus face_points
    hugging each face of the square boundary at relative offset
    _FACE_OFFSET."""

    n: int = 200
    face_points: int = 100

    def __post_init__(self) -> None:
        if not (self.n >= 2 and self.face_points >= 1):
            raise ConfigError(f"need n >= 2 and face_points >= 1: {self}")


@dataclass(frozen=True)
class VerificationReport:
    """Grid slack statistics for the generator inequality LV - C V >= 0."""

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


def _a_const(p: ModelParams, d: DeltaPair) -> float:
    return 2.0 * p.beta + 0.5 * p.sigma ** 2 * d.delta2 * (d.delta2 + 1.0)


def condition_F(R, p: ModelParams, d: DeltaPair):
    """The condition-(I) function F(R); requires R >= epsilon."""
    R = np.asarray(R, dtype=float)
    if np.any(R < p.epsilon):
        raise DomainError(f"R must be >= epsilon ({p.epsilon})")
    g2 = 2.0 * d.gamma
    A = _a_const(p, d)
    val = R ** g2 - A * ((1.0 / (d.delta1 * p.sigma ** 2)) * (1.0 + R) ** (d.delta1 + 1.0)
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


def _g_peak(delta2) -> np.ndarray:
    """Peak value of G: (d2/(1+d2))^(d2+1), continuously 0 at d2 = 0."""
    d2 = np.asarray(delta2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(d2 > 0.0, (d2 / (1.0 + d2)) ** (d2 + 1.0), 0.0)
    return v


def kappa_delta(delta1: float) -> float:
    """(delta1+2) * (delta1+1)^(-(delta1+1)/(delta1+2)); exceeds 1 on [0, 1]
    and decreases there."""
    return (delta1 + 2.0) * (delta1 + 1.0) ** (-(delta1 + 1.0) / (delta1 + 2.0))


def min_F_hat(a: float, b: float, delta1: float) -> float:
    """Closed-form infimum of x -> a x^(delta1+1) + b/x over x > 0:
    kappa_delta * a^(1/(d1+2)) * b^((d1+1)/(d1+2))."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError("a and b must be positive")
    e1 = 1.0 / (delta1 + 2.0)
    return kappa_delta(delta1) * a ** e1 * b ** (1.0 - e1)


def kappas(R: float, p: ModelParams, d: DeltaPair) -> tuple[float, float]:
    """The wedge constants kappa1, kappa2 at radius R."""
    if not R > 0.0:
        raise DomainError("R must be positive")
    A = _a_const(p, d)
    q = (1.0 + R) / R
    k1 = A / (d.delta1 * p.sigma ** 2) * q ** (d.delta1 + 1.0)
    k2 = A / d.delta2 * q ** (d.delta2 + 1.0)
    return k1, k2


# ---------------------------------------------------------------------------
# condition scans and the admissible region


def _bracket(grid: np.ndarray, x: float) -> tuple[float, float]:
    """The neighbours of x on a sorted grid, clamped to its ends: the
    golden-section bracket around a grid argmax."""
    j = int(np.searchsorted(grid, x))
    return grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]


def _sup_condition_i(p: ModelParams, d2_hi: float) -> tuple:
    """(sup F, deltas, R) of condition I: a log-uniform (delta2, R) grid
    search followed by golden-section refinement."""
    d2_grid = np.geomspace(_D2_MIN, d2_hi * _D2_TOP, _N_GRID)
    r_grid = np.geomspace(p.epsilon, _R_MAX, _N_GRID)
    best = (-math.inf, d2_grid[0], r_grid[0])
    for d2 in d2_grid:
        dd = DeltaPair.from_delta2(float(d2), p.gamma)
        vals = condition_F(r_grid, p, dd)
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), float(d2), float(r_grid[i]))

    sup, d2_best, r_best = best
    # coordinate refinement: R at fixed delta2, then delta2 at fixed R
    for _ in range(2):
        dd = DeltaPair.from_delta2(d2_best, p.gamma)
        r_best, sup_r = golden_max(lambda R: condition_F(R, p, dd),
                                   *_bracket(r_grid, r_best), tol=_REFINE_TOL)
        d2_best, sup = golden_max(
            lambda d2: condition_F(r_best, p, DeltaPair.from_delta2(d2, p.gamma)),
            *_bracket(d2_grid, d2_best), tol=_REFINE_TOL)
        sup = max(sup, sup_r)
    return max(sup, best[0]), DeltaPair.from_delta2(d2_best, p.gamma), r_best


def check_condition(p: ModelParams, which: str) -> ConditionReport:
    """Find the supremum of condition I or II over delta2 in (0, 2*gamma-1)
    and R >= epsilon; I holds when it is positive, II when non-negative.

    G peaks at R0 = 1/delta2, so unless epsilon > 1/delta2* the sup of II
    is at delta2_star's maximizer (clamped into the open interval): II
    holds exactly when beta <= beta_max(sigma, gamma).
    """
    _require_gamma(p.gamma)
    if which not in ("I", "II"):
        raise ConfigError(f"condition must be 'I' or 'II', got {which!r}")
    d2_hi = 2.0 * p.gamma - 1.0
    if which == "I":
        sup, deltas, R = _sup_condition_i(p, d2_hi)
        ok = sup > 0.0
    else:
        def margin(x: float) -> float:
            d = DeltaPair.from_delta2(x, p.gamma)
            return condition_G(max(1.0 / x, p.epsilon), d) - _a_const(p, d)

        # delta2* is 0 for sigma >= sqrt(2) and can be 2*gamma-1 exactly
        d2 = min(max(delta2_star(p.sigma, p.gamma)[0], _D2_MIN),
                 d2_hi * _D2_TOP)
        if p.epsilon * d2 > 1.0:
            # G peaks below epsilon: the sup is on R = epsilon, unimodal
            d2 = golden_max(margin, 1.0 / p.epsilon, d2_hi * _D2_TOP,
                            tol=_REFINE_TOL)[0]
        sup = margin(d2)
        deltas = DeltaPair.from_delta2(d2, p.gamma)
        R = max(1.0 / d2, p.epsilon)
        ok = sup >= 0.0
    return ConditionReport(condition=which, satisfied=ok,
                           witness_R=R if ok else None,
                           witness_deltas=deltas if ok else None,
                           sup_value=float(sup))


def delta2_star(sigma: float, gamma: float) -> tuple[float, float]:
    """Maximizer of (d2/(1+d2))^(d2+1) - (1/2) sigma^2 d2 (d2+1) over
    [0, 2*gamma-1], ties broken toward larger delta2.

    Returns (argmax, objective value). The objective is independent of
    gamma except through the admissible interval, so interior maximizers
    coincide across gamma.
    """
    _require_gamma(gamma)
    hi = 2.0 * gamma - 1.0

    def J(d2):  # scalar or array
        return _g_peak(d2) - 0.5 * sigma * sigma * d2 * (d2 + 1.0)

    grid = np.linspace(0.0, hi, 801)
    vals = J(grid)
    i = len(vals) - 1 - int(np.argmax(vals[::-1]))  # ties -> larger delta2
    x, v = golden_max(J, *_bracket(grid, grid[i]), tol=1e-13)
    # boundary candidates compete exactly; larger delta2 wins ties
    cands = [(J(0.0), 0.0), (v, x), (J(hi), hi)]
    best = max(cands, key=lambda c: (c[0], c[1]))
    return best[1], float(best[0])


def _beta_from_objective(v: float) -> float:
    return max(0.0, 0.5 * v)


def beta_max(sigma: float, gamma: float) -> float:
    """Largest mean reversion admitted by condition II:
    max{0, (1/2) G(R0(d2*)) - (1/4) sigma^2 d2* (d2*+1)}, that is half the
    optimal objective of delta2_star, floored at 0."""
    return _beta_from_objective(delta2_star(sigma, gamma)[1])


def region_curve(gamma: float, sigma_grid) -> RegionCurve:
    """Map beta_max over a sigma grid, recording delta2* per point (one
    delta2_star call per point gives both)."""
    _require_gamma(gamma)
    rows = []
    for s in np.asarray(sigma_grid, dtype=float):
        d2s, v = delta2_star(float(s), gamma)
        rows.append((float(s), _beta_from_objective(v), d2s))
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
            + 0.5 * p.sigma ** 2 * d.delta2 * (d.delta2 + 1.0))


def _spec(p: ModelParams, d: DeltaPair, R: float,
          c2: float, c3: float) -> LyapunovSpec:
    return LyapunovSpec(c1=c2 + c3, c2=c2, c3=c3, deltas=d, R=R,
                        C=_c_growth(p, d))


def lyapunov_field(spec: LyapunovSpec) -> SmoothField:
    """V(r,y) = C1 - C2 (1+y)^(-d1) - C3 (1+r)^(-d2) with analytic partials."""
    c1, c2, c3 = spec.c1, spec.c2, spec.c3
    d1, d2 = spec.deltas.delta1, spec.deltas.delta2
    return SmoothField(
        value=lambda r, y: c1 - c2 * (1.0 + y) ** (-d1) - c3 * (1.0 + r) ** (-d2),
        d_r=lambda r, y: d2 * c3 * (1.0 + r) ** (-d2 - 1.0),
        d_rr=lambda r, y: -d2 * (d2 + 1.0) * c3 * (1.0 + r) ** (-d2 - 2.0),
        d_y=lambda r, y: d1 * c2 * (1.0 + y) ** (-d1 - 1.0),
    )


def a5_field() -> SmoothField:
    """V0(r,y) = exp(-r) + exp(-y) with analytic partials."""
    return SmoothField(
        value=lambda r, y: np.exp(-r) + np.exp(-y),
        d_r=lambda r, y: -np.exp(-r),
        d_rr=lambda r, y: np.exp(-r),
        d_y=lambda r, y: -np.exp(-y),
    )


def _log_grid(R: float, n: int, keep) -> tuple[np.ndarray, np.ndarray]:
    """The points (r, y) of the n x n log grid on
    [_FLOOR * R, _L_OVER_R * R]^2 where keep(r) or keep(y) holds."""
    g = np.geomspace(R * _FLOOR, R * _L_OVER_R, n)
    rr, yy = np.meshgrid(g, g)
    mask = keep(rr) | keep(yy)
    return rr[mask], yy[mask]


def _exterior_grid(R: float, grid: VerifyGrid) -> tuple[np.ndarray, np.ndarray]:
    r, y = _log_grid(R, grid.n, lambda v: v >= R)
    s = np.linspace(R * _FLOOR, R, grid.face_points)
    face = np.full(grid.face_points, R)
    off = np.full(grid.face_points, R * (1.0 + _FACE_OFFSET))
    r = np.concatenate([r, face, s, off, s])
    y = np.concatenate([y, s, face, s, off])
    return r, y


def verify_generator_inequality(spec: LyapunovSpec, p: ModelParams,
                                grid: Optional[VerifyGrid] = None
                                ) -> VerificationReport:
    """Evaluate LV - C*V on the exterior grid and count violations.

    The slack uses the exact generator with the analytic partials of V; a
    point violates when its slack drops below -1e-12.
    """
    if spec.R < p.epsilon:
        raise DomainError(f"spec.R must be >= epsilon ({p.epsilon})")
    if spec.C < _c_growth(p, spec.deltas) - 1e-12:
        raise DomainError("spec.C is below the admissible growth constant")
    r, y = _exterior_grid(spec.R, grid or VerifyGrid())
    field = lyapunov_field(spec)
    lv = generator_apply(field, r, y, p)
    slack = lv - spec.C * field.value(r, y)
    i = int(np.argmin(slack))
    return VerificationReport(
        min_slack=float(slack[i]),
        violations=int(np.count_nonzero(slack < -1e-12)),
        n_points=len(slack),
        worst_point=(float(r[i]), float(y[i])),
    )


def _witness_wedge_spec(p: ModelParams, report: ConditionReport):
    """The midpoint-slope spec of the wedge at the witness, or None."""
    d, R = report.witness_deltas, report.witness_R
    if d is None or not (w := wedge_feasible_slopes(R, p, d)).nonempty:
        return None
    q = R / (1.0 + R)  # (C2, C3) from (a, b) = (1, sqrt(lo * hi))
    c2 = 1.0 / (d.delta1 * p.sigma ** 2 * q ** (d.delta1 + 1.0))
    c3 = math.sqrt(w.slope_lo * w.slope_hi) / (d.delta2 * q ** (d.delta2 + 1.0))
    return _spec(p, d, R, c2, c3)


def build_lyapunov(p: ModelParams, report: ConditionReport) -> LyapunovSpec:
    """Construct certificate constants from a satisfied condition report.

    Preference order: (1) the wedge at the report's witness, else at the
    witness of check_condition(p, "I"): the wedge band is non-empty exactly
    where F(R) >= 0, so condition I's witness finds a wedge whenever one
    exists; (2) direct choice of C2/C3 maximizing the minimum generator
    slack at candidate (delta2, R) pairs, for parameter regions where
    condition II holds but no wedge exists. Raises InfeasibleWedge when
    even the direct construction fails to produce a non-negative slack.
    """
    if not report.satisfied:
        raise InfeasibleWedge("condition report is not satisfied")
    gamma = p.gamma
    _require_gamma(gamma)

    # (1) wedge at a witness
    spec = _witness_wedge_spec(p, report)
    if spec is None and report.condition != "I":
        spec = _witness_wedge_spec(p, check_condition(p, "I"))
    if spec is not None:
        return spec

    # (2) direct slack maximization over C2/C3 at the witness, the
    # symmetric split delta1 = delta2 and three fractions of 2*gamma - 1
    d2_hi = 2.0 * gamma - 1.0
    candidates = [(report.witness_deltas, report.witness_R)] + [
        (DeltaPair.from_delta2(d2, gamma), max(1.0 / d2, p.epsilon))
        for d2 in (math.sqrt(2.0 * gamma) - 1.0,
                   0.25 * d2_hi, 0.5 * d2_hi, 0.75 * d2_hi)
        if 0.0 < d2 < d2_hi]
    best_val, coarse = -math.inf, VerifyGrid(n=60, face_points=20)
    for d, R in candidates:
        if not d.delta1 > 1e-6:
            continue

        def slack_of(log_t: float, d=d, R=R) -> float:
            spec = _spec(p, d, R, math.exp(log_t), 1.0)
            return verify_generator_inequality(spec, p, coarse).min_slack

        lt, val = golden_max(slack_of, math.log(1e-6), math.log(1e6), tol=1e-6)
        if val > best_val:
            best_val, best_spec = val, _spec(p, d, R, math.exp(lt), 1.0)
    if best_val < 0.0:
        raise InfeasibleWedge(
            "no feasible Lyapunov constants found for these parameters")
    return best_spec


def scale_c3(spec: LyapunovSpec, factor: float) -> LyapunovSpec:
    """Rescale C3 by the given factor, keeping C1 = C2 + C3.

    Used as a negative control: a large factor pushes the C2/C3 ratio out
    of the feasible band so the generator inequality must fail somewhere.
    """
    if not factor > 0.0:
        raise ConfigError("factor must be positive")
    c3 = spec.c3 * factor
    return LyapunovSpec(c1=spec.c2 + c3, c2=spec.c2, c3=c3,
                        deltas=spec.deltas, R=spec.R, C=spec.C)


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
    s2 = p.sigma ** 2
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


def verify_a5_function(p: ModelParams, R: float,
                       grid: Optional[VerifyGrid] = None) -> A5Report:
    """Evaluate L V0 for V0 = exp(-r) + exp(-y) over the strip complement
    {0 < y < 2R or 0 < r < 2R}, truncated at _L_OVER_R * R.

    With beta > 0 and lambda0 at or above the almost-sure threshold the
    maximum is negative; small lambda0 produces positive spots.
    """
    if not p.beta > 0.0:
        raise DomainError("requires beta > 0")
    if not R > 0.0:
        raise DomainError("R must be positive")
    r, y = _log_grid(R, (grid or VerifyGrid()).n, lambda v: v < 2.0 * R)
    vals = generator_apply(a5_field(), r, y, p)
    i = int(np.argmax(vals))
    return A5Report(max_value=float(vals[i]),
                    argmax=(float(r[i]), float(y[i])), n_points=len(vals))
