"""Bond and futures pricing from the (x, y) state.

The zero-coupon bond price is

    P(t, T) = P(0,T)/P(0,t) * exp(-G(t,T) x - (1/2) G(t,T)^2 y),

with x = r - lambda(t), G(t,T) = (1 - exp(-beta (T-t)))/beta, and
P(0, T) = ForwardCurve.discount(T). The two instruments part ways when r
explodes. A bond stays finite: on an exploded path it collapses to 0, so
the discount estimate averages every path with exploded paths at 0. The
Eurodollar futures price E[1/P(T, T+delta)] diverges: its estimate is the
survivors' mean, flagged diverged. Both estimates read one simulated
batch, so a single simulation up to T serves the futures and the discount
check.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import ConfigError
from .model_core import ForwardCurve, ModelParams
from .sde_engine import (BatchPaths, McEstimate, SimConfig,
                         _survivor_estimate, expectation_functional,
                         pathwise_discount_factors, simulate_batch)

__all__ = [
    "g_factor",
    "zcb_price",
    "futures_config",
    "futures_estimate",
    "eurodollar_futures",
    "discount_estimate",
    "discount_consistency_check",
]

# exp underflows to exactly 0.0 below roughly -745; make the collapse explicit
_UNDERFLOW_EXPONENT = -745.0


def g_factor(t: float, T: float, beta: float) -> float:
    """G(t, T) = (1 - exp(-beta (T-t)))/beta, continuously T - t at beta = 0.

    Uses expm1 so small beta*(T-t) suffers no cancellation.
    """
    if T < t:
        raise ConfigError(f"T must be >= t, got t={t} T={T}")
    tau = T - t
    if beta == 0.0:
        return tau
    return -math.expm1(-beta * tau) / beta


def _bond_exponent(G, x, y):
    """log P(t, T) - log(P(0,T)/P(0,t)) = -G x - (1/2) G^2 y at the state
    (x, y), where G = G(t, T)."""
    return -G * x - 0.5 * G * G * y


def zcb_price(t: float, T: float, x, y, p: ModelParams, curve: ForwardCurve):
    """Zero-coupon bond price from the state (x, y) at time t.

    x and y are scalars or arrays (broadcast together); a scalar state
    gives a float. The price is exactly 0.0 where the exponent is below
    -745, the collapse of the bond on an exploded path.
    """
    G = g_factor(t, T, p.beta)
    expo = _bond_exponent(G, x, y)
    ratio = curve.discount(T) / curve.discount(t)
    price = np.where(expo < _UNDERFLOW_EXPONENT, 0.0, ratio * np.exp(expo))
    return price if price.ndim else float(price)


def futures_config(cfg: SimConfig, T: float, delta: float) -> SimConfig:
    """The simulation settings of a futures estimate: cfg cut at T.

    Raises ConfigError unless delta > 0, T is at least one step and
    T + delta fits the horizon.
    """
    if not delta > 0.0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if not cfg.dt <= T:
        raise ConfigError(f"T must be >= dt, got T={T} dt={cfg.dt}")
    if not T + delta <= cfg.horizon:
        raise ConfigError(
            f"T + delta = {T + delta} exceeds horizon {cfg.horizon}")
    return replace(cfg, horizon=T)


def futures_estimate(batch: BatchPaths, p: ModelParams, curve: ForwardCurve,
                     T: float, delta: float) -> McEstimate:
    """E[1/P(T, T+delta)] from a batch simulated up to T:

        P(0,T)/P(0,T+delta) * E[exp(G(T,T+delta) x_T + (1/2) G^2 y_T)]

    with x_T = r_T - lambda(T), the exponent being the bond's negated.
    Paths exploding before T make the true expectation infinite; the
    estimate is then flagged diverged and covers the surviving paths only.
    A surviving payoff whose exponent overflows is treated as infinite.
    """
    G = g_factor(T, T + delta, p.beta)
    lam_T = float(curve.value(T))

    def payoff(r, y):
        expo = -_bond_exponent(G, r - lam_T, y)
        with np.errstate(over="ignore"):
            return np.where(expo < 709.0, np.exp(expo), math.inf)

    est = expectation_functional(batch, payoff)
    factor = curve.discount(T) / curve.discount(T + delta)
    return replace(est, mean=factor * est.mean,
                   std_error=factor * est.std_error)


def eurodollar_futures(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                       T: float, delta: float, *,
                       threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of E[1/P(T, T+delta)]; see futures_estimate."""
    batch = simulate_batch(p, curve, futures_config(cfg, T, delta),
                           threads=threads)
    return futures_estimate(batch, p, curve, T, delta)


def discount_estimate(batch: BatchPaths) -> McEstimate:
    """MC mean of the pathwise_discount_factors of a batch simulated with
    want_discount, over every path: an exploded path counts as 0 and is
    counted in n_exploded. The estimate is never diverged."""
    dfs = pathwise_discount_factors(batch)
    n_exploded = int(np.count_nonzero(batch.exploded))
    return replace(_survivor_estimate(dfs, len(dfs)), n_exploded=n_exploded)


def discount_consistency_check(p: ModelParams, curve: ForwardCurve,
                               cfg: SimConfig, T: float, *,
                               threads: int = 1) -> McEstimate:
    """MC mean of the pathwise discount factor exp(-sum_k r_k dt) up to T.

    In an arbitrage-consistent implementation this reproduces P(0, T) up
    to discretization and sampling error, which makes it an end-to-end
    sanity check of the simulation. Exploded paths count as 0; see
    discount_estimate.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if T == 0.0:
        return McEstimate(mean=1.0, std_error=0.0, n=cfg.n_paths,
                          n_exploded=0, diverged=False)
    if not cfg.dt <= T:
        raise ConfigError(f"T must be >= dt, got T={T} dt={cfg.dt}")
    if not T <= cfg.horizon:
        raise ConfigError(f"T={T} exceeds horizon={cfg.horizon}")
    batch = simulate_batch(p, curve, replace(cfg, horizon=T),
                           want_discount=True, threads=threads)
    return discount_estimate(batch)
