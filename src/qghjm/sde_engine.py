"""Euler-Maruyama simulation of the (r, y) system with explosion detection
and Monte Carlo estimators.

Noise discipline
----------------
Path i draws its standard normals from a counter-based Philox stream keyed
by (seed, i), consumed in step order, so the draw used at step k is a pure
function of (seed, i, k). Results for a given path are bit-identical
whether it is simulated alone or inside a batch, in any launch order, with
any thread count, and common-random-number comparisons across parameter
values reuse the same noise.

A path stops at the first step whose update produces r or y at or above
the explosion threshold, or a non-finite value. The reported explosion
time tau_hat is the left edge of that offending step (bias at most dt) and
the state is frozen at its last good value.

Estimators work on arrays: a payoff maps the terminal-state arrays
(r_T, y_T) of the surviving paths to their values, and one helper gives
the survivor mean, its standard error and the exploded count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .errors import ConfigError, EmptySample
from .model_core import ForwardCurve, ModelParams

__all__ = [
    "SimConfig",
    "PathResult",
    "McEstimate",
    "BatchPaths",
    "OnExplosion",
    "simulate_path",
    "simulate_batch",
    "explosion_probability",
    "expectation_functional",
    "pathwise_discount_factors",
    "write_paths_csv",
    "write_explosions_csv",
]

_NOISE_BLOCK = 1024
_U64 = np.uint64


@dataclass(frozen=True)
class SimConfig:
    """Euler simulation settings.

    dt and horizon are in years; the step count is round(horizon / dt).
    explosion_threshold is the level at which a path is declared exploded
    (it must sit far above the normal dynamics). record_stride stores every
    k-th step when path recording is requested.
    """

    dt: float
    horizon: float
    n_paths: int
    seed: int
    explosion_threshold: float = 1e6
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not self.horizon >= self.dt:
            raise ConfigError(
                f"horizon must be >= dt, got horizon={self.horizon} dt={self.dt}")
        if not self.n_paths >= 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if not self.explosion_threshold > 0.0:
            raise ConfigError("explosion_threshold must be > 0")
        if not self.record_stride >= 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")

    @classmethod
    def from_json(cls, obj: dict) -> "SimConfig":
        allowed = {"dt", "horizon", "n_paths", "seed",
                   "explosion_threshold", "record_stride"}
        unknown = set(obj) - allowed
        if unknown:
            raise ConfigError(f"unknown sim key(s): {sorted(unknown)}")
        missing = {"dt", "horizon", "n_paths", "seed"} - set(obj)
        if missing:
            raise ConfigError(f"missing sim key(s): {sorted(missing)}")
        return cls(
            dt=float(obj["dt"]),
            horizon=float(obj["horizon"]),
            n_paths=int(obj["n_paths"]),
            seed=int(obj["seed"]),
            explosion_threshold=float(obj.get("explosion_threshold", 1e6)),
            record_stride=int(obj.get("record_stride", 1)),
        )

    def to_json(self) -> dict:
        return {
            "dt": self.dt, "horizon": self.horizon, "n_paths": self.n_paths,
            "seed": self.seed, "explosion_threshold": self.explosion_threshold,
            "record_stride": self.record_stride,
        }


@dataclass(frozen=True)
class PathResult:
    """One simulated trajectory.

    samples holds rows (t, r, y) at every record_stride-th step while the
    path was alive; tau_hat is +inf when the path never exploded.
    """

    exploded: bool
    tau_hat: float
    samples: np.ndarray
    path_index: int


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with explosion accounting.

    n is the total number of simulated paths; n_exploded of them exploded.
    diverged marks estimands that are undefined because exploded paths
    contribute unbounded values (the mean then covers survivors only).
    """

    mean: float
    std_error: float
    n: int
    n_exploded: int
    diverged: bool


class OnExplosion(enum.Enum):
    """How expectation_functional treats exploded paths."""

    DIVERGE = "diverge"
    EXCLUDE = "exclude"


@dataclass(frozen=True)
class BatchPaths:
    """Results of a batch simulation, indexed by position in path_index."""

    path_index: np.ndarray
    exploded: np.ndarray
    tau_hat: np.ndarray
    terminal_r: np.ndarray
    terminal_y: np.ndarray
    t_end: float
    record_times: Optional[np.ndarray] = None
    rec_r: Optional[np.ndarray] = None
    rec_y: Optional[np.ndarray] = None
    log_discount: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _Plan:
    """Precomputed step schedule with the displaced model reduced away.

    The kernel simulates the shifted rate on the shifted curve and the
    displacement is subtracted from every emitted r sample, which makes the
    displaced/shifted equivalence hold bit-for-bit.
    """

    sigma: float
    beta: float
    gamma: float
    eps_pow: float
    vol_cap: Optional[float]
    shift: float
    r_init: float
    lam: np.ndarray
    dlam: np.ndarray
    dt: float
    sqrt_dt: float
    n_steps: int
    threshold: float
    seed: int
    record_idx: np.ndarray
    record_stride: int


def _substream(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed, path_index], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def _make_plan(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
               record: bool) -> _Plan:
    n_steps = int(round(cfg.horizon / cfg.dt))
    if n_steps < 1:
        raise ConfigError("horizon shorter than one step")
    if not cfg.explosion_threshold >= 10.0 * p.lambda0:
        raise ConfigError(
            "explosion_threshold must be at least 10 * lambda0 "
            f"({10.0 * p.lambda0}), got {cfg.explosion_threshold}")
    crv = curve.shifted(p.displacement)
    tg = cfg.dt * np.arange(n_steps)
    lam = np.asarray(crv.value(tg), dtype=float)
    dlam = np.asarray(crv.slope(tg), dtype=float)
    record_idx = (np.arange(0, n_steps + 1, cfg.record_stride)
                  if record else np.empty(0, dtype=int))
    return _Plan(
        sigma=p.sigma, beta=p.beta, gamma=p.gamma,
        eps_pow=p.epsilon ** (p.gamma - 1.0), vol_cap=p.vol_cap,
        shift=p.displacement, r_init=crv.lambda0,
        lam=lam, dlam=dlam, dt=cfg.dt, sqrt_dt=math.sqrt(cfg.dt),
        n_steps=n_steps, threshold=cfg.explosion_threshold,
        seed=int(cfg.seed), record_idx=record_idx,
        record_stride=cfg.record_stride,
    )


def _vol(pl: _Plan, r: np.ndarray) -> np.ndarray:
    pos = r > 0.0
    rs = np.where(pos, r, 1.0)
    v = np.where(pos,
                 pl.sigma * r * np.minimum(rs ** (pl.gamma - 1.0), pl.eps_pow),
                 0.0)
    if pl.vol_cap is not None:
        v = np.minimum(np.maximum(v, 0.0), pl.vol_cap)
    return v


def _simulate_chunk(pl: _Plan, indices: np.ndarray,
                    tau: np.ndarray, term_r: np.ndarray, term_y: np.ndarray,
                    rec_r: Optional[np.ndarray], rec_y: Optional[np.ndarray],
                    ldisc: Optional[np.ndarray]) -> None:
    """Simulate the given path indices, writing results in place.

    The output arrays are views over the chunk's slice, so concurrent
    chunks never overlap.
    """
    n = len(indices)
    r = np.full(n, pl.r_init)
    y = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    gens = [_substream(pl.seed, int(i)) for i in indices]
    noise = np.empty((n, min(_NOISE_BLOCK, pl.n_steps)))
    stride = pl.record_stride

    k = 0
    while k < pl.n_steps and alive.any():
        nb = min(_NOISE_BLOCK, pl.n_steps - k)
        for j in range(n):
            if alive[j]:
                noise[j, :nb] = gens[j].standard_normal(nb)
        for j in range(nb):
            kk = k + j
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            if rec_r is not None and kk % stride == 0:
                row = kk // stride
                rec_r[row, idx] = r[idx] - pl.shift
                rec_y[row, idx] = y[idx]
            if ldisc is not None:
                ldisc[idx] += (r[idx] - pl.shift) * pl.dt
            rk = r[idx]
            yk = y[idx]
            sr = _vol(pl, rk)
            rn = rk + (yk - pl.beta * rk + pl.beta * pl.lam[kk] + pl.dlam[kk]) * pl.dt \
                + sr * pl.sqrt_dt * noise[idx, j]
            yn = np.maximum(yk + (sr * sr - 2.0 * pl.beta * yk) * pl.dt, 0.0)
            bad = (~np.isfinite(rn)) | (~np.isfinite(yn)) \
                | (rn >= pl.threshold) | (yn >= pl.threshold)
            if bad.any():
                hit = idx[bad]
                tau[hit] = kk * pl.dt
                alive[hit] = False
                good = ~bad
                r[idx[good]] = rn[good]
                y[idx[good]] = yn[good]
            else:
                r[idx] = rn
                y[idx] = yn
        k += nb

    if rec_r is not None and pl.n_steps % stride == 0:
        row = pl.n_steps // stride
        idx = np.flatnonzero(alive)
        rec_r[row, idx] = r[idx] - pl.shift
        rec_y[row, idx] = y[idx]
    term_r[:] = r - pl.shift
    term_y[:] = y


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, int(threads))
    import os
    env = os.environ.get("QGHJM_THREADS")
    return max(1, int(env)) if env else 1


def simulate_batch(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                   path_indices: Optional[Sequence[int]] = None, *,
                   record: bool = False, want_discount: bool = False,
                   threads: Optional[int] = None) -> BatchPaths:
    """Simulate a batch of paths (default: indices 0 .. n_paths-1).

    Paths are embarrassingly parallel; with threads > 1 they are split into
    contiguous chunks whose results land in disjoint slices, so the output
    is independent of scheduling.
    """
    pl = _make_plan(p, curve, cfg, record)
    if path_indices is None:
        idx = np.arange(cfg.n_paths, dtype=np.int64)
    else:
        idx = np.asarray(path_indices, dtype=np.int64)
    n = len(idx)
    tau = np.full(n, np.inf)
    term_r = np.empty(n)
    term_y = np.empty(n)
    rec_r = rec_y = rec_t = None
    if record:
        rec_t = pl.record_idx * pl.dt
        rec_r = np.full((len(pl.record_idx), n), np.nan)
        rec_y = np.full((len(pl.record_idx), n), np.nan)
    ldisc = np.zeros(n) if want_discount else None

    nthreads = _resolve_threads(threads)
    if nthreads == 1 or n < 2 * nthreads:
        _simulate_chunk(pl, idx, tau, term_r, term_y, rec_r, rec_y, ldisc)
    else:
        bounds = np.linspace(0, n, nthreads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=nthreads) as ex:
            futs = []
            for a, b in zip(bounds[:-1], bounds[1:]):
                if b > a:
                    futs.append(ex.submit(
                        _simulate_chunk, pl, idx[a:b], tau[a:b],
                        term_r[a:b], term_y[a:b],
                        None if rec_r is None else rec_r[:, a:b],
                        None if rec_y is None else rec_y[:, a:b],
                        None if ldisc is None else ldisc[a:b]))
            for f in futs:
                f.result()

    return BatchPaths(
        path_index=idx, exploded=np.isfinite(tau), tau_hat=tau,
        terminal_r=term_r, terminal_y=term_y, t_end=pl.n_steps * pl.dt,
        record_times=rec_t, rec_r=rec_r, rec_y=rec_y, log_discount=ldisc,
    )


def simulate_path(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                  path_index: int) -> PathResult:
    """Simulate one path with its recorded samples.

    Bit-identical to the same index inside any batch with the same seed.
    """
    batch = simulate_batch(p, curve, cfg, [path_index], record=True)
    alive_rows = ~np.isnan(batch.rec_r[:, 0])
    samples = np.column_stack([
        batch.record_times[alive_rows],
        batch.rec_r[alive_rows, 0],
        batch.rec_y[alive_rows, 0],
    ])
    return PathResult(
        exploded=bool(batch.exploded[0]),
        tau_hat=float(batch.tau_hat[0]),
        samples=samples,
        path_index=int(path_index),
    )


def explosion_probability(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                          T: float, *, threads: Optional[int] = None) -> McEstimate:
    """Fraction of paths whose explosion time is at most T.

    The standard error is the binomial surrogate sqrt(p_hat (1 - p_hat)/n).
    """
    if not T <= cfg.horizon:
        raise ConfigError(f"T={T} exceeds horizon={cfg.horizon}")
    batch = simulate_batch(p, curve, cfg, threads=threads)
    hits = int(np.count_nonzero(batch.tau_hat <= T))
    n = len(batch.path_index)
    p_hat = hits / n
    return McEstimate(mean=p_hat,
                      std_error=math.sqrt(p_hat * (1.0 - p_hat) / n),
                      n=n, n_exploded=hits, diverged=False)


def _survivor_estimate(vals: np.ndarray, n: int, diverge: bool) -> McEstimate:
    """Estimate from vals, the values of the surviving paths out of n.

    diverge flags the estimate diverged when any path exploded; with no
    survivor it is diverged with a nan mean and standard error.
    """
    m = len(vals)
    n_exploded = n - m
    if m == 0:
        return McEstimate(mean=math.nan, std_error=math.nan, n=n,
                          n_exploded=n_exploded, diverged=True)
    if m == 1:
        se = 0.0
    elif np.all(np.isfinite(vals)):
        se = float(vals.std(ddof=1) / math.sqrt(m))
    else:
        se = math.nan
    return McEstimate(mean=float(vals.mean()), std_error=se, n=n,
                      n_exploded=n_exploded,
                      diverged=diverge and n_exploded > 0)


def expectation_functional(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                           payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
                           on_explosion: OnExplosion = OnExplosion.DIVERGE, *,
                           threads: Optional[int] = None) -> McEstimate:
    """Monte Carlo mean of payoff(r_T, y_T) over the terminal states.

    payoff maps the arrays of surviving terminal rates and convexities to
    an array of values (a scalar is broadcast). DIVERGE: any explosion
    marks the estimate diverged; the reported mean is the partial mean over
    surviving paths. EXCLUDE: the mean covers surviving paths with the
    exploded count reported; raises EmptySample when nothing survived.
    """
    batch = simulate_batch(p, curve, cfg, threads=threads)
    surv = ~batch.exploded
    if on_explosion is OnExplosion.EXCLUDE and not surv.any():
        raise EmptySample("all paths exploded before the horizon")
    r, y = batch.terminal_r[surv], batch.terminal_y[surv]
    vals = np.broadcast_to(np.asarray(payoff(r, y), dtype=float), r.shape)
    return _survivor_estimate(vals, len(surv),
                              on_explosion is OnExplosion.DIVERGE)


def pathwise_discount_factors(p: ModelParams, curve: ForwardCurve,
                              cfg: SimConfig, T: float, *,
                              threads: Optional[int] = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Per-path stochastic discount factors exp(-sum_k r_k dt) up to T.

    The sum runs over the left endpoints of every step. Returns the factor
    array and the exploded mask (factors of exploded paths are unusable).
    """
    if not T <= cfg.horizon:
        raise ConfigError(f"T={T} exceeds horizon={cfg.horizon}")
    cfg_T = replace(cfg, horizon=T)
    batch = simulate_batch(p, curve, cfg_T, want_discount=True, threads=threads)
    return np.exp(-batch.log_discount), batch.exploded


def write_paths_csv(batch: BatchPaths, fh: TextIO) -> None:
    """Recorded samples as CSV rows path_index,t,r,y (pre-explosion only)."""
    if batch.rec_r is None:
        raise ValueError("batch was simulated without recording")
    fh.write("path_index,t,r,y\n")
    for col, pi in enumerate(batch.path_index):
        alive = ~np.isnan(batch.rec_r[:, col])
        for t, r, y in zip(batch.record_times[alive],
                           batch.rec_r[alive, col], batch.rec_y[alive, col]):
            fh.write(f"{int(pi)},{t:.17g},{r:.17g},{y:.17g}\n")


def write_explosions_csv(batch: BatchPaths, fh: TextIO) -> None:
    """Explosion summary as CSV rows path_index,exploded,tau_hat."""
    fh.write("path_index,exploded,tau_hat\n")
    for pi, ex, tau in zip(batch.path_index, batch.exploded, batch.tau_hat):
        fh.write(f"{int(pi)},{int(ex)},{tau:.17g}\n")
