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

Kernel
------
simulate_batch runs contiguous chunks of at most about _CHUNK paths (at
least one per thread) on their live paths only; cols holds their positions
in the chunk. One Philox per chunk is re-keyed to (seed, i) for a path's
first block of 1024 steps, and a uint64 table carries its counter and
buffer to the next block. A block is step-major, one column per path live
at its start, filled through a small path-major stage, so a step reads a
row slice until a path dies in that block. The step
evaluates model_core.coefficients into preallocated buffers (out=, same
per-element order and bits) at the shifted rate on the shifted curve; the
displacement is taken off every emitted r. A path stops at the first step
whose update gives r or y at or above the explosion threshold, or a
non-finite value: tau_hat is the left edge of that step (bias at most dt),
the path keeps its last good state, and the live arrays are compacted on
that step only.

Estimators work on arrays: a payoff maps the terminal-state arrays
(r_T, y_T) of the surviving paths to their values, and one helper gives
the survivor mean, its standard error and the exploded count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from ._csv import write_rows
from .errors import ConfigError, EmptySample, from_json
from .model_core import ForwardCurve, ModelParams, coefficients

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
_CHUNK = 16384
_STAGE = 64


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
        if not self.dt <= self.horizon < math.inf:
            raise ConfigError(f"horizon must be finite and >= dt, "
                              f"got horizon={self.horizon} dt={self.dt}")
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
        return from_json(cls, obj, "sim")

    def to_json(self) -> dict:
        return asdict(self)


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


def simulate_batch(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                   path_indices: Optional[Sequence[int]] = None, *,
                   record: bool = False, want_discount: bool = False,
                   threads: Optional[int] = None) -> BatchPaths:
    """Simulate a batch of paths (default: indices 0 .. n_paths-1).

    Paths are embarrassingly parallel: contiguous chunks of about _CHUNK
    paths or fewer, at least one per thread, fill disjoint slices, so the
    output is independent of scheduling. threads None means one thread.
    """
    n_steps = int(round(cfg.horizon / cfg.dt))
    if not cfg.explosion_threshold >= 10.0 * p.lambda0:
        raise ConfigError(
            "explosion_threshold must be at least 10 * lambda0 "
            f"({10.0 * p.lambda0}), got {cfg.explosion_threshold}")
    nthreads = 1 if threads is None else int(threads)
    if nthreads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if path_indices is None:
        idx = np.arange(cfg.n_paths, dtype=np.int64)
    else:
        idx = np.asarray(path_indices, dtype=np.int64)
    if np.any(idx < 0):
        raise ConfigError("path indices must be >= 0")
    n = len(idx)
    # the shifted rate on the shifted curve, with the shift taken off
    # every emitted r: the displaced/shifted identity then holds bit for bit
    shift = p.displacement
    p0 = replace(p, displacement=0.0)
    crv = curve.shifted(shift)
    lam, dlam = crv.rate_and_slope(cfg.dt * np.arange(n_steps))
    dt, sqrt_dt = cfg.dt, math.sqrt(cfg.dt)
    thr, stride = cfg.explosion_threshold, cfg.record_stride

    tau, term_r, term_y = np.full(n, np.inf), np.empty(n), np.empty(n)
    rec_r = rec_y = rec_t = None
    if record:
        rec_t = np.arange(0, n_steps + 1, stride) * dt
        rec_r = np.full((len(rec_t), n), np.nan)
        rec_y = np.full((len(rec_t), n), np.nan)
    ldisc = np.zeros(n) if want_discount else None

    def run(lo: int, hi: int) -> None:
        """Simulate batch positions lo..hi-1, writing their results."""
        w = hi - lo
        cols = np.arange(w)
        # Philox state per path: counter, buffer, buffer_pos, key (seed, i);
        # gen is set to a path's state before each of its draws
        state = np.zeros((w, 11), dtype=np.uint64)
        state[:, 8], state[:, 9], state[:, 10] = 4, cfg.seed, idx[lo:hi]
        gen = np.random.Generator(np.random.Philox())
        noise = np.empty((min(_NOISE_BLOCK, n_steps), w))
        tau_c, tr_c, ty_c, ld_c = (None if a is None else a[lo:hi]
                                   for a in (tau, term_r, term_y, ldisc))
        rr_c, ry_c = (None if a is None else a[:, lo:hi] for a in (rec_r, rec_y))
        r, y = np.full(w, crv.lambda0), np.zeros(w)
        rn, yn, mu_r, mu_y, sr, tmp = np.empty((6, w))
        disc = None if ldisc is None else np.zeros(w)

        for k0 in range(0, n_steps, _NOISE_BLOCK):
            nb = min(_NOISE_BLOCK, n_steps - k0)
            # live path j draws into noise column j through a path-major
            # stage copied _STAGE columns at a time (a strided column write
            # per path costs more than the copy)
            stage, live = np.empty((_STAGE, nb)), cols.tolist()
            for j0 in range(0, len(live), _STAGE):
                grp = live[j0:j0 + _STAGE]
                for j, c in enumerate(grp):
                    s = state[c].tolist()
                    gen.bit_generator.state = {
                        "bit_generator": "Philox", "has_uint32": 0,
                        "uinteger": 0, "buffer": s[4:8], "buffer_pos": s[8],
                        "state": {"counter": s[:4], "key": s[9:]}}
                    gen.standard_normal(out=stage[j])
                    if k0 + nb < n_steps:
                        s, row = gen.bit_generator.state, state[c]
                        row[:4], row[4:8] = s["state"]["counter"], s["buffer"]
                        row[8] = s["buffer_pos"]
                noise[:nb, j0:j0 + len(grp)] = stage[:len(grp)].T
            ncol = None  # noise columns of the live paths, None while in order
            for k in range(k0, k0 + nb):
                if not cols.size:
                    break
                if rr_c is not None and k % stride == 0:
                    rr_c[k // stride, cols] = r - shift
                    ry_c[k // stride, cols] = y
                if disc is not None:
                    disc += np.multiply(np.subtract(r, shift, out=tmp), dt, out=tmp)
                coefficients(r, y, lam[k], dlam[k], p0, out=(mu_r, mu_y, sr))
                z = noise[k - k0, :len(cols)] if ncol is None else noise[k - k0, ncol]
                # rn = r + mu_r*dt + sr*sqrt_dt*z, yn = max(y + mu_y*dt, 0)
                np.add(r, np.multiply(mu_r, dt, out=mu_r), out=rn)
                rn += np.multiply(np.multiply(sr, sqrt_dt, out=sr), z, out=sr)
                np.maximum(np.add(y, np.multiply(mu_y, dt, out=mu_y), out=yn),
                           0.0, out=yn)
                # rn, yn finite and below thr (yn is never -inf; nan fails)
                if rn.max() < thr and yn.max() < thr and rn.min() > -np.inf:
                    r, rn, y, yn = rn, r, yn, y
                    continue
                ok = (rn < thr) & (yn < thr) & (rn > -np.inf)
                # the exploded paths keep their last good state
                dead = ~ok
                at = cols[dead]
                tau_c[at] = k * dt
                tr_c[at] = r[dead] - shift
                ty_c[at] = y[dead]
                if disc is not None:
                    ld_c[at] = disc[dead]
                    disc = disc[ok]
                ncol = (np.arange(len(cols)) if ncol is None else ncol)[ok]
                cols, r, y = cols[ok], rn[ok], yn[ok]
                rn, yn, mu_r, mu_y, sr, tmp = (
                    a[:len(cols)] for a in (rn, yn, mu_r, mu_y, sr, tmp))

        if rr_c is not None and n_steps % stride == 0:
            rr_c[n_steps // stride, cols] = r - shift
            ry_c[n_steps // stride, cols] = y
        tr_c[cols] = r - shift
        ty_c[cols] = y
        if disc is not None:
            ld_c[cols] = disc

    nchunks = max(min(nthreads, n), -(-n // _CHUNK))
    bounds = np.linspace(0, n, nchunks + 1, dtype=int).tolist()
    if nthreads == 1:
        list(map(run, bounds[:-1], bounds[1:]))
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as ex:
            list(ex.map(run, bounds[:-1], bounds[1:]))  # re-raises

    return BatchPaths(
        path_index=idx, exploded=np.isfinite(tau), tau_hat=tau,
        terminal_r=term_r, terminal_y=term_y, t_end=n_steps * dt,
        record_times=rec_t, rec_r=rec_r, rec_y=rec_y, log_discount=ldisc,
    )


def simulate_path(p: ModelParams, curve: ForwardCurve, cfg: SimConfig,
                  path_index: int) -> PathResult:
    """Simulate one path with its recorded samples.

    Bit-identical to the same index inside any batch with the same seed.
    """
    batch = simulate_batch(p, curve, cfg, [path_index], record=True)
    samples = np.column_stack(
        [batch.record_times, batch.rec_r[:, 0], batch.rec_y[:, 0]])
    return PathResult(exploded=bool(batch.exploded[0]),
                      tau_hat=float(batch.tau_hat[0]),
                      samples=samples[~np.isnan(samples[:, 1])],
                      path_index=int(path_index))


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
    alive = ~np.isnan(batch.rec_r.T)  # path-major, like the rows
    cols = [np.broadcast_to(v, alive.shape)[alive] for v in
            (batch.path_index[:, None], batch.record_times,
             batch.rec_r.T, batch.rec_y.T)]
    write_rows(fh, "path_index,t,r,y", np.column_stack(cols))


def write_explosions_csv(batch: BatchPaths, fh: TextIO) -> None:
    """Explosion summary as CSV rows path_index,exploded,tau_hat."""
    write_rows(fh, "path_index,exploded,tau_hat", np.column_stack(
        [batch.path_index, batch.exploded, batch.tau_hat]))
