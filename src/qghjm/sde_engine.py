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
in the chunk. Each worker thread reuses one noise block, one path-major
stage of _STAGE doubles and one uint64 state table for all its chunks. The
noise block, at most 1024 steps by the widest chunk, is a private anonymous
mapping of its own that goes back to the OS when the call returns. A
malloc'd block just under glibc's 32 MiB ceiling for its dynamic mmap
threshold would come from the heap and stay resident after the call, so
back-to-back calls would stack their blocks. A chunk's Philox is re-keyed
per path from a template state: key[1] = i for a path's first block of 1024
steps, then the counter, buffer and buffer_pos that the table carried over.
A block is step-major, one column per path live at its start, so a step
reads a whole row until a path dies in that block. The step evaluates
model_core.coefficients into preallocated buffers (out=, same per-element
order and bits) at the shifted rate on the shifted curve; the displacement
is taken off every emitted r. A path stops at the first step whose update
gives r or y at or above the explosion threshold, or a non-finite value:
tau_hat is the left edge of that step (bias at most dt), the path keeps its
last good state, and the live arrays are compacted on that step only.

The estimators read a simulated BatchPaths and never simulate: the
explosion fraction by T, the survivors' mean of an array payoff of the
terminal state (r_T, y_T), and the pathwise discount factors, which are 0
on exploded paths.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from ._csv import CHUNK as _CSV_ROWS, append_rows, write_rows
from .errors import ConfigError, from_json
from .model_core import ForwardCurve, ModelParams, coefficients

__all__ = [
    "SimConfig",
    "McEstimate",
    "BatchPaths",
    "simulate_batch",
    "explosion_probability",
    "clopper_pearson_upper95",
    "expectation_functional",
    "pathwise_discount_factors",
    "write_paths_csv",
    "write_explosions_csv",
]

_NOISE_BLOCK = 1024
_CHUNK = 16384
_STAGE = 1 << 16  # doubles in a worker's path-major noise stage


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
        if not 1 <= self.n_paths < 2 ** 63:  # a path index is an int64 key
            raise ConfigError(f"n_paths must be in [1, 2**63), got {self.n_paths}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if not self.explosion_threshold > 0.0:
            raise ConfigError("explosion_threshold must be > 0")
        if not self.record_stride >= 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @classmethod
    def from_json(cls, obj: dict) -> "SimConfig":
        return from_json(cls, obj, "sim")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with explosion accounting.

    n is the total number of simulated paths; n_exploded of them exploded.
    An estimand that stays finite through explosion (a discount factor)
    averages all n paths. One that exploded paths make unbounded (a
    futures payoff) averages the survivors, and diverged is set when any
    path exploded.
    """

    mean: float
    std_error: float
    n: int
    n_exploded: int
    diverged: bool


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
    n_steps = cfg.n_steps
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
    if idx.size == 0:
        raise ConfigError("path indices must not be empty")
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

    def run(lo: int, hi: int, noise_buf, stage, table) -> None:
        """Simulate batch positions lo..hi-1 on one worker's buffers."""
        w = hi - lo
        cols, ids = np.arange(w), idx[lo:hi].tolist()
        st = {"bit_generator": "Philox", "has_uint32": 0, "uinteger": 0,
              "buffer": [0] * 4, "buffer_pos": 4,
              "state": {"counter": [0] * 4, "key": [cfg.seed, 0]}}
        key, bg = st["state"]["key"], np.random.Philox()
        draw = np.random.Generator(bg).standard_normal
        tau_c, tr_c, ty_c, ld_c = (None if a is None else a[lo:hi]
                                   for a in (tau, term_r, term_y, ldisc))
        rr_c, ry_c = (None if a is None else a[:, lo:hi] for a in (rec_r, rec_y))
        r, y = np.full(w, crv.lambda0), np.zeros(w)
        rn, yn, mu_r, mu_y, sr, tmp = np.empty((6, w))
        disc = None if ldisc is None else np.zeros(w)

        for k0 in range(0, n_steps, _NOISE_BLOCK):
            nb = min(_NOISE_BLOCK, n_steps - k0)
            # live path j draws into column j of a block as wide as the live
            # set, through the path-major stage (a strided column write per
            # path costs more than the copy)
            live, rows = cols.tolist(), [s[:nb] for s in stage]
            noise = noise_buf[:nb * len(live)].reshape(nb, len(live))
            for j0 in range(0, len(live), len(rows)):
                grp = live[j0:j0 + len(rows)]
                for c, row in zip(grp, rows):
                    key[1] = ids[c]
                    if k0:
                        s = table[c].tolist()
                        st["state"]["counter"], st["buffer"] = s[:4], s[4:8]
                        st["buffer_pos"] = s[8]
                    bg.state = st
                    draw(out=row)
                    if k0 + nb < n_steps:
                        s, t = bg.state, table[c]
                        t[:4], t[4:8] = s["state"]["counter"], s["buffer"]
                        t[8] = s["buffer_pos"]
                noise[:, j0:j0 + len(grp)] = stage[:len(grp), :nb].T
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
                z = noise[k - k0] if ncol is None else noise[k - k0, ncol]
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

    nchunks = max(min(nthreads, n), -(-n // _CHUNK), 1)
    bounds = np.linspace(0, n, nchunks + 1, dtype=int).tolist()
    nworkers, nb_max = min(nthreads, nchunks), min(_NOISE_BLOCK, n_steps)
    width = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))

    def work(t: int) -> None:
        # the noise block: private anonymous memory with huge pages, as
        # numpy asks for its own large arrays (4 KiB pages fault 512 times
        # as often)
        block = mmap.mmap(-1, 8 * nb_max * width, flags=mmap.MAP_PRIVATE)
        with contextlib.suppress(AttributeError, OSError):  # Linux with THP
            block.madvise(mmap.MADV_HUGEPAGE)
        try:
            bufs = (np.frombuffer(block),
                    np.empty((max(1, min(width, _STAGE // nb_max)), nb_max)),
                    np.empty((width, 9), dtype=np.uint64))
            for lo, hi in zip(bounds[t:-1:nworkers], bounds[t + 1::nworkers]):
                run(lo, hi, *bufs)
        except BaseException as e:  # its traceback must not keep run's views
            traceback.clear_frames(e.__traceback__)
            raise
        finally:
            bufs = None  # a mapping cannot close while a view of it lives
            block.close()

    with ThreadPoolExecutor(max_workers=nworkers) as ex:
        rest = ex.map(work, range(1, nworkers))  # submitted at once
        work(0)  # here: a pool thread's own malloc arena adds to peak RSS
        list(rest)  # re-raises

    return BatchPaths(
        path_index=idx, exploded=np.isfinite(tau), tau_hat=tau,
        terminal_r=term_r, terminal_y=term_y, t_end=n_steps * dt,
        record_times=rec_t, rec_r=rec_r, rec_y=rec_y, log_discount=ldisc,
    )


def explosion_probability(batch: BatchPaths, T: float) -> McEstimate:
    """Fraction of the batch's paths whose explosion time is at most T.

    T must lie in the simulated span [0, batch.t_end]. The standard error
    is the binomial surrogate sqrt(p_hat (1 - p_hat)/n).
    """
    if not 0.0 <= T <= batch.t_end:
        raise ConfigError(f"T={T} is outside [0, t_end={batch.t_end}]")
    hits = int(np.count_nonzero(batch.tau_hat <= T))
    n = len(batch.path_index)
    p_hat = hits / n
    return McEstimate(mean=p_hat,
                      std_error=math.sqrt(p_hat * (1.0 - p_hat) / n),
                      n=n, n_exploded=hits, diverged=False)


def clopper_pearson_upper95(hits: int, n: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound on a binomial probability
    from hits successes in n trials: the p at which P(X <= hits) = 0.05,
    1 - 0.05**(1/n) at zero hits and 1 at n.

    The tail is a sum of C(n, j) p^j (1-p)^(n-j) over j <= hits, in logs,
    with log C(n, j) from one cumulative sum; it falls as p grows, so the
    bound is bisected down to adjacent doubles.
    """
    j = np.arange(hits + 1)
    log_c = np.concatenate(([0.0], np.cumsum(np.log((n - j[1:] + 1) / j[1:]))))
    lo, hi = hits / n, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        tail = np.exp(log_c + j * math.log(mid) + (n - j) * math.log1p(-mid))
        if tail.sum() > 0.05:
            lo = mid
        else:
            hi = mid


def _survivor_estimate(vals: np.ndarray, n: int) -> McEstimate:
    """Estimate from vals, the values of the surviving paths out of n.

    It is diverged when any path exploded, with a nan mean and standard
    error when none survived.
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
                      n_exploded=n_exploded, diverged=n_exploded > 0)


def expectation_functional(batch: BatchPaths, payoff: Callable[
        [np.ndarray, np.ndarray], np.ndarray]) -> McEstimate:
    """Monte Carlo mean of payoff(r_T, y_T) over the batch's terminal states.

    payoff maps the arrays of surviving terminal rates and convexities to
    an array of values (a scalar is broadcast). Any explosion marks the
    estimate diverged; the reported mean is the partial mean over surviving
    paths, nan when none survived.
    """
    surv = ~batch.exploded
    r, y = batch.terminal_r[surv], batch.terminal_y[surv]
    vals = np.broadcast_to(np.asarray(payoff(r, y), dtype=float), r.shape)
    return _survivor_estimate(vals, len(surv))


def pathwise_discount_factors(batch: BatchPaths) -> np.ndarray:
    """Per-path stochastic discount factors exp(-sum_k r_k dt) of a batch
    simulated with want_discount, up to batch.t_end.

    The sum runs over the left endpoints of every step. An exploded path's
    factor is exactly 0.0: the bond it discounts has collapsed.
    """
    if batch.log_discount is None:
        raise ValueError("batch was simulated without want_discount")
    return np.where(batch.exploded, 0.0, np.exp(-batch.log_discount))


def write_paths_csv(batch: BatchPaths, fh: TextIO) -> None:
    """Recorded samples as CSV rows path_index,t,r,y (pre-explosion only).

    The rows are built and written a group of paths at a time, so the
    writer's memory does not grow with the number of paths.
    """
    if batch.rec_r is None:
        raise ValueError("batch was simulated without recording")
    fh.write("path_index,t,r,y\n")
    group = max(1, _CSV_ROWS // len(batch.record_times))
    for lo in range(0, len(batch.path_index), group):
        rec_r, rec_y = (a[:, lo:lo + group].T for a in (batch.rec_r, batch.rec_y))
        alive = ~np.isnan(rec_r)  # path-major, like the rows
        append_rows(fh, np.column_stack([
            np.broadcast_to(v, alive.shape)[alive] for v in
            (batch.path_index[lo:lo + group, None], batch.record_times,
             rec_r, rec_y)]))


def write_explosions_csv(batch: BatchPaths, fh: TextIO) -> None:
    """Explosion summary as CSV rows path_index,exploded,tau_hat."""
    write_rows(fh, "path_index,exploded,tau_hat", np.column_stack(
        [batch.path_index, batch.exploded, batch.tau_hat]))
