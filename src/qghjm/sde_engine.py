"""Euler-Maruyama simulation of the (r, y) system with explosion detection
and Monte Carlo estimators.

Noise discipline
----------------
Path i draws its standard normals from a counter-based Philox stream keyed
by (seed, i), consumed in step order, so the draw used at step k is a pure
function of (seed, i, k). Results for a given path are bit-identical
whether it is simulated alone or inside a batch, in any launch order, and
common-random-number comparisons across parameter values reuse the same
noise.

Kernel
------
simulate_batch runs contiguous chunks of at most about _CHUNK paths in
order in its own frame, on their live paths only; cols holds their
positions in the batch. One noise block, one path-major stage of _STAGE
doubles and one Philox generator per chunk column serve every chunk. A run
of at most _NOISE_BLOCK (512) steps is one block, which shares one
generator, re-keyed per path. A longer run needs a generator per column
anyway, so it draws blocks of 256 steps: each column's generator carries
its path's stream across block boundaries of any length, and a half block
costs one more draw call per path per block for half the mapping
(splitting a one-block run would build a pool). The noise block, one block
by the widest chunk, is a private anonymous mapping, unmapped when the
call returns: a malloc'd block under glibc's 32 MiB dynamic mmap threshold
would stay resident on the heap, and back-to-back calls would stack their
blocks. The finally that closes the mapping first drops the views of it,
which would keep it open. A column's generator is keyed from one template
state (key[1] = i, counter 0) at its path's first block, then keeps its
own counter and buffer. A block is step-major, one column per path live at
its start. The step evaluates model_core.coefficients into preallocated
buffers (out=, same per-element order and bits) at lambda and lambda' of
the block's steps only: the curve is read per block, so no array grows
with the step count. A path stops at the first step whose update gives r
or y at or above the explosion threshold, or a non-finite value: tau_hat
is the left edge of that step (bias at most dt). It idles at (lambda0, 0),
reset whenever it crosses again and masked out of records and exits, until
the live arrays are compacted at the next block's start, where a chunk
with no live path ends. Every path leaves through one exit that writes its
terminal r, y and log-discount: at its death step with its last good
state, or at the end. The chunk width sizes the noise block and, in a run
of more than one block, the generator pool: 8192 keeps a 10k-path run to
two chunks of 5000.

The estimators read a simulated BatchPaths and never simulate: the
explosion fraction by T, the survivors' mean of an array payoff of the
terminal state (r_T, y_T), and the pathwise discount factors, which are 0
on exploded paths.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from ._csv import CHUNK as _CSV_ROWS, fields, write_fields, write_rows
from ._search import bisect
from .errors import ConfigError, DomainError, from_json, store_numbers
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

_NOISE_BLOCK = 512
_CHUNK = 8192
_STAGE = 1 << 16  # doubles in the path-major noise stage


@dataclass(frozen=True)
class SimConfig:
    """Euler simulation settings.

    dt and horizon are in years; the step count is round(horizon / dt),
    and it and n_paths are below 2**60. A path explodes at the first step
    where r (the model's own rate) or y reaches explosion_threshold, which
    must sit far above the normal dynamics, or turns non-finite.
    record_stride stores every k-th step when path recording is requested.
    n_paths, seed and record_stride are integers (int or numpy), not bools;
    every field is stored as a Python int or float.
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
        # a float64 array of n_steps or n_paths must stay under 2**63 bytes
        if not self.horizon / self.dt < 2 ** 60:
            raise ConfigError(f"horizon/dt must be < 2**60, "
                              f"got horizon={self.horizon} dt={self.dt}")
        for name in ("n_paths", "seed", "record_stride"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not 1 <= self.n_paths < 2 ** 60:
            raise ConfigError(f"n_paths must be in [1, 2**60), got {self.n_paths}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.explosion_threshold > 0.0:
            raise ConfigError("explosion_threshold must be > 0")
        if not self.record_stride >= 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        store_numbers(self)

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
                   threads: int = 1) -> BatchPaths:
    """Simulate a batch of paths (default: indices 0 .. n_paths-1).

    Contiguous chunks of about _CHUNK paths or fewer run in order on the
    calling thread and fill disjoint slices. threads must be >= 1 and is
    otherwise unused: no output depends on it.
    """
    n_steps = cfg.n_steps
    if not cfg.explosion_threshold >= 10.0 * p.lambda0:
        raise ConfigError(
            "explosion_threshold must be at least 10 * lambda0 "
            f"({10.0 * p.lambda0}), got {cfg.explosion_threshold}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if path_indices is None:
        idx = np.arange(cfg.n_paths, dtype=np.int64)
    else:
        idx = np.asarray(path_indices)
        if idx.size == 0:
            raise ConfigError("path indices must not be empty")
        if (idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0
                or idx.max() >= 2 ** 63):
            raise ConfigError("path indices must be one sequence of "
                              "integers in [0, 2**63)")
        idx = idx.astype(np.int64, copy=False)
    n = len(idx)
    dt, sqrt_dt = cfg.dt, math.sqrt(cfg.dt)
    thr, stride = cfg.explosion_threshold, cfg.record_stride

    tau, term_r, term_y = np.full(n, np.inf), np.empty(n), np.empty(n)
    rec_r = rec_y = rec_t = None
    if record:  # every path starts at (lambda0, 0)
        rec_t = np.arange(0, n_steps + 1, stride) * dt
        rec_r = np.full((len(rec_t), n), np.nan)
        rec_y = np.full((len(rec_t), n), np.nan)
        rec_r[0], rec_y[0] = curve.lambda0, 0.0
    ldisc = np.zeros(n) if want_discount else None

    def leave(sel) -> None:  # the one exit: live paths sel end here
        at = cols[sel]
        term_r[at], term_y[at] = r[sel], y[sel]
        if ldisc is not None:
            ldisc[at] = disc[sel]

    bounds = np.linspace(0, n, -(-n // _CHUNK) + 1, dtype=int).tolist()
    # a run of more than one block builds the pool anyway: half blocks
    nb_max = n_steps if n_steps <= _NOISE_BLOCK else _NOISE_BLOCK // 2
    width = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    # one generator per chunk column carries a path's Philox state across
    # blocks (one for all in a one-block run); each is keyed from st at its
    # path's first block, so one seed sequence, made once, builds them all
    ss = np.random.SeedSequence(0)
    gens = [np.random.Generator(np.random.Philox(ss))
            for _ in range(width if n_steps > nb_max else 1)]
    gens *= width // len(gens)
    st = {"bit_generator": "Philox", "has_uint32": 0, "uinteger": 0,
          "buffer": [0] * 4, "buffer_pos": 4,
          "state": {"counter": [0] * 4, "key": [cfg.seed, 0]}}
    key = st["state"]["key"]
    # the noise block: private anonymous memory with huge pages, as numpy
    # asks for its own large arrays (4 KiB pages fault 512 times as often)
    block = mmap.mmap(-1, 8 * nb_max * width, flags=mmap.MAP_PRIVATE)
    with contextlib.suppress(AttributeError, OSError):  # Linux with THP
        block.madvise(mmap.MADV_HUGEPAGE)
    try:
        noise_buf = np.frombuffer(block)
        stage = np.empty((min(width, _STAGE // nb_max), nb_max))
        for lo, hi in zip(bounds, bounds[1:]):  # batch positions lo..hi-1
            cols, ids = np.arange(lo, hi), idx[lo:hi].tolist()
            r, y = np.full(hi - lo, curve.lambda0), np.zeros(hi - lo)
            rn, yn, mu_r, mu_y, sr = np.empty((5, hi - lo))
            disc = np.zeros(hi - lo)
            live = np.ones(hi - lo, dtype=bool)  # of the block's columns
            for k0 in range(0, n_steps, nb_max):
                if not live.any():  # every path of the chunk has left
                    break
                if not live.all():  # the paths that died in the last block go
                    cols, r, y, disc = cols[live], r[live], y[live], disc[live]
                    rn, yn, mu_r, mu_y, sr = (
                        a[:len(cols)] for a in (rn, yn, mu_r, mu_y, sr))
                    live = live[live]
                nb = min(nb_max, n_steps - k0)
                lam, dlam = curve.rate_and_slope(dt * np.arange(k0, k0 + nb))
                # live path j draws into column j of a block as wide as the
                # live set, through the path-major stage (a strided column
                # write per path costs more than the copy)
                pos, rows = cols.tolist(), [s[:nb] for s in stage]
                noise = noise_buf[:nb * len(pos)].reshape(nb, len(pos))
                for j0 in range(0, len(pos), len(rows)):
                    grp = pos[j0:j0 + len(rows)]
                    for c, row in zip(grp, rows):
                        gen = gens[c - lo]
                        if not k0:  # the path's first block keys its generator
                            key[1] = ids[c - lo]
                            gen.bit_generator.state = st
                        gen.standard_normal(out=row)
                    noise[:, j0:j0 + len(grp)] = stage[:len(grp), :nb].T
                for k in range(k0, k0 + nb):
                    if ldisc is not None:  # mu_r as scratch
                        disc += np.multiply(r, dt, out=mu_r)
                    coefficients(r, y, lam[k - k0], dlam[k - k0], p,
                                 out=(mu_r, mu_y, sr))
                    # rn = r + mu_r*dt + sr*sqrt_dt*z, yn = max(y + mu_y*dt, 0)
                    np.add(r, np.multiply(mu_r, dt, out=mu_r), out=rn)
                    rn += np.multiply(np.multiply(sr, sqrt_dt, out=sr),
                                      noise[k - k0], out=sr)
                    np.maximum(np.add(y, np.multiply(mu_y, dt, out=mu_y),
                                      out=yn), 0.0, out=yn)
                    # rn, yn finite and below thr (yn is never -inf; nan fails)
                    if not (rn.max() < thr and yn.max() < thr
                            and rn.min() > -np.inf):
                        ok = (rn < thr) & (yn < thr) & (rn > -np.inf)
                        died = live & ~ok  # leave with their last good state
                        tau[cols[died]] = k * dt
                        leave(died)
                        live &= ok
                        rn[~ok], yn[~ok] = curve.lambda0, 0.0  # the dead idle
                        if not live.any():
                            break
                    r, rn, y, yn = rn, r, yn, y
                    if rec_r is not None and (k + 1) % stride == 0:
                        rec_r[(k + 1) // stride, cols[live]] = r[live]
                        rec_y[(k + 1) // stride, cols[live]] = y[live]
            leave(live)
    finally:  # a mapping cannot close while a view of it lives
        noise_buf = noise = None
        block.close()

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
    if not (0 <= hits <= n and n >= 1):
        raise DomainError(f"need 0 <= hits <= n and n >= 1, "
                          f"got hits={hits} n={n}")
    j = np.arange(hits + 1)
    log_c = np.concatenate(([0.0], np.cumsum(np.log((n - j[1:] + 1) / j[1:]))))

    def tail_above(x: float) -> bool:
        tail = np.exp(log_c + j * math.log(x) + (n - j) * math.log1p(-x))
        return tail.sum() > 0.05

    return bisect(tail_above, hits / n, 1.0)[1]


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
    times = fields(batch.record_times)
    group = max(1, _CSV_ROWS // len(batch.record_times))
    for lo in range(0, len(batch.path_index), group):
        rec_r, rec_y = (a[:, lo:lo + group].T for a in (batch.rec_r, batch.rec_y))
        alive = ~np.isnan(rec_r)  # path-major, like the rows
        col, k = np.nonzero(alive)
        ids = fields(batch.path_index[lo:lo + group])
        write_fields(fh, [np.take(ids, col, axis=0), np.take(times, k, axis=0),
                          fields(rec_r[alive]), fields(rec_y[alive])])


def write_explosions_csv(batch: BatchPaths, fh: TextIO) -> None:
    """Explosion summary as CSV rows path_index,exploded,tau_hat."""
    write_rows(fh, "path_index,exploded,tau_hat", np.column_stack(
        [batch.path_index, batch.exploded, batch.tau_hat]))
