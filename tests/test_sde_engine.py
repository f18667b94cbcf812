"""Tests for the Euler engine: determinism, explosion handling, estimators."""

import dataclasses
import hashlib
import io
import json
import math
import mmap
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

import qghjm
from qghjm import (ConfigError, DomainError, ForwardCurve, ModelParams,
                   SimConfig, coefficients, discount_estimate,
                   expectation_functional, explosion_probability,
                   ode_integrate, pathwise_discount_factors, sigma_r,
                   simulate_batch)
from qghjm import sde_engine as eng
from qghjm.sde_engine import write_explosions_csv, write_paths_csv


def params(**kw):
    base = dict(sigma=0.2, beta=0.0, gamma=1.0, epsilon=0.01, lambda0=0.1)
    base.update(kw)
    return ModelParams(**base)


FLAT = ForwardCurve.flat(0.1)


def samples(batch):
    """Rows (t, r, y) of a one-path recorded batch while the path lived."""
    rows = np.column_stack([batch.record_times, batch.rec_r[:, 0],
                            batch.rec_y[:, 0]])
    return rows[~np.isnan(rows[:, 1])]


def scalar_euler(p, curve, cfg, i):
    """(tau_hat, r_T, y_T, log_discount) of path i from a scalar Euler loop
    on a fresh Philox(key=[seed, i]) stream."""
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
    sqrt_dt, thr = math.sqrt(cfg.dt), cfg.explosion_threshold
    r, y, tau, disc = curve.lambda0, 0.0, math.inf, 0.0
    for k in range(cfg.n_steps):
        t = k * cfg.dt
        disc += r * cfg.dt
        mu_r, mu_y, sr = coefficients(r, y, curve.value(t), curve.slope(t), p)
        rn = r + mu_r * cfg.dt + sr * sqrt_dt * gen.standard_normal()
        yn = max(y + mu_y * cfg.dt, 0.0)
        if not (rn < thr and yn < thr and rn > -math.inf):
            tau = t
            break
        r, y = rn, yn
    return tau, r, y, disc


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"dt": 0.0}, {"dt": -0.1}, {"horizon": 0.005}, {"n_paths": 0},
        {"record_stride": 0}, {"explosion_threshold": -1.0},
        {"horizon": math.inf}, {"n_paths": 2 ** 63}, {"n_paths": 10 ** 400},
        {"n_paths": 2 ** 60},
    ])
    def test_invalid(self, kw):
        base = dict(dt=0.01, horizon=1.0, n_paths=10, seed=1)
        base.update(kw)
        with pytest.raises(ConfigError):
            SimConfig(**base)

    def test_step_count_must_fit_int64(self):
        # horizon/dt = 1e310 overflows to inf; 2**60 steps is one too many,
        # as a float64 array of 2**60 entries is past numpy's 2**63 bytes
        with pytest.raises(ConfigError, match=r"horizon/dt .* "
                           r"horizon=10000000000\.0 dt=1e-300"):
            SimConfig(dt=1e-300, horizon=1e10, n_paths=1, seed=1)
        with pytest.raises(ConfigError, match=r"horizon/dt must be < 2\*\*60"):
            SimConfig(dt=1.0, horizon=2.0 ** 60, n_paths=1, seed=1)
        top = SimConfig(dt=1.0, horizon=2.0 ** 60 - 1024, n_paths=1, seed=1)
        assert top.n_steps == 2 ** 60 - 1024

    @pytest.mark.parametrize("kw", [
        {"n_paths": 2.5}, {"n_paths": 3.0}, {"n_paths": True},
        {"seed": 1.5}, {"seed": "3"}, {"seed": math.nan}, {"seed": False},
        {"record_stride": 1.5}, {"record_stride": None},
    ])
    def test_integer_fields_must_be_integers(self, kw):
        # from_json converts 3.0 to 3; a library caller passes the value
        # as is, and a float or a bool is not a path count, seed or stride
        base = dict(dt=0.01, horizon=1.0, n_paths=10, seed=1)
        base.update(kw)
        with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be "
                           "an integer"):
            SimConfig(**base)

    def test_numpy_integer_fields(self):
        plain = SimConfig(dt=0.01, horizon=0.5, n_paths=3, seed=5,
                          record_stride=2)
        typed = SimConfig(dt=0.01, horizon=0.5, n_paths=np.int64(3),
                          seed=np.uint64(5), record_stride=np.int32(2))
        a = simulate_batch(params(), FLAT, plain, record=True)
        b = simulate_batch(params(), FLAT, typed, record=True)
        np.testing.assert_array_equal(a.rec_r, b.rec_r)
        np.testing.assert_array_equal(a.path_index, b.path_index)

    def test_numpy_scalar_configs_round_trip_through_json(self):
        # each field is stored as a Python number, so both configs write
        # JSON and read it back to the same simulation
        p = ModelParams(sigma=np.float32(0.2), beta=np.int64(0), gamma=1.0,
                        epsilon=0.01, lambda0=0.1)
        cfg = SimConfig(dt=np.float32(0.01), horizon=0.5,
                        n_paths=np.int64(3), seed=5)
        p2 = ModelParams.from_json(json.loads(json.dumps(p.to_json())))
        cfg2 = SimConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert (p2, cfg2) == (p, cfg)
        a = simulate_batch(p, FLAT, cfg, record=True)
        b = simulate_batch(p2, FLAT, cfg2, record=True)
        np.testing.assert_array_equal(a.rec_r, b.rec_r)
        np.testing.assert_array_equal(a.rec_y, b.rec_y)

    def test_threshold_must_clear_dynamics(self):
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=1, seed=1,
                        explosion_threshold=0.5)
        with pytest.raises(ConfigError, match="explosion_threshold"):
            simulate_batch(params(), FLAT, cfg, [0], record=True)

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_below_one_rejected(self, threads):
        cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=4, seed=1)
        with pytest.raises(ConfigError, match="threads"):
            simulate_batch(params(), FLAT, cfg, threads=threads)

    def test_json_round_trip(self):
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=5, seed=7,
                        explosion_threshold=1e7, record_stride=10)
        assert SimConfig.from_json(cfg.to_json()) == cfg
        with pytest.raises(ConfigError, match="unknown"):
            SimConfig.from_json({"dt": 0.01, "horizon": 1, "n_paths": 1,
                                 "seed": 0, "dtt": 2})


class TestDeterminism:
    def test_path_independent_of_batch(self):
        p = params(beta=0.05)
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=8, seed=42)
        batch = simulate_batch(p, FLAT, cfg, record=True)
        for i in [0, 3, 7]:
            single = simulate_batch(p, FLAT, cfg, [i], record=True)
            np.testing.assert_array_equal(single.rec_r[:, 0],
                                          batch.rec_r[:, i])
            np.testing.assert_array_equal(single.rec_y[:, 0],
                                          batch.rec_y[:, i])

    def test_launch_order_irrelevant(self):
        p = params()
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=4, seed=9)
        fwd = simulate_batch(p, FLAT, cfg, [0, 1, 2, 3], record=True)
        rev = simulate_batch(p, FLAT, cfg, [3, 2, 1, 0], record=True)
        np.testing.assert_array_equal(fwd.rec_r[:, 0], rev.rec_r[:, 3])
        np.testing.assert_array_equal(fwd.rec_r[:, 3], rev.rec_r[:, 0])

    def test_threads_start_no_thread(self, monkeypatch):
        # threads is checked and otherwise unused: the batch runs on the
        # calling thread and equals the threads=1 batch, field by field
        p = params(beta=0.02)
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=16, seed=5)
        one = simulate_batch(p, FLAT, cfg, record=True, want_discount=True)

        def refuse(self):
            raise AssertionError("simulate_batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        four = simulate_batch(p, FLAT, cfg, record=True, want_discount=True,
                              threads=4)
        assert _digest(four) == _digest(one)

    def test_same_seed_same_result(self):
        p = params()
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=3, seed=123)
        a = simulate_batch(p, FLAT, cfg, [1], record=True)
        b = simulate_batch(p, FLAT, cfg, [1], record=True)
        np.testing.assert_array_equal(samples(a), samples(b))

    def test_compaction_keeps_every_path(self):
        # deaths in several noise blocks; each path alone matches the batch
        p = params(sigma=0.5, beta=0.01)
        cfg = SimConfig(dt=0.02, horizon=50.0, n_paths=60, seed=61,
                        record_stride=7)
        order = np.random.default_rng(0).permutation(cfg.n_paths)
        batch = simulate_batch(p, FLAT, cfg, order, record=True,
                               want_discount=True, threads=2)
        block = np.floor(batch.tau_hat[batch.exploded]
                         / (eng._NOISE_BLOCK * cfg.dt))
        assert len(np.unique(block)) >= 2
        for pos in [0, 1, *np.flatnonzero(batch.exploded)[-3:],
                    *np.flatnonzero(~batch.exploded)[:2]]:
            one = simulate_batch(p, FLAT, cfg, [order[pos]], record=True,
                                 want_discount=True)
            for f in ("rec_r", "rec_y"):
                np.testing.assert_array_equal(getattr(one, f)[:, 0],
                                              getattr(batch, f)[:, pos])
            for f in ("tau_hat", "terminal_r", "terminal_y", "log_discount"):
                assert getattr(one, f)[0] == getattr(batch, f)[pos], f

    def test_chunk_and_block_boundaries(self, monkeypatch):
        # 7-path chunks and 512-step noise blocks cut through a shuffled
        # batch with repeated indices; every path must equal its lone run
        # and a scalar Euler loop on a fresh Philox(key=[seed, i]) stream
        monkeypatch.setattr(eng, "_CHUNK", 7)
        p = params(sigma=0.5, beta=0.01)
        cfg = SimConfig(dt=0.02, horizon=50.0, n_paths=40, seed=62,
                        record_stride=7)
        order = np.random.default_rng(1).permutation(cfg.n_paths)
        order = np.concatenate([order, order[:2], [5, 5]])
        lone = [simulate_batch(p, FLAT, cfg, [i], record=True,
                               want_discount=True) for i in order]
        for threads in (1, 2):
            batch = simulate_batch(p, FLAT, cfg, order, record=True,
                                   want_discount=True, threads=threads)
            died = np.floor(batch.tau_hat[batch.exploded]
                            / (eng._NOISE_BLOCK * cfg.dt))
            assert len(np.unique(died)) >= 2 and not batch.exploded.all()
            for pos, one in enumerate(lone):
                for f in ("rec_r", "rec_y"):
                    np.testing.assert_array_equal(getattr(one, f)[:, 0],
                                                  getattr(batch, f)[:, pos])
                for f in ("path_index", "exploded", "tau_hat", "terminal_r",
                          "terminal_y", "log_discount"):
                    assert getattr(one, f)[0] == getattr(batch, f)[pos], f
        for pos, i in enumerate(order):
            assert scalar_euler(p, FLAT, cfg, i) == (
                batch.tau_hat[pos], batch.terminal_r[pos],
                batch.terminal_y[pos], batch.log_discount[pos])

    def test_displaced_matches_scalar_recursion(self):
        # a displaced model on a tabulated curve steps its own rate: the
        # threshold applies to r, not r + displacement; gamma = 1, since
        # numpy's scalar and array pow may round differently
        p = params(sigma=0.5, beta=0.01, displacement=0.5)
        curve = ForwardCurve.tabulated([[0.0, 0.1], [5.0, 0.12], [20.0, 0.09]])
        cfg = SimConfig(dt=0.02, horizon=6.0, n_paths=40, seed=62,
                        explosion_threshold=1.0)
        batch = simulate_batch(p, curve, cfg, want_discount=True)
        assert 0 < batch.exploded.sum() < cfg.n_paths
        for i in range(cfg.n_paths):
            assert scalar_euler(p, curve, cfg, i) == (
                batch.tau_hat[i], batch.terminal_r[i], batch.terminal_y[i],
                batch.log_discount[i])

    def test_curve_bends_inside_later_blocks(self):
        # the slope changes inside the second and third 1024-step noise
        # blocks, so each block must read lambda and lambda' at its own
        # steps; every path equals the scalar Euler loop bit for bit
        p = params(sigma=0.3, beta=0.05)
        curve = ForwardCurve.tabulated([[0.0, 0.1], [15.0, 0.13],
                                        [25.0, 0.09], [40.0, 0.11]])
        cfg = SimConfig(dt=0.01, horizon=31.0, n_paths=12, seed=64)
        batch = simulate_batch(p, curve, cfg, want_discount=True)
        assert cfg.n_steps > 3 * eng._NOISE_BLOCK
        assert not batch.exploded.all()
        for i in range(cfg.n_paths):
            assert scalar_euler(p, curve, cfg, i) == (
                batch.tau_hat[i], batch.terminal_r[i], batch.terminal_y[i],
                batch.log_discount[i])

    @pytest.mark.parametrize("stage", [eng._NOISE_BLOCK, 10 ** 9],
                             ids=["one_path", "wider_than_chunk"])
    def test_stage_budgets(self, monkeypatch, stage):
        # a noise stage of one path row at a time, and one that holds a
        # whole chunk, fill the same columns
        monkeypatch.setattr(eng, "_STAGE", stage)
        self.test_chunk_and_block_boundaries(monkeypatch)

    def test_negative_index_rejected(self):
        cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=1, seed=1)
        with pytest.raises(ConfigError):
            simulate_batch(params(), FLAT, cfg, [-1])

    def test_empty_indices_rejected(self):
        # an empty batch has no explosion fraction and no survivors' mean
        cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=1, seed=1)
        with pytest.raises(ConfigError, match="empty"):
            simulate_batch(params(), FLAT, cfg, [])

    @pytest.mark.parametrize("indices", [
        [1.7], [1.0], [True], ["1"], [2 ** 63], [2 ** 64], [0, 2 ** 70],
        [-1, 2 ** 63], [[0, 1]], 3,
    ])
    def test_non_integer_indices_rejected(self, indices):
        # 1.7 ran path 1, 2**63 raised OverflowError, and a nested list or
        # a bare integer a TypeError from inside the kernel
        cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=1, seed=1)
        with pytest.raises(ConfigError, match=r"integers in \[0, 2\*\*63\)"):
            simulate_batch(params(), FLAT, cfg, indices)

    def test_numpy_integer_indices(self):
        cfg = SimConfig(dt=0.01, horizon=0.5, n_paths=1, seed=1)
        ref = simulate_batch(params(), FLAT, cfg, [2, 2 ** 63 - 1, 0],
                             record=True)
        for idx in (np.array([2, 2 ** 63 - 1, 0], dtype=np.uint64),
                    np.array([2, 2 ** 63 - 1, 0], dtype=np.int64)):
            got = simulate_batch(params(), FLAT, cfg, idx, record=True)
            np.testing.assert_array_equal(got.path_index, ref.path_index)
            np.testing.assert_array_equal(got.rec_r, ref.rec_r)

    def test_displaced_equals_shifted_lognormal(self):
        # the displaced model is the undisplaced one on the shifted curve,
        # with r shifted back: equal to the rounding of the shift
        a = 0.03
        disp = params(displacement=a, beta=0.04)
        shifted = params(lambda0=0.1 + a, beta=0.04)
        curve_shifted = ForwardCurve.flat(0.1 + a)
        cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=4, seed=77)
        b1 = simulate_batch(disp, FLAT, cfg, record=True)
        b2 = simulate_batch(shifted, curve_shifted, cfg, record=True)
        np.testing.assert_array_equal(b1.exploded, b2.exploded)
        np.testing.assert_array_equal(b1.tau_hat, b2.tau_hat)
        np.testing.assert_allclose(b1.rec_r, b2.rec_r - a, rtol=1e-13)
        np.testing.assert_allclose(b1.rec_y, b2.rec_y, rtol=1e-13)


def _digest(batch):
    """sha256 over every BatchPaths field: name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for f in dataclasses.fields(batch):
        v = getattr(batch, f.name)
        h.update(f.name.encode())
        if v is not None:
            a = np.ascontiguousarray(v)
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


class TestGolden:
    """Pinned digests of whole batches. A tolerance test cannot see a
    flipped sign of zero or a reordered rounding; these can. The digests
    depend on numpy's pow kernels for gamma < 1, so a platform whose pow
    rounds differently needs them recomputed from a trusted commit."""

    @pytest.mark.parametrize("p, curve, cfg, digest", [
        (params(sigma=1.5, beta=1.0), FLAT,
         SimConfig(dt=0.1, horizon=120.0, n_paths=30, seed=81,
                   record_stride=4),
         "8ea27558075310e5dada1f98e897b1064c325c04171b08b5d035277df1cf6d98"),
        (params(sigma=0.4, beta=0.02, gamma=0.75, displacement=0.02,
                vol_cap=0.3),
         ForwardCurve.tabulated([[0.0, 0.1], [5.0, 0.12], [20.0, 0.09]]),
         SimConfig(dt=0.01, horizon=12.0, n_paths=25, seed=82,
                   record_stride=6),
         "201f281140652bd84ce18c12c57e918ef40cf5baf0f7a8dd3a3a3bd0366dd111"),
        (params(sigma=0.3, gamma=0.5), FLAT,
         SimConfig(dt=0.01, horizon=11.0, n_paths=25, seed=83,
                   record_stride=5, explosion_threshold=1e8),
         "bf13a8be62a6772f59ef6c415a920216de7ccd3d7824523eae809185a882bf51"),
    ], ids=["gamma1", "gamma075_displaced_capped_tabulated", "gamma_half"])
    def test_batch_digest(self, p, curve, cfg, digest):
        batch = simulate_batch(p, curve, cfg, record=True, want_discount=True)
        assert _digest(batch) == digest

    def test_pricing_shaped_digest(self, monkeypatch):
        # criterion 10's shape: one 365-step block and the discount, over
        # chunks of 12, 13, 12 and 13 paths that share one worker's buffers
        monkeypatch.setattr(eng, "_CHUNK", 16)
        cfg = SimConfig(dt=1.0 / 365.0, horizon=1.0, n_paths=50, seed=84)
        batch = simulate_batch(params(beta=0.2), FLAT, cfg, want_discount=True)
        assert _digest(batch) == (
            "845c99453c5bdd0f7d31ac094c799d695ff93502695903e743905632d8912a34")


class TestBlockCompaction:
    """A path that dies idles at (lambda0, 0) until its noise block ends,
    masked out of the records and the exits; the live set is compacted
    at the next block's start."""

    def check_paths(self, p, cfg, order, batch):
        """Every path of batch equals its lone run and scalar_euler, and
        its recorded rows are finite up to tau_hat and NaN after it."""
        for pos, i in enumerate(order):
            one = simulate_batch(p, FLAT, cfg, [i], record=True,
                                 want_discount=True)
            for f in ("rec_r", "rec_y"):
                np.testing.assert_array_equal(getattr(one, f)[:, 0],
                                              getattr(batch, f)[:, pos])
            for f in ("exploded", "tau_hat", "terminal_r", "terminal_y",
                      "log_discount"):
                assert getattr(one, f)[0] == getattr(batch, f)[pos], f
            assert scalar_euler(p, FLAT, cfg, i) == (
                batch.tau_hat[pos], batch.terminal_r[pos],
                batch.terminal_y[pos], batch.log_discount[pos])
            lived = batch.record_times <= batch.tau_hat[pos]
            for rec in (batch.rec_r[:, pos], batch.rec_y[:, pos]):
                assert np.all(np.isfinite(rec[lived]))
                assert np.all(np.isnan(rec[~lived]))

    @staticmethod
    def crosses_while_idle(p, cfg, i, tau):
        """Whether path i, dead at tau, crosses the threshold again from
        (lambda0, 0) on its own noise before its block ends."""
        k_dead = int(round(tau / cfg.dt))
        end = min(cfg.n_steps, (k_dead // eng._NOISE_BLOCK + 1)
                  * eng._NOISE_BLOCK)
        z = np.random.Generator(np.random.Philox(
            key=[cfg.seed, i])).standard_normal(end)
        r, y = FLAT.lambda0, 0.0
        for k in range(k_dead + 1, end):
            t = k * cfg.dt
            mu_r, mu_y, sr = coefficients(r, y, FLAT.value(t), FLAT.slope(t),
                                          p)
            r, y = (r + mu_r * cfg.dt + sr * math.sqrt(cfg.dt) * z[k],
                    max(y + mu_y * cfg.dt, 0.0))
            if not (r < cfg.explosion_threshold
                    and y < cfg.explosion_threshold):
                return True
        return False

    def test_dead_paths_that_cross_again_stay_dead(self):
        # sigma 3 with the threshold at 10 lambda0: idle dead paths cross
        # the threshold again inside their block
        p = params(sigma=3.0)
        cfg = SimConfig(dt=0.01, horizon=25.0, n_paths=40, seed=71,
                        explosion_threshold=1.0, record_stride=3)
        order = np.random.default_rng(2).permutation(cfg.n_paths)
        batch = simulate_batch(p, FLAT, cfg, order, record=True,
                               want_discount=True)
        again = [self.crosses_while_idle(p, cfg, i, t) for i, t in
                 zip(order[batch.exploded], batch.tau_hat[batch.exploded])]
        assert sum(again) >= 3 and not batch.exploded.all()
        self.check_paths(p, cfg, order, batch)

    def test_block_in_which_every_path_dies(self):
        # subsets whose paths all die in the first block, and in the second
        p = params(sigma=3.0)
        cfg = SimConfig(dt=0.01, horizon=25.0, n_paths=60, seed=72,
                        explosion_threshold=1.0, record_stride=5)
        full = simulate_batch(p, FLAT, cfg)
        block = np.where(full.exploded, np.floor(
            full.tau_hat / (eng._NOISE_BLOCK * cfg.dt)), -1)
        for b in (0, 1):
            order = np.flatnonzero(block == b)[:6]
            assert len(order) >= 2
            batch = simulate_batch(p, FLAT, cfg, order, record=True,
                                   want_discount=True)
            assert batch.exploded.all()
            self.check_paths(p, cfg, order, batch)

    def test_deaths_on_first_and_last_step_of_a_block(self, monkeypatch):
        monkeypatch.setattr(eng, "_NOISE_BLOCK", 16)
        p = params(sigma=3.0)
        cfg = SimConfig(dt=0.01, horizon=20.0, n_paths=120, seed=73,
                        explosion_threshold=1.0, record_stride=4)
        full = simulate_batch(p, FLAT, cfg)
        step = np.round(full.tau_hat[full.exploded] / cfg.dt).astype(int)
        first = np.flatnonzero(full.exploded)[step % 16 == 0][:3]
        last = np.flatnonzero(full.exploded)[step % 16 == 15][:3]
        assert len(first) and len(last)
        order = np.concatenate([first, last, np.flatnonzero(~full.exploded)[:2]])
        batch = simulate_batch(p, FLAT, cfg, order, record=True,
                               want_discount=True)
        self.check_paths(p, cfg, order, batch)


class TestScheme:
    def test_record_stride(self):
        p = params()
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=1, seed=2,
                        record_stride=25)
        res = simulate_batch(p, FLAT, cfg, [0], record=True)
        np.testing.assert_allclose(samples(res)[:, 0],
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_positivity(self):
        p = params(gamma=0.6, beta=0.1)
        cfg = SimConfig(dt=0.01, horizon=5.0, n_paths=20, seed=3)
        batch = simulate_batch(p, FLAT, cfg, record=True)
        assert np.nanmin(batch.rec_r) > 0.0
        assert np.nanmin(batch.rec_y) >= 0.0

    def test_y_recursion_is_riemann_sum_without_mean_reversion(self):
        # beta = 0: y_n accumulates sigma_r(r_j)^2 dt exactly
        p = params()
        cfg = SimConfig(dt=0.01, horizon=2.0, n_paths=1, seed=11)
        res = simulate_batch(p, FLAT, cfg, [0], record=True)
        t, r, y = samples(res).T
        acc = 0.0
        for j in range(len(r) - 1):
            sr = sigma_r(r[j], p)
            acc += (sr * sr - 2.0 * p.beta * y[j]) * cfg.dt
        assert acc == pytest.approx(y[-1], rel=1e-12)

    def test_y_recursion_matches_discounted_riemann_sum(self):
        # beta > 0: the recursion equals the (1 - 2 beta dt)-kernel sum to
        # rounding, and the exp(-2 beta dt) kernel to O(dt^2 * n)
        p = params(beta=0.1)
        cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=1, seed=13)
        res = simulate_batch(p, FLAT, cfg, [0], record=True)
        _, r, y = samples(res).T
        n = len(r) - 1
        lin, expk = 0.0, 0.0
        fac_lin = 1.0 - 2.0 * p.beta * cfg.dt
        fac_exp = math.exp(-2.0 * p.beta * cfg.dt)
        for j in range(n):
            sr2 = sigma_r(r[j], p) ** 2
            lin = lin * fac_lin + sr2 * cfg.dt
            expk = expk * fac_exp + sr2 * cfg.dt
        assert y[-1] == pytest.approx(lin, rel=1e-10)
        assert y[-1] == pytest.approx(expk, rel=4.0 * p.beta ** 2 * cfg.dt
                                      * cfg.horizon + 1e-10)

    def test_small_noise_tracks_ode(self):
        p = params(sigma=1e-12, beta=0.1)
        curve = ForwardCurve.tabulated([[0.0, 0.10], [2.0, 0.13], [5.0, 0.11]])
        cfg = SimConfig(dt=0.01, horizon=5.0, n_paths=1, seed=1,
                        record_stride=50)
        t, r, _ = samples(simulate_batch(p, curve, cfg, [0], record=True)).T
        ode = ode_integrate(params(sigma=1e-12, beta=0.1), curve, 5.0,
                            tol=1e-12)
        r_ode = np.interp(t, ode.trace[:, 0], ode.trace[:, 1])
        # explicit Euler carries O(dt) global error
        np.testing.assert_allclose(r, r_ode, rtol=5e-3)

    def test_halving_dt_moves_mean_by_order_dt(self):
        p = params(beta=0.5)
        means = {}
        for dt in (0.08, 0.04, 0.02):
            cfg = SimConfig(dt=dt, horizon=4.0, n_paths=4000, seed=21)
            batch = simulate_batch(p, FLAT, cfg)
            means[dt] = batch.terminal_r[~batch.exploded].mean()
        assert abs(means[0.08] - means[0.04]) < 0.5 * 0.08
        assert abs(means[0.04] - means[0.02]) < 0.5 * 0.04


class TestExplosion:
    def explosive(self):
        # strong volatility pulls the blow-up inside a short horizon
        return params(sigma=0.5), SimConfig(dt=0.02, horizon=30.0,
                                            n_paths=300, seed=31)

    def test_explosions_detected(self):
        p, cfg = self.explosive()
        batch = simulate_batch(p, FLAT, cfg)
        frac = batch.exploded.mean()
        assert frac > 0.5
        tmax = batch.tau_hat[batch.exploded]
        assert tmax.max() <= cfg.horizon
        assert tmax.min() > 0.0

    def test_exploded_paths_stop_recording(self):
        p, cfg = self.explosive()
        res = None
        batch = simulate_batch(p, FLAT, cfg)
        idx = int(np.flatnonzero(batch.exploded)[0])
        res = simulate_batch(p, FLAT, cfg, [idx], record=True)
        rows = samples(res)
        assert res.exploded[0]
        assert res.tau_hat[0] <= cfg.horizon
        assert np.all(rows[:, 0] <= res.tau_hat[0])
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 1:] < cfg.explosion_threshold)

    def test_probability_estimator(self):
        p, cfg = self.explosive()
        batch = simulate_batch(p, FLAT, cfg)
        est = explosion_probability(batch, 30.0)
        assert est.mean > 0.5
        assert est.n == 300
        assert est.n_exploded == round(est.mean * est.n)
        assert est.std_error == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.n))
        early = explosion_probability(batch, 5.0)
        assert early.mean <= est.mean

    def test_single_quiet_path(self):
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=1, seed=4)
        est = explosion_probability(simulate_batch(params(), FLAT, cfg), 1.0)
        assert est.mean == 0.0 and est.n_exploded == 0

    def test_t_larger_than_horizon_rejected(self):
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=1, seed=4)
        with pytest.raises(ConfigError):
            explosion_probability(simulate_batch(params(), FLAT, cfg), 2.0)

    def test_t_past_last_step_rejected(self):
        # 333 steps of 0.003 end at 0.999: T in (0.999, 1.0] was never simulated
        cfg = SimConfig(dt=0.003, horizon=1.0, n_paths=1, seed=4)
        batch = simulate_batch(params(), FLAT, cfg)
        assert batch.t_end < 1.0
        assert explosion_probability(batch, batch.t_end).n == 1
        for T in (1.0, math.nextafter(batch.t_end, 2.0), -0.5):
            with pytest.raises(ConfigError, match="outside"):
                explosion_probability(batch, T)

    def test_mean_reversion_orders_explosion_fractions(self):
        # common random numbers: same seed reuses the same noise per path
        cfg = SimConfig(dt=0.02, horizon=30.0, n_paths=400, seed=55)
        free = simulate_batch(params(sigma=0.5, beta=0.0), FLAT, cfg)
        damped = simulate_batch(params(sigma=0.5, beta=0.05), FLAT, cfg)
        for T in (10.0, 20.0, 30.0):
            f0 = (free.tau_hat <= T).mean()
            fb = (damped.tau_hat <= T).mean()
            se = math.sqrt(max(f0 * (1 - f0), 1e-9) / cfg.n_paths)
            assert fb <= f0 + 2.0 * se


class TestClopperPearson:
    @pytest.mark.parametrize("hits, n", [
        (0, 1), (0, 10000), (1, 10000), (10, 10000), (3, 7), (128, 10000),
        (5860, 10000), (9999, 10000), (50000, 100000), (2, 2 ** 40)])
    def test_matches_beta_quantile(self, hits, n):
        beta = pytest.importorskip("scipy.stats").beta
        assert eng.clopper_pearson_upper95(hits, n) == pytest.approx(
            beta.ppf(0.95, hits + 1, n - hits), rel=1e-10)

    def test_zero_and_all_hits(self):
        assert eng.clopper_pearson_upper95(0, 10000) == pytest.approx(
            1.0 - 0.05 ** (1.0 / 10000), rel=1e-14)
        assert eng.clopper_pearson_upper95(0, 10000) == pytest.approx(
            3.0e-4, rel=2e-3)
        assert eng.clopper_pearson_upper95(7, 7) == 1.0

    @pytest.mark.parametrize("hits, n", [(5, 3), (2, 0), (-1, 10)])
    def test_counts_outside_domain_rejected(self, hits, n):
        with pytest.raises(DomainError, match=f"hits={hits} n={n}"):
            eng.clopper_pearson_upper95(hits, n)


class TestExpectation:
    def test_constant_payoff(self):
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=50, seed=6)
        est = expectation_functional(simulate_batch(params(), FLAT, cfg),
                                     lambda r, y: 1.0)
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert not est.diverged

    def test_small_noise_terminal_matches_ode(self):
        p = params(sigma=1e-10, beta=0.1)
        cfg = SimConfig(dt=0.005, horizon=3.0, n_paths=16, seed=8)
        est = expectation_functional(simulate_batch(p, FLAT, cfg),
                                     lambda r, y: r)
        ode = ode_integrate(p, FLAT, 3.0, tol=1e-12)
        assert est.mean == pytest.approx(ode.terminal[0],
                                         abs=3 * est.std_error + 2e-3 * 0.005)

    def test_diverge_flags_explosions(self):
        p = params(sigma=0.5)
        cfg = SimConfig(dt=0.02, horizon=30.0, n_paths=100, seed=14)
        est = expectation_functional(simulate_batch(p, FLAT, cfg),
                                     lambda r, y: r)
        assert est.diverged
        assert est.n_exploded > 0
        assert math.isfinite(est.mean)

    def test_no_survivor_gives_diverged_nan(self):
        # threshold low enough that these four paths all cross it
        p = params(sigma=1.0)
        cfg = SimConfig(dt=0.01, horizon=40.0, n_paths=4, seed=15,
                        explosion_threshold=1.0)
        est = expectation_functional(simulate_batch(p, FLAT, cfg),
                                     lambda r, y: r)
        assert est.diverged
        assert est.n == est.n_exploded == 4
        assert math.isnan(est.mean) and math.isnan(est.std_error)

    def test_discount_factors(self):
        p = params(beta=0.3)
        cfg = SimConfig(dt=0.005, horizon=2.0, n_paths=64, seed=16)
        batch = simulate_batch(p, FLAT, dataclasses.replace(cfg, horizon=1.0),
                               want_discount=True)
        dfs = pathwise_discount_factors(batch)
        assert not batch.exploded.any()
        assert np.all((dfs > 0.8) & (dfs < 1.0))

    def test_discount_factors_need_want_discount(self):
        cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=4, seed=16)
        batch = simulate_batch(params(), FLAT, cfg)
        for estimator in (pathwise_discount_factors, discount_estimate):
            with pytest.raises(ValueError, match="without want_discount"):
                estimator(batch)


@pytest.fixture()
def mappings(monkeypatch):
    """(size, mapping) of every anonymous mapping the engine makes: the
    noise blocks live there, where tracemalloc cannot see them."""
    made, real = [], mmap.mmap

    def mapping(fileno, length, *args, **kwargs):
        made.append((length, real(fileno, length, *args, **kwargs)))
        return made[-1][1]

    monkeypatch.setattr(mmap, "mmap", mapping)
    return made


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="VmHWM of /proc/self/status")


def child_peaks(body: str) -> list:
    """VmHWM in KiB at each peaks.append(peak_kib()) of body, run in a fresh
    interpreter with the flat model p (sigma 0.2, beta 0) and its curve.
    The peak is VmHWM, not ru_maxrss: exec carries the spawning process's
    peak into the child's ru_maxrss, so pytest's would show."""
    code = textwrap.dedent("""
        from qghjm import ForwardCurve, ModelParams, SimConfig, simulate_batch
        def peak_kib():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:"))
        p = ModelParams(sigma=0.2, beta=0.0, gamma=1.0, epsilon=0.01,
                        lambda0=0.1)
        curve = ForwardCurve.flat(0.1)
        peaks = []
    """) + textwrap.dedent(body) + "print(*peaks)\n"
    src = os.path.dirname(os.path.dirname(qghjm.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    return [int(v) for v in out.split()]


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_noise_buffer_sized_to_steps(self, mappings):
        # a one-step run must not hold a full noise block per path
        cfg = SimConfig(dt=0.01, horizon=0.01, n_paths=5000, seed=18)
        peak = traced_peak(lambda: simulate_batch(params(), FLAT, cfg))
        mapped = sum(size for size, _ in mappings)
        assert mappings and mapped < 10e6
        assert peak < 10e6

    def test_curve_read_per_block(self):
        # the kernel asks the curve for one noise block of times at most,
        # so its memory does not grow with the step count; together the
        # blocks ask for each step's left edge once, in order
        asked = []

        class Recording(ForwardCurve):
            def value(self, t):
                asked.append(np.array(t, ndmin=1))
                return super().value(t)

        curve = Recording([[0.0, 0.1], [15.0, 0.13], [25.0, 0.09]])
        cfg = SimConfig(dt=0.01, horizon=30.0, n_paths=3, seed=63)
        simulate_batch(params(beta=0.05), curve, cfg)
        assert max(len(t) for t in asked) <= eng._NOISE_BLOCK
        np.testing.assert_array_equal(np.concatenate(asked),
                                      cfg.dt * np.arange(cfg.n_steps))

    def test_wide_batch_noise_is_chunked(self, mappings):
        # the noise block spans one path chunk, not the whole batch
        cfg = SimConfig(dt=1.0 / 365.0, horizon=1.0, n_paths=40000, seed=18)
        peak = traced_peak(
            lambda: simulate_batch(params(), FLAT, cfg, want_discount=True))
        mapped = sum(size for size, _ in mappings)
        assert mappings and mapped < 60e6
        assert peak < 60e6

    def test_noise_block_unmapped_on_return_and_on_error(self, mappings,
                                                         monkeypatch):
        # one mapping per call, whatever threads is
        cfg = SimConfig(dt=0.01, horizon=0.05, n_paths=30, seed=18)
        for threads in (1, 2):
            simulate_batch(params(), FLAT, cfg, threads=threads)
        assert len(mappings) == 2 and all(m.closed for _, m in mappings)

        def fail(*args, **kwargs):
            raise ZeroDivisionError("in the step")

        # the step's own error comes out, not the mapping's BufferError
        monkeypatch.setattr(eng, "coefficients", fail)
        with pytest.raises(ZeroDivisionError, match="in the step"):
            simulate_batch(params(), FLAT, cfg)
        assert len(mappings) == 3 and mappings[-1][1].closed

    def test_one_generator_per_chunk_column(self, monkeypatch):
        # a one-block run re-keys one Philox generator per path; a run of
        # several blocks keeps one per chunk column, reused by every chunk
        built, real = [], np.random.Philox

        def counting(*args, **kwargs):
            built.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        cfg = SimConfig(dt=0.01, horizon=5.12, n_paths=5000, seed=18)
        assert cfg.n_steps == eng._NOISE_BLOCK
        simulate_batch(params(), FLAT, cfg)
        assert len(built) <= 1
        monkeypatch.setattr(eng, "_CHUNK", 7)
        cfg = SimConfig(dt=0.01, horizon=12.0, n_paths=40, seed=18)
        assert cfg.n_steps > 2 * eng._NOISE_BLOCK
        built.clear()
        simulate_batch(params(), FLAT, cfg)
        assert len(built) <= 7

    def test_noise_block_by_chunk_width(self, mappings):
        # the noise mapping is one block by the widest chunk: 10000 paths
        # of three blocks run as two chunks of 5000
        cfg = SimConfig(dt=0.01, horizon=15.0, n_paths=10000, seed=18)
        simulate_batch(params(), FLAT, cfg)
        assert [m for m, _ in mappings] == [8 * 512 * 5000]

    @linux_only
    def test_back_to_back_calls_do_not_ratchet_rss(self):
        # 12000 paths, two chunks of 6000: noise blocks of 365 and 274
        # steps are 17.5 MB and 13.2 MB; from the heap, where glibc's mmap
        # threshold rises to the larger once it is freed, the smaller one
        # would stay resident under the larger.
        first, last = child_peaks("""
            for _ in range(3):
                for horizon in (1.0, 0.75):
                    simulate_batch(p, curve, SimConfig(
                        dt=1 / 365, horizon=horizon, n_paths=12000, seed=5))
                peaks.append(peak_kib())
        """)[::2]
        assert last - first < 5 * 1024  # KiB

    @linux_only
    def test_multi_block_noise_memory(self):
        # after a one-step warm-up, 1500 steps of 10000 paths: two chunks
        # of 5000, each with noise blocks of 512 steps, 20.5 MB, and the
        # state of each path in its column's generator, about 6 MB for the
        # 5000
        first, last = child_peaks("""
            for horizon in (0.01, 15.0):
                simulate_batch(p, curve, SimConfig(
                    dt=0.01, horizon=horizon, n_paths=10000, seed=5))
                peaks.append(peak_kib())
        """)
        assert last - first < 30e6 / 1024  # KiB


class TestCsv:
    def test_schema_and_reproducibility(self):
        p = params(sigma=0.5)
        cfg = SimConfig(dt=0.02, horizon=10.0, n_paths=5, seed=17,
                        record_stride=100)
        texts = []
        for _ in range(2):
            batch = simulate_batch(p, FLAT, cfg, record=True)
            buf_p, buf_e = io.StringIO(), io.StringIO()
            write_paths_csv(batch, buf_p)
            write_explosions_csv(batch, buf_e)
            texts.append((buf_p.getvalue(), buf_e.getvalue()))
        assert texts[0] == texts[1]
        lines = texts[0][0].splitlines()
        assert lines[0] == "path_index,t,r,y"
        assert len(lines[0].split(",")) == 4
        elines = texts[0][1].splitlines()
        assert elines[0] == "path_index,exploded,tau_hat"
        assert len(elines) == 6

    def test_bytes_match_per_row_format(self):
        # the per-row f-strings that wrote these files before, as reference
        def reference(batch):
            paths = ["path_index,t,r,y\n"]
            for col, pi in enumerate(batch.path_index):
                alive = ~np.isnan(batch.rec_r[:, col])
                for t, r, y in zip(batch.record_times[alive],
                                   batch.rec_r[alive, col],
                                   batch.rec_y[alive, col]):
                    paths.append(f"{int(pi)},{t:.17g},{r:.17g},{y:.17g}\n")
            expl = ["path_index,exploded,tau_hat\n"]
            for pi, ex, tau in zip(batch.path_index, batch.exploded,
                                   batch.tau_hat):
                expl.append(f"{int(pi)},{int(ex)},{tau:.17g}\n")
            return "".join(paths), "".join(expl)

        cfg = SimConfig(dt=0.02, horizon=30.0, n_paths=40, seed=19,
                        record_stride=9)
        for p in (params(sigma=0.5), params(sigma=0.5, displacement=0.02)):
            batch = simulate_batch(p, FLAT, cfg, [39, 3, 17, 0, 25, 8],
                                   record=True)
            assert batch.exploded.any() and not batch.exploded.all()
            buf_p, buf_e = io.StringIO(), io.StringIO()
            write_paths_csv(batch, buf_p)
            write_explosions_csv(batch, buf_e)
            assert (buf_p.getvalue(), buf_e.getvalue()) == reference(batch)

    def test_path_groups_keep_the_bytes(self, monkeypatch):
        cfg = SimConfig(dt=0.02, horizon=30.0, n_paths=40, seed=19,
                        record_stride=9)
        batch = simulate_batch(params(sigma=0.5), FLAT, cfg, record=True)
        assert batch.exploded.any() and not batch.exploded.all()
        texts = []
        for rows in (eng._CSV_ROWS, 1, 1000):  # 24, 1 and 5 paths per group
            monkeypatch.setattr(eng, "_CSV_ROWS", rows)
            buf = io.StringIO()
            write_paths_csv(batch, buf)
            texts.append(buf.getvalue())
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_paths_writer_memory_does_not_grow_with_paths(self):
        class Discard:
            def write(self, text):
                pass

        def writer_peak(n_paths):
            cfg = SimConfig(dt=0.1, horizon=20.0, n_paths=n_paths, seed=20,
                            record_stride=2)
            batch = simulate_batch(params(sigma=0.5), FLAT, cfg, record=True)
            return traced_peak(lambda: write_paths_csv(batch, Discard()))

        assert writer_peak(4000) < 1.2 * writer_peak(400)
