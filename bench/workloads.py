"""The three workloads: one pass of operations, and the checks of its outputs.

A pass returns its timings, its operation counts and the problems the
independent checks found. With a Tracer the same pass also records spans:
in-process for the library workloads, through bench/traced_cli.py for the
CLI subprocesses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import checks
import spans
from inputs import (BENCH_DIR, CLI_COMMANDS, OUT, build_inputs, child_env,
                    readme_config)

N_SAMPLED = 8  # paths per pass re-run by the scalar Euler reference


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    sim_s: float = 0.0        # time in the calls that simulate
    path_steps: int = 0       # alive path-steps of those calls
    peak_rss_mb: float = 0.0  # subprocess maximum (cli-readme only)
    ops: dict = field(default_factory=dict)     # operation -> seconds
    errors: list = field(default_factory=list)  # failed checks
    failures: list = field(default_factory=list)  # failed operations
    spans: list = field(default_factory=list)   # one span list per process
    files: dict = field(default_factory=dict)   # output file -> bytes


def _model(p) -> dict:
    return {k: getattr(p, k) for k in ("sigma", "beta", "gamma", "epsilon",
                                       "lambda0")}


# ---------------------------------------------------------------------------
# cli-readme


def _path_rows(blob: bytes, index: int) -> list:
    """(t, r, y) rows of one path from paths.csv, whose rows are grouped by
    path in index order."""
    key = b"\n%d," % index
    at = blob.find(key)
    rows = []
    while at >= 0:
        end = blob.find(b"\n", at + 1)
        line = blob[at + 1:end if end >= 0 else len(blob)]
        if not line.startswith(key[1:]):
            break
        rows.append(tuple(float(v) for v in line.split(b",")[1:]))
        at = end
    return rows


class CliReadme:
    """The README config through five fresh `qghjm` processes."""

    name = "cli-readme"
    default_seed = 1  # the README's

    def __init__(self, seed: int) -> None:
        self.cfg = readme_config(seed)
        self.dir = OUT / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2))
        m = self.cfg["model"]
        self.ode_ref = checks.ode_blowup_time(m["sigma"], m["beta"],
                                              m["lambda0"],
                                              self.cfg["ode"]["horizon"])
        sim = self.cfg["sim"]
        self.n_steps = int(round(sim["horizon"] / sim["dt"]))
        self.refs = {
            i: checks.scalar_euler(m, sim["dt"], self.n_steps, 1e6, seed, i,
                                   stride=sim["record_stride"])
            for i in checks.sample_indices(seed, sim["n_paths"], N_SAMPLED)}
        # price simulates every path up to T
        T = self.cfg["price"]["T"]
        self.price_ref = checks.euler_paths(
            m, sim["dt"], [int(round(T / sim["dt"]))], 1e6, seed,
            sim["n_paths"]).popitem()[1]

    def run_pass(self, tracer=None) -> Pass:
        ps = Pass()
        for cmd in CLI_COMMANDS:
            out = self.dir / cmd
            shutil.rmtree(out, ignore_errors=True)
            args = [cmd, "--config", str(self.cfg_path), "--out", str(out),
                    "--threads", "1"]
            span_file = self.dir / f"{cmd}.spans.json"
            if tracer is not None:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                        str(span_file), *args]
            else:
                argv = [sys.executable, "-m", "qghjm.cli", *args]
            with open(self.dir / f"{cmd}.log", "wb") as log:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, env=child_env(), stdout=log,
                                        stderr=subprocess.STDOUT,
                                        stdin=subprocess.DEVNULL)
                _, status, usage = os.wait4(proc.pid, 0)
                dt = time.perf_counter() - t0
            proc.returncode = rc = os.waitstatus_to_exitcode(status)
            ps.ops[f"{cmd}_cli_s"] = dt
            ps.wall_s += dt
            ps.attempted += 1
            ps.peak_rss_mb = max(ps.peak_rss_mb, usage.ru_maxrss / 1024.0)
            if rc != 0:
                ps.failed += 1
                ps.failures.append(f"{cmd} exited {rc}: "
                                 f"{(self.dir / f'{cmd}.log').read_text()[-400:]}")
                continue
            if tracer is not None:
                ps.spans.append(json.loads(span_file.read_text()))
            try:
                getattr(self, f"_check_{cmd}")(out, ps)
            except (OSError, ValueError, KeyError) as e:
                ps.errors.append(f"{cmd}: unreadable output: {e!r}")
        return ps

    def _check_simulate(self, out, ps: Pass) -> None:
        sim = self.cfg["sim"]
        ex = np.loadtxt(out / "explosions.csv", delimiter=",", skiprows=1,
                        ndmin=2)
        tau = ex[:, 2]
        if not np.array_equal(ex[:, 0], np.arange(sim["n_paths"])) \
                or not np.array_equal(ex[:, 1] == 1, np.isfinite(tau)):
            ps.errors.append("explosions.csv: indices or flags inconsistent")
            return
        summary = json.loads((out / "summary.json").read_text())
        if summary["n_exploded"] != int(np.isfinite(tau).sum()):
            ps.errors.append("summary.json n_exploded disagrees with "
                             "explosions.csv")
        blob = (out / "paths.csv").read_bytes()
        ps.files["paths.csv"] = len(blob)
        for i, ref in self.refs.items():
            what = f"simulate path {i}"
            rows = _path_rows(blob, i)
            ps.errors += checks.check_recorded(ref, rows, sim["dt"], what)
            if not tau[i] == ref.tau:
                ps.errors.append(f"{what}: tau_hat {tau[i]!r} != reference "
                                 f"{ref.tau!r}")
        ps.path_steps = checks.alive_path_steps(tau, sim["dt"], self.n_steps)
        ps.sim_s = ps.ops["simulate_cli_s"]

    def _check_price(self, out, ps: Pass) -> None:
        m, ref = self.cfg["model"], self.price_ref
        T, delta = self.cfg["price"]["T"], self.cfg["price"]["delta"]
        n_ref = int(ref.exploded.sum())
        fut = np.loadtxt(out / "futures.csv", delimiter=",", skiprows=1)
        _, _, est, se, n_exploded, diverged = fut
        ps.errors += checks.check_estimate(
            est, int(n_exploded), checks.futures_reference(ref, m, T, delta),
            n_ref, "price futures")
        ps.errors += checks.check_diverged(bool(diverged), int(n_exploded))
        ps.errors += checks.check_futures(est, se, m["lambda0"], delta)
        disc = np.loadtxt(out / "discount.csv", delimiter=",", skiprows=1)
        ps.errors += checks.check_estimate(
            disc[2], int(disc[4]), checks.discount_reference(ref), n_ref,
            "price discount check")
        ps.errors += checks.check_discount(disc[2], m["lambda0"], T)

    def _check_verify(self, out, ps: Pass) -> None:
        rep = json.loads((out / "verify.json").read_text())
        if rep["verification"]["violations"] != 0:
            ps.errors.append("verify.json reports violations")
        m = self.cfg["model"]
        if any(rep["model"][k] != v for k, v in m.items()):
            ps.errors.append(f"verify.json model {rep['model']} is not the "
                             f"config's {m}")
        ps.errors += checks.check_lyapunov(rep["spec"], m)

    def _check_region(self, out, ps: Pass) -> None:
        reg = self.cfg["region"]
        grid = np.linspace(reg["sigma"]["start"], reg["sigma"]["stop"],
                           reg["sigma"]["num"])
        for g in reg["gammas"]:
            rows = np.loadtxt(out / f"region_gamma_{float(g):g}.csv",
                              delimiter=",", skiprows=1, ndmin=2)
            ps.errors += checks.check_region(rows, g, grid)

    def _check_ode(self, out, ps: Pass) -> None:
        res = json.loads((out / "ode.json").read_text())
        ps.errors += checks.check_ode(res["exploded"], res["t_exp"],
                                      self.ode_ref)

    def probe_problem(self):
        """The simulate command's simulate_batch call, in-process."""
        import qghjm as q
        p = q.ModelParams.from_json(self.cfg["model"])
        cfg = q.SimConfig.from_json(self.cfg["sim"])
        return p, q.ForwardCurve.flat(p.lambda0), cfg, {"record": True}


# ---------------------------------------------------------------------------
# in-process workloads


class _InProcess:
    def __init__(self, seed: int) -> None:
        self.inp = build_inputs(self.name, seed)

    def _call(self, ps: Pass, op: str, fn, *args, **kwargs):
        ps.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # an operation that raises is counted as failed
            ps.failed += 1
            ps.failures.append(f"{op} raised:\n{traceback.format_exc()}")
            out = None
        dt = time.perf_counter() - t0
        ps.ops[op] = dt
        ps.wall_s += dt
        return out

    def run_pass(self, tracer=None) -> Pass:
        ps = Pass()
        restore = spans.install(tracer) if tracer is not None else None
        try:
            self._ops(ps)
        finally:
            if restore is not None:
                restore()
                ps.spans.append(tracer.spans)
        return ps


class DenseGammaHalf(_InProcess):
    """Criterion 6: gamma = 1/2, 10k paths x 5000 steps, no explosion."""

    name = "dense-gamma-half"
    default_seed = 7  # criterion 6's

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        cfg = self.inp["cfg"]
        self.n_steps = int(round(cfg.horizon / cfg.dt))
        self.refs = {
            i: checks.scalar_euler(_model(self.inp["p"]), cfg.dt, self.n_steps,
                                   cfg.explosion_threshold, seed, i)
            for i in checks.sample_indices(seed, cfg.n_paths, N_SAMPLED)}

    def _ops(self, ps: Pass) -> None:
        import qghjm as q
        p, curve, cfg = self.inp["p"], self.inp["curve"], self.inp["cfg"]
        b = self._call(ps, "simulate_batch_s", q.simulate_batch, p, curve,
                       cfg, threads=1)
        if b is None:
            return
        ps.sim_s = ps.ops["simulate_batch_s"]
        ps.path_steps = checks.alive_path_steps(b.tau_hat, cfg.dt, self.n_steps)
        n_expl = int(np.count_nonzero(b.exploded))
        if n_expl:
            ps.errors.append(f"gamma = 1/2: {n_expl} paths exploded")
        ps.errors += checks.check_means(b.terminal_r, b.terminal_y, p.sigma,
                                        p.lambda0, cfg.dt, self.n_steps)
        for i, ref in self.refs.items():
            ps.errors += checks.check_path(ref, b.tau_hat[i], b.terminal_r[i],
                                           b.terminal_y[i], f"path {i}")

    def probe_problem(self):
        return self.inp["p"], self.inp["curve"], self.inp["cfg"], {}


class PricingDiscount(_InProcess):
    """Criterion 10: the discount check, futures on the same config, and the
    explosion-regime futures call."""

    name = "pricing-discount"
    default_seed = 99  # criterion 10's

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        inp = self.inp
        cfg, m = inp["cfg"], _model(inp["p"])
        steps = {T: int(round(T / cfg.dt)) for T in (inp["T"], inp["futures_T"])}
        ref = checks.euler_paths(m, cfg.dt, list(steps.values()),
                                 cfg.explosion_threshold, seed, cfg.n_paths)
        ps_T, ps_fut = ref[steps[inp["T"]]], ref[steps[inp["futures_T"]]]
        # op -> (reference mean, reference exploded count)
        self.refs = {
            "discount_check_s": (checks.discount_reference(ps_T),
                                 int(ps_T.exploded.sum())),
            "futures_s": (checks.futures_reference(ps_fut, m, inp["futures_T"],
                                                   inp["delta"]),
                          int(ps_fut.exploded.sum())),
        }
        if ps_T.exploded.any():  # path_steps counts every step of every path
            raise SystemExit(f"{self.name}: reference paths explode at beta "
                             f"{m['beta']}")
        cfg, m = inp["cfg_expl"], _model(inp["p_expl"])
        n_steps = int(round(inp["expl_T"] / cfg.dt))
        ps_x = checks.euler_paths(m, cfg.dt, [n_steps],
                                  cfg.explosion_threshold, seed,
                                  cfg.n_paths)[n_steps]
        self.refs["explosion_futures_s"] = (
            checks.futures_reference(ps_x, m, inp["expl_T"], inp["expl_delta"]),
            int(ps_x.exploded.sum()))

    def _ops(self, ps: Pass) -> None:
        import qghjm as q
        inp = self.inp
        p, curve, cfg = inp["p"], inp["curve"], inp["cfg"]
        lam = p.lambda0
        chk = self._call(ps, "discount_check_s", q.discount_consistency_check,
                         p, curve, cfg, inp["T"], threads=1)
        fut = self._call(ps, "futures_s", q.eurodollar_futures, p, curve, cfg,
                         inp["futures_T"], inp["delta"], threads=1)
        fx = self._call(ps, "explosion_futures_s", q.eurodollar_futures,
                        inp["p_expl"], curve, inp["cfg_expl"], inp["expl_T"],
                        inp["expl_delta"], threads=1)
        # beta = 0.2 over at most a year cannot reach the 1e6 threshold (the
        # references count no explosion), so both big calls simulate every
        # path for every step
        for op, est, T in (("discount_check_s", chk, inp["T"]),
                           ("futures_s", fut, inp["futures_T"])):
            if est is None:
                continue
            ps.sim_s += ps.ops[op]
            ps.path_steps += est.n * int(round(T / cfg.dt))
        for op, est in (("discount_check_s", chk), ("futures_s", fut),
                        ("explosion_futures_s", fx)):
            if est is not None:
                ref_mean, ref_exploded = self.refs[op]
                ps.errors += checks.check_estimate(
                    est.mean, est.n_exploded, ref_mean, ref_exploded, op)
                ps.errors += checks.check_diverged(est.diverged, est.n_exploded)
        if chk is not None:
            ps.errors += checks.check_discount(chk.mean, lam, inp["T"])
        if fut is not None:
            ps.errors += checks.check_futures(fut.mean, fut.std_error, lam,
                                              inp["delta"])

    def probe_problem(self):
        inp = self.inp
        return (inp["p"], inp["curve"], replace(inp["cfg"], horizon=inp["T"]),
                {"want_discount": True})


WORKLOADS = {w.name: w for w in (CliReadme, DenseGammaHalf, PricingDiscount)}
