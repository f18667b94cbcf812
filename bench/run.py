"""qghjm benchmark: three workloads, checked outputs, optional per-layer trace.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

One invocation runs one workload in this fresh, single-threaded process
(`all`, the default, runs each workload in a child process of its own).
It repeats whole passes of the workload's operations until S seconds of
passes are measured (S defaults to run_seconds of BENCHMARK.json), times
the set-up in fresh processes between the passes, checks every pass's
outputs against bench/checks.py, and prints each metric by name with its
unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end list of BENCHMARK.json, with --trace 1 its per_layer
list. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import (CLI_COMMANDS, OUT, ROOT, THREAD_ENV,  # noqa: E402
                    child_env, use_checkout_src)

os.environ.update(THREAD_ENV)  # before numpy is imported
use_checkout_src()

import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from statistics import median  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_MIN = 7       # set-up probes per run, at least
SETUP_SHARE = 0.35  # set-up probe time per second of measured passes
PROBE_REPEATS = 3


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=child_env(), capture_output=True,
                          text=True, check=True, stdin=subprocess.DEVNULL)


class SetupProbe:
    """Wall times of fresh processes that import qghjm and build the
    workload's inputs. The probes are spread over the run, between its
    passes, so that their median sees the same machine load as wall_s."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable,
                     os.path.join(os.path.dirname(__file__), "setup_probe.py"),
                     workload, str(seed)]
        self.times: list = []
        _child(self.argv)  # untimed: fills the file caches

    def probe(self) -> None:
        t0 = time.perf_counter()
        _child(self.argv)
        self.times.append(time.perf_counter() - t0)

    def keep_up(self, measured: float) -> None:
        """Probe until the probes' time is SETUP_SHARE of `measured`."""
        while sum(self.times) < SETUP_SHARE * measured:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_MIN:
            self.probe()
        return median(self.times)


def import_seconds() -> tuple[float, float]:
    """Cumulative import time of qghjm.cli and of scipy.integrate within it,
    from `python -X importtime`, median of PROBE_REPEATS fresh processes."""
    cli, integ = [], []
    for _ in range(PROBE_REPEATS):
        err = _child([sys.executable, "-X", "importtime", "-c",
                      "import qghjm.cli"]).stderr
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3:
                found.setdefault(parts[2].strip(), parts[1].strip())
        cli.append(int(found["qghjm.cli"]) * 1e-6)
        integ.append(int(found.get("scipy.integrate", 0)) * 1e-6)
    return median(cli), median(integ)


def engine_probes(wl) -> tuple[float, float]:
    """Untraced probes of the workload's main simulate_batch problem: the
    per-path cost of a one-step run, and the speed-up of threads = nproc
    over threads = 1."""
    import qghjm as q

    p, curve, cfg, kw = wl.probe_problem()
    one = replace(cfg, horizon=cfg.dt)
    per_path = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        q.simulate_batch(p, curve, one, threads=1, **kw)
        per_path.append((time.perf_counter() - t0) / cfg.n_paths * 1e6)
    walls = {}
    for threads in (1, len(os.sched_getaffinity(0))):
        t0 = time.perf_counter()
        q.simulate_batch(p, curve, cfg, threads=threads, **kw)
        walls[threads] = time.perf_counter() - t0
    return median(per_path), walls[1] / walls[max(walls)]


def end_to_end(wl, setup_s: float, passes: list) -> dict:
    if wl.name == "cli-readme":
        peak = max(ps.peak_rss_mb for ps in passes)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "wall_s": median(ps.wall_s for ps in passes),
        "peak_rss_mb": peak,
        "path_steps_per_s": median(ps.path_steps / ps.sim_s for ps in passes),
    }


def span_totals(traced: list) -> dict:
    """Span summaries of every traced pass, averaged per pass."""
    agg: dict = {}
    for ps in traced:
        for proc in ps.spans:
            for name, s in spans.summarize(proc).items():
                a = agg.setdefault(name, {})
                for k, v in s.items():
                    a[k] = a.get(k, 0) + v / len(traced)
    return agg


def per_layer(wl, plain: list, traced: list, agg: dict) -> dict:
    """Per-layer metrics, per pass; 0 where the workload never calls that
    function."""
    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    m = {}
    m["cli.import_s"], m["cli.import.scipy_integrate_s"] = import_seconds()
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}", "self_s")
    sb = "sde_engine.simulate_batch"
    m[f"{sb}.self_s"] = get(sb, "self_s")
    m[f"{sb}.calls"] = get(sb, "calls")
    m[f"{sb}.requested_path_steps"] = get(sb, "requested_path_steps")
    alive = get(sb, "alive_path_steps")
    m["sde_engine.ns_per_alive_path_step"] = \
        get(sb, "total_s") / alive * 1e9 if alive else 0.0
    m["sde_engine.setup_us_per_path"], m["sde_engine.thread_speedup"] = \
        engine_probes(wl)
    wp = get("sde_engine.write_paths_csv", "total_s")
    m["sde_engine.write_paths_csv.s"] = wp
    mb = median(ps.files.get("paths.csv", 0) for ps in traced) / 1e6
    m["sde_engine.write_paths_csv.mb_per_s"] = mb / wp if wp else 0.0
    m["sde_engine.write_explosions_csv.s"] = \
        get("sde_engine.write_explosions_csv", "total_s")
    for name in ("sde_engine.expectation_functional",
                 "sde_engine.pathwise_discount_factors",
                 "pricing.eurodollar_futures",
                 "pricing.discount_consistency_check",
                 "explosion_criteria.build_lyapunov"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["ode_limit.ode_integrate.s"] = get("ode_limit.ode_integrate", "total_s")
    m["ode_limit.trace_rows"] = get("ode_limit.ode_integrate", "trace_rows")
    xc = "explosion_criteria"
    for name in ("check_condition", "verify_generator_inequality",
                 "verify_a5_function", "region_curve"):
        m[f"{xc}.{name}.s"] = get(f"{xc}.{name}", "total_s")
    m[f"{xc}.verify_generator_inequality.calls"] = \
        get(f"{xc}.verify_generator_inequality", "calls")
    m[f"{xc}.verify_generator_inequality.points"] = \
        get(f"{xc}.verify_generator_inequality", "points")
    m[f"{xc}.delta2_star.calls"] = get(f"{xc}.delta2_star", "calls")
    m["trace.overhead_s"] = (median(ps.wall_s for ps in traced)
                             - median(ps.wall_s for ps in plain))
    return m


def print_spans(agg: dict, n: int) -> None:
    print(f"spans per traced pass ({n} passes):")
    for name, s in sorted(agg.items()):
        print(f"  {name:52s} calls {s['calls']:9.1f}  total {s['total_s']:9.4f} s"
              f"  self {s['self_s']:9.4f} s")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    bench = spec()
    setup = None if trace else SetupProbe(name, seed)
    wl = WORKLOADS[name](seed)
    plain, traced = [], []
    measured = 0.0
    while measured < seconds:
        plain.append(wl.run_pass())
        measured += plain[-1].wall_s
        if trace:
            traced.append(wl.run_pass(spans.Tracer()))
            measured += traced[-1].wall_s
        else:
            setup.keep_up(measured)
    passes = plain + traced
    errors = [e for ps in passes for e in ps.errors]
    for msg in [f for ps in passes for f in ps.failures] + errors:
        print(f"{name}: {msg}", file=sys.stderr)
    ops: dict = {}
    for ps in plain:
        for op, dt in ps.ops.items():
            ops.setdefault(op, []).append(dt)
    print(f"{name}: seed {seed}, {len(plain)} passes"
          + (f" + {len(traced)} traced" if trace else ""))
    for op, dts in ops.items():
        print(f"  {op} = {median(dts):.4f} s  (median of {len(dts)})")
    if trace:
        agg = span_totals(traced)
        print_spans(agg, len(traced))
        values = per_layer(wl, plain, traced, agg)
        wanted = bench["per_layer"]
        with open(OUT / f"{name}-trace.json", "w") as fh:
            json.dump([ps.spans for ps in traced], fh)
    else:
        values = end_to_end(wl, setup.median(), plain)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(ps.attempted for ps in passes),
        "failed": sum(ps.failed for ps in passes),
        "metrics": metrics,
    }))
    return 0


def run_all(seed, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; a table of every metric."""
    rows, results = [], {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if seed is not None:
            argv += ["--seed", str(seed)]
        out = subprocess.run(argv, capture_output=True, text=True,
                             stdin=subprocess.DEVNULL)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"{name}: exited {out.returncode}", file=sys.stderr)
            return 1
        res = results[name] = json.loads(lines[-1])
        rows.append((name, res))
    print(f"\n{'workload':18s} {'metric':44s} {'value':>14s} unit")
    for name, res in rows:
        print(f"{name:18s} {'attempted / failed':44s} "
              f"{res['attempted']:>9d} / {res['failed']:<4d}")
        for k, v in res["metrics"].items():
            print(f"{name:18s} {k:44s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    seed = args.seed if args.seed is not None \
        else WORKLOADS[args.workload].default_seed
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
