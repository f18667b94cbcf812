"""Command-line front end.

    qghjm simulate|region|verify|ode|price --config FILE --out DIR
          [--threads N] [--seed N (if it reads sim)] [--c3-scale S (verify)]

All inputs come from one JSON config, read strictly by _setup: finite
numbers only, every section an object with no unknown and no missing key
(model, sim: the ModelParams, SimConfig fields; a command's own section:
its _COMMANDS row); --threads must be >= 1 and runs nothing in parallel.
Outputs are plot-ready CSV files plus JSON summaries that embed the
resolved configuration. Exit codes: 0 success, 2 configuration error (any
ConfigError, or a run too large to allocate), 3 no certificate or
verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import explosion_criteria as xc
from . import ode_limit, pricing
from . import sde_engine as eng
from ._csv import write_rows
from .errors import (ConfigError, GammaOutOfRange, InfeasibleWedge,
                     QGHJMError, as_float, as_int, check_keys)
from .model_core import ForwardCurve, ModelParams

_PARSERS = {"model": ModelParams, "curve": ForwardCurve, "sim": eng.SimConfig}


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {text} is not allowed")
    return x


@contextmanager
def _reading(what: str):
    """Report a malformed value read in the block, or one the library
    rejects, as a config error about section what."""
    try:
        yield
    except (ValueError, TypeError, OverflowError, QGHJMError) as e:
        raise ConfigError(f"{what}: {e}") from None


def _setup(args) -> list:
    """Check --threads, load the config and create the output directory;
    return the sections args.command reads, in its _COMMANDS row's order
    (model, curve, sim parsed, None if optional and absent; --seed applied
    to sim, a curve lambda(0) other than the model's lambda0 rejected),
    then its own section."""
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {args.config}: {e}") from None
    name = args.command
    reads, optional, keys, required, _ = _COMMANDS[name]
    check_keys(raw, "top-level", {*_PARSERS, *_COMMANDS},
               reads + ((name,) if required else ()))
    for key, sect in raw.items():  # every section given is an object
        check_keys(sect, key, allowed=sect)
    parsed = {}
    for key in (*reads, *optional):
        with _reading(key):
            parsed[key] = (_PARSERS[key].from_json(raw[key]) if key in raw
                           else None)
    if "sim" in parsed and args.seed is not None:
        parsed["sim"] = replace(parsed["sim"], seed=args.seed)
    p, curve = parsed.get("model"), parsed.get("curve")
    if p is not None and curve is not None and curve.lambda0 != p.lambda0:
        raise ConfigError(f"curve: lambda(0) = {curve.lambda0} differs "
                          f"from the model's lambda0 = {p.lambda0}")
    opts = check_keys(raw.get(name, {}), name, keys, required)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:  # an existing file, or a path under one
        raise ConfigError(f"cannot create {args.out}: {e}") from None
    return [*parsed.values(), opts]


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args, p, curve, cfg, opts) -> int:
    t_end = cfg.n_steps * cfg.dt  # the batch's t_end, before simulating
    checkpoints = opts.get("checkpoints")
    if checkpoints is None:
        checkpoints = np.linspace(t_end / 10.0, t_end, 10)
    with _reading("simulate"):
        checkpoints = [as_float(T) for T in checkpoints]
        for T in checkpoints:
            if not 0.0 <= T <= t_end:
                raise ConfigError(f"checkpoint T={T} is outside "
                                  f"[0, t_end={t_end}]")

    batch = eng.simulate_batch(p, curve, cfg, record=True)
    n = len(batch.path_index)
    est = [eng.explosion_probability(batch, T) for T in checkpoints]
    with open(os.path.join(args.out, "paths.csv"), "w") as fh:
        eng.write_paths_csv(batch, fh)
    with open(os.path.join(args.out, "explosions.csv"), "w") as fh:
        eng.write_explosions_csv(batch, fh)
    summary = {
        "config": {"model": p.to_json(), "curve": curve.to_json(),
                   "sim": cfg.to_json()},
        "n_paths": n,
        "n_exploded": int(batch.exploded.sum()),
        "explosion_fraction": float(batch.exploded.mean()),
        "checkpoints": [
            {"T": T, "fraction": e.mean, "hits": e.n_exploded,
             "std_error": e.std_error,
             "upper95": eng.clopper_pearson_upper95(e.n_exploded, n)}
            for T, e in zip(checkpoints, est)],
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def cmd_region(args, opts) -> int:
    sig, span = opts["sigma"], ("start", "stop", "num")
    with _reading("region"):
        gammas = [as_float(g) for g in opts["gammas"]]
        if isinstance(sig, dict):
            check_keys(sig, "sigma", span, span)
            sigma_grid = np.linspace(as_float(sig["start"]),
                                     as_float(sig["stop"]), as_int(sig["num"]))
        else:
            sigma_grid = np.asarray([as_float(s) for s in sig])
    if sigma_grid.size == 0 or np.any(sigma_grid <= 0.0):
        raise ConfigError("sigma grid must be non-empty and positive")
    if not gammas or not all(0.5 < g <= 1.0 for g in gammas):
        raise ConfigError(f"gammas must be in (1/2, 1], got {gammas}")
    names = [f"region_gamma_{g:g}.csv" for g in gammas]
    if len(set(names)) < len(names):
        raise ConfigError(f"gammas {gammas} name the same output file twice")
    for g, name in zip(gammas, names):
        curve = xc.region_curve(g, sigma_grid)
        with open(os.path.join(args.out, name), "w") as fh:
            curve.write_csv(fh)
    return 0


def cmd_verify(args, p, curve, opts) -> int:
    which = opts.get("condition", "II")
    out: dict = {"model": p.to_json(), "condition_requested": which,
                 "c3_scale": args.c3_scale}
    if curve is not None:  # does the flat-curve certificate carry over?
        out["curve_comparison"] = curve.satisfies_lower_bound(p.beta)

    path = os.path.join(args.out, "verify.json")
    try:
        report = xc.check_condition(p, which)  # which first: a bad one exits 2
        out["condition"] = report.to_json()
        spec = xc.build_lyapunov(p, report)  # InfeasibleWedge if unsatisfied
    except (GammaOutOfRange, InfeasibleWedge) as e:  # no certificate
        if isinstance(e, GammaOutOfRange):
            line = out["outcome"] = f"non-explosive regime: {e}"
        elif not report.satisfied:
            out["outcome"] = "condition unsatisfied"
            line = (f"condition {which} unsatisfied "
                    f"(sup value {report.sup_value:.6g})")
        else:
            out["outcome"] = f"no feasible constants: {e}"
            line = f"condition {which} holds, but no feasible constants"
        _write_json(path, out)
        print(line)
        return 3
    if args.c3_scale != 1.0:
        spec = xc.scale_c3(spec, args.c3_scale)
    R = spec.R
    k1, k2 = xc.kappas(R, p, spec.deltas)
    wedge = xc.wedge_feasible_slopes(R, p, spec.deltas)
    rep = xc.verify_generator_inequality(spec, p)
    thr = xc.as_explosion_r0_threshold(R, p) if p.beta > 0 else None

    out["spec"] = spec.to_json()
    out["constants"] = {
        **xc.level_constants(spec), "C": spec.C, "kappa1": k1, "kappa2": k2,
        "wedge": {"kind": wedge.kind, "slope_lo": wedge.slope_lo,
                  "slope_hi": wedge.slope_hi, "divider": wedge.divider,
                  "ineq1": wedge.ineq1_holds, "ineq2": wedge.ineq2_holds},
    }
    out["verification"] = rep.to_json()
    if thr is not None:
        out["r0_threshold"] = {"R": R, "log_value": thr.log_value,
                               "value": thr.value, "overflow": thr.overflow}
        if not thr.overflow:
            p_as = replace(p, lambda0=thr.value)
            a5 = xc.verify_a5_function(p_as, R)
            out["a5"] = {"lambda0_used": thr.value,
                         "max_value": a5.max_value, "negative": a5.negative}
        else:
            out["a5"] = {"skipped": "r0 threshold overflows"}
    _write_json(path, out)
    print(f"min slack {rep.min_slack:.6g}, violations {rep.violations} "
          f"of {rep.n_points}")
    return 0 if rep.violations == 0 else 3


def cmd_ode(args, p, curve, opts) -> int:
    with _reading("ode"):
        horizon = as_float(opts["horizon"])
        res = ode_limit.ode_integrate(p, curve, horizon)
    with open(os.path.join(args.out, "ode_trace.csv"), "w") as fh:
        write_rows(fh, "t,r,y", res.trace)
    # the closed forms hold for a flat, uncapped, undisplaced model only
    closed = (p.vol_cap is None and p.displacement == 0.0
              and curve.to_json()["kind"] == "flat")
    bc = ode_limit.beta_critical(p) if closed else None
    out = {
        "config": {"model": p.to_json(), "curve": curve.to_json(),
                   "ode": {"horizon": horizon}},
        "exploded": res.exploded,
        "t_exp": res.t_exp,
        "terminal": None if res.terminal is None else
            {"r": res.terminal[0], "y": res.terminal[1]},
        "beta_critical": bc,
        "fixed_point_r": (ode_limit.fixed_point_r(p)
                          if closed and p.beta >= bc else None),
        "steps": res.steps,
        "nfev": res.nfev,
    }
    _write_json(os.path.join(args.out, "ode.json"), out)
    return 0


def _write_estimate(path: str, T: float, delta: float,
                    est: eng.McEstimate) -> None:
    with open(path, "w") as fh:
        write_rows(fh, "T,delta,estimate,std_error,n_exploded,diverged",
                   [(T, delta, est.mean, est.std_error, est.n_exploded,
                     int(est.diverged))])


def cmd_price(args, p, curve, cfg, opts) -> int:
    with _reading("price"):
        T = as_float(opts["T"])
        delta = as_float(opts["delta"])
    check = opts.get("discount_check", False)
    if not isinstance(check, bool):
        raise ConfigError(f"price: discount_check {check!r} is not a boolean")
    # one simulation up to T serves the futures and the discount check
    batch = eng.simulate_batch(p, curve, pricing.futures_config(cfg, T, delta),
                               want_discount=check)
    est = pricing.futures_estimate(batch, p, curve, T, delta)
    _write_estimate(os.path.join(args.out, "futures.csv"), T, delta, est)
    if check:
        chk = pricing.discount_estimate(batch)
        target = curve.discount(T)
        _write_estimate(os.path.join(args.out, "discount.csv"), T, 0, chk)
        _write_json(os.path.join(args.out, "discount.json"),
                    {"T": T, "mc_mean": chk.mean, "curve_price": target,
                     "rel_error": abs(chk.mean / target - 1.0)})
    return 0


# subcommand: (sections it reads, sections it reads only when given, its own
# section's keys, the required ones among them, fn(args, *sections, own))
_COMMANDS = {
    "simulate": (("model", "curve", "sim"), (), {"checkpoints"}, (),
                 cmd_simulate),
    "region": ((), (), {"gammas", "sigma"}, ("gammas", "sigma"), cmd_region),
    "verify": (("model",), ("curve",), {"condition"}, (), cmd_verify),
    "ode": (("model", "curve"), (), {"horizon"}, ("horizon",), cmd_ode),
    "price": (("model", "curve", "sim"), (), {"T", "delta", "discount_check"},
              ("T", "delta"), cmd_price),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qghjm",
        description="quasi-Gaussian HJM short-rate model tools")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (reads, *_) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--threads", type=int, default=1)
        if "sim" in reads:
            sp.add_argument("--seed", type=int, default=None)
        if name == "verify":
            sp.add_argument("--c3-scale", type=float, default=1.0,
                            dest="c3_scale")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][-1](args, *_setup(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a run too large for this machine
        print(f"config error: not enough memory: {e}", file=sys.stderr)
        return 2
    except QGHJMError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
