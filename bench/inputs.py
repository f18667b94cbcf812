"""Workload inputs, built from the workload seed alone.

This module imports only the standard library and, inside build_inputs,
qghjm itself: the set-up probe times exactly "import qghjm and build the
inputs", so nothing heavier may sit at module level.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Single-threaded numerics everywhere: set before numpy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "QGHJM_THREADS": "1"}

CLI_COMMANDS = ("simulate", "price", "verify", "region", "ode")


def use_checkout_src() -> None:
    """Import qghjm from this checkout's src/ and nowhere else.

    Fails when the checkout holds no package, so that a directory with only
    the benchmark files cannot produce a result.
    """
    if not (SRC / "qghjm" / "__init__.py").is_file():
        raise SystemExit(f"no qghjm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: checkout src first, one thread."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def readme_config(seed: int) -> dict:
    """The README example config, with the workload seed as sim.seed."""
    return {
        "model": {"sigma": 0.2, "beta": 0.05, "gamma": 1.0, "epsilon": 0.01,
                  "lambda0": 0.1},
        "curve": {"kind": "flat", "lambda0": 0.1},
        "sim": {"dt": 0.01, "horizon": 100.0, "n_paths": 10000, "seed": seed,
                "record_stride": 100},
        "ode": {"horizon": 100.0},
        "region": {"gammas": [0.6, 0.75, 0.9, 1.0],
                   "sigma": {"start": 0.1, "stop": 1.45, "num": 28}},
        "verify": {"condition": "II"},
        "price": {"T": 2.0, "delta": 0.5, "discount_check": True},
    }


def build_inputs(workload: str, seed: int) -> dict:
    """Model, curve and simulation settings of an in-process workload."""
    import qghjm as q

    curve = q.ForwardCurve.flat(0.1)
    if workload == "dense-gamma-half":
        # acceptance criterion 6: gamma = 1/2 never explodes
        return {
            "p": q.ModelParams(sigma=0.2, beta=0.0, gamma=0.5, epsilon=0.01,
                               lambda0=0.1),
            "curve": curve,
            "cfg": q.SimConfig(dt=0.01, horizon=50.0, n_paths=10000,
                               seed=seed, explosion_threshold=1e8),
        }
    if workload == "pricing-discount":
        # acceptance criterion 10: discount check, futures on the same
        # config, and the small explosion-regime futures call
        return {
            "p": q.ModelParams(sigma=0.2, beta=0.2, gamma=1.0, epsilon=0.01,
                               lambda0=0.1),
            "curve": curve,
            "cfg": q.SimConfig(dt=1.0 / 365.0, horizon=1.0, n_paths=100000,
                               seed=seed),
            "T": 1.0, "futures_T": 0.75, "delta": 0.25,
            "p_expl": q.ModelParams(sigma=0.5, beta=0.0, gamma=1.0,
                                    epsilon=0.01, lambda0=0.1),
            "cfg_expl": q.SimConfig(dt=0.02, horizon=30.0, n_paths=400,
                                    seed=seed),
            "expl_T": 25.0, "expl_delta": 0.25,
        }
    raise ValueError(f"no in-process inputs for workload {workload!r}")
