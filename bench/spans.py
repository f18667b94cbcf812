"""In-memory spans around calls into qghjm's public functions.

install() rebinds each traced function, in every loaded qghjm module that
holds it, to a wrapper that records a span (name, start, end, parent,
attrs). Rebinding the module attribute also catches calls made inside the
module (region_curve -> delta2_star) and names imported elsewhere
(pricing's expectation_functional, the package's re-exports). Nothing
under src/ is edited; model_core is left untraced, so its cost lands in
its callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

from checks import alive_path_steps

# layer -> public functions that get a span
TRACED = {
    "sde_engine": ("simulate_batch", "expectation_functional",
                   "pathwise_discount_factors", "write_paths_csv",
                   "write_explosions_csv"),
    "pricing": ("eurodollar_futures", "discount_consistency_check"),
    "ode_limit": ("ode_integrate",),
    "explosion_criteria": ("check_condition", "build_lyapunov",
                           "verify_generator_inequality",
                           "verify_a5_function", "region_curve",
                           "delta2_star", "beta_max"),
}


def _simulate_attrs(out, args, kwargs) -> dict:
    """Requested and alive path-steps of one simulate_batch call."""
    cfg = args[2]
    n_steps = int(round(cfg.horizon / cfg.dt))
    return {"requested_path_steps": len(out.tau_hat) * n_steps,
            "alive_path_steps": alive_path_steps(out.tau_hat, cfg.dt, n_steps)}


ATTRS = {
    "sde_engine.simulate_batch": _simulate_attrs,
    "ode_limit.ode_integrate": lambda out, a, k: {"trace_rows": len(out.trace)},
    "explosion_criteria.verify_generator_inequality":
        lambda out, a, k: {"points": out.n_points},
}


class Tracer:
    """Spans of one process, kept in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        i = len(self.spans)
        self.spans.append({"name": name, "parent": self._open[-1] if self._open else -1,
                           "start": time.perf_counter(), "end": None, "attrs": {}})
        self._open.append(i)
        try:
            yield self.spans[i]
        finally:
            self._open.pop()
            self.spans[i]["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    sp["attrs"] = attrs(out, args, kwargs)
                return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer):
    """Wrap every TRACED function wherever a qghjm module holds it; returns
    a callable that restores the originals."""
    import qghjm  # noqa: F401  (loads every layer)

    mods = [m for n, m in list(sys.modules.items())
            if (n == "qghjm" or n.startswith("qghjm.")) and m is not None]
    undo = []
    for layer, names in TRACED.items():
        home = sys.modules[f"qghjm.{layer}"]
        for name in names:
            orig = getattr(home, name)
            wrapped = tracer.wrap(f"{layer}.{name}", orig)
            for m in mods:
                if getattr(m, name, None) is orig:
                    setattr(m, name, wrapped)
                    undo.append((m, name, orig))

    def restore() -> None:
        for m, name, orig in undo:
            setattr(m, name, orig)
    return restore


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total and self seconds, summed attrs.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the program is single
    threaded while traced.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        dur = s["end"] - s["start"]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child[i]
        for k, v in s["attrs"].items():
            agg[k] = agg.get(k, 0) + v
    return out
