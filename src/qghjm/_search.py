"""Small deterministic 1-D search utilities used by the region scans."""

from __future__ import annotations

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi].

    Returns (argmax, value). Deterministic: the bracket update sequence is a
    pure function of (lo, hi, tol).
    """
    a, b = float(lo), float(hi)
    if not b > a:
        return a, f(a)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > tol and it < max_iter:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x)
