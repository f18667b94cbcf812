"""The package's one 1-D search: bisection, down to adjacent doubles, of
the point where a predicate turns false. delta2_star (the root of J'),
condition II's R = epsilon branch and clopper_pearson_upper95 use it."""

from __future__ import annotations

from typing import Callable


def bisect(pred: Callable[[float], bool], lo: float,
           hi: float) -> tuple[float, float]:
    """The adjacent doubles (a, b) of [lo, hi] where pred turns false.

    pred must be true left of one point of [lo, hi] and false right of
    it; it is only called strictly inside, so a is lo or a point where
    pred holds, and b is hi or a point where it fails. Deterministic.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if pred(mid):
            lo = mid
        else:
            hi = mid
