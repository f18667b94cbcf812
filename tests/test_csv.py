"""Tests for the CSV row format: numpy's %.17g fields against CPython's."""

import io

import numpy as np
import pytest

from qghjm import _csv


def reference(header, rows):
    """The rows as CPython's %-formatting writes them, one line each."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return header + "\n" + "".join(line % tuple(r) for r in rows.tolist())


def written(header, rows):
    buf = io.StringIO()
    _csv.write_rows(buf, header, rows)
    return buf.getvalue()


def first_difference(got, want):
    """None, or the first line where got and want differ, with both."""
    if got == want:
        return None
    pairs = zip(got.splitlines(), want.splitlines())
    return next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w),
                ("line count", got.count("\n"), want.count("\n")))


def exact_range_values(rng):
    """About 10**6 values of the exact range 1e-4 <= |v| < 1e14, 0 and the
    values that go through CPython's formatter."""
    signs = lambda n: rng.choice([-1.0, 1.0], n)
    lo, hi = np.array([1e-4, np.nextafter(1e14, 0)]).view(np.int64)
    ties = (2.0 ** 17 + np.arange(2 ** 17)) * 2.0 ** -17
    tens = 10.0 ** np.arange(-4, 15)
    return np.concatenate([
        10.0 ** rng.uniform(-4, 14, 400_000) * signs(400_000),
        rng.integers(lo, hi, 300_000, endpoint=True).view(float)
        * signs(300_000),
        ties, -ties,  # 17 significant digits end in a 5 after the 17th
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens,
        [0.0, -0.0],
        np.arange(100_000, dtype=float),
        np.unique(rng.integers(0, 2 ** 53, 50_000, endpoint=True)).astype(
            float),
        [2.0 ** 53, 2.0 ** 53 - 1, 1e14, 99999999999999.98],
        [np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-5, 9.99999999999999e-5,
         1e16, 1e300, -1e300, np.finfo(float).max, np.finfo(float).tiny],
    ])


def test_fields_match_cpython_on_a_million_values():
    v = exact_range_values(np.random.default_rng(20261021))
    assert len(v) >= 10 ** 6
    assert first_difference(written("v", v[:, None]),
                            reference("v", v[:, None])) is None


def test_rows_join_fields_of_every_width():
    rng = np.random.default_rng(5)
    v = exact_range_values(rng)
    rows = rng.permutation(v)[:3 * 40_000].reshape(-1, 3)
    assert first_difference(written("a,b,c", rows),
                            reference("a,b,c", rows)) is None


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_chunks_keep_the_bytes(monkeypatch, chunk):
    monkeypatch.setattr(_csv, "CHUNK", chunk)
    rows = np.column_stack([np.arange(50.0), np.linspace(-3, 1e5, 50),
                            np.full(50, np.inf)])
    assert first_difference(written("i,x,inf", rows),
                            reference("i,x,inf", rows)) is None


def test_empty_rows_write_the_header_only():
    assert written("a,b", np.empty((0, 2))) == "a,b\n"


def test_fields_are_cut_to_the_used_columns():
    # integer parts end in one column, so " 1", "25" and " 3.5" use four
    f = _csv.fields([1.0, 25.0, 3.5])
    assert f.shape == (3, 4)
    assert [bytes(r[r != 0]) for r in f] == [b"1", b"25", b"3.5"]
