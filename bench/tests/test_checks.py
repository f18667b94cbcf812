"""The benchmark's checks accept the program's outputs and reject corrupted
ones (negative controls), so a passing benchmark run means something.

    python -m pytest bench/tests
"""

import json
import math

import numpy as np
import pytest

import checks
import qghjm as q
import spans

README = {"sigma": 0.2, "beta": 0.05, "gamma": 1.0, "epsilon": 0.01,
          "lambda0": 0.1}
FLAT = q.ForwardCurve.flat(0.1)


def _batch(model, seed, indices, n_steps=400, dt=0.05, record=False):
    cfg = q.SimConfig(dt=dt, horizon=n_steps * dt, n_paths=1000, seed=seed,
                      record_stride=20)
    return q.simulate_batch(q.ModelParams(**model), FLAT, cfg, indices,
                            record=record)


def _path_errors(model, b, seed, indices, n_steps=400, dt=0.05):
    errs = []
    for j, i in enumerate(indices):
        ref = checks.scalar_euler(model, dt, n_steps, 1e6, seed, i)
        errs += checks.check_path(ref, b.tau_hat[j], b.terminal_r[j],
                                  b.terminal_y[j], f"path {i}")
    return errs


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_scalar_reference_matches_engine(gamma):
    model = dict(README, sigma=0.6, beta=0.0, gamma=gamma)
    idx = checks.sample_indices(5, 1000, 6)
    b = _batch(model, 5, idx)
    assert _path_errors(model, b, 5, idx) == []
    if gamma == 1.0:  # the sample must cover explosions for the tau check
        assert b.exploded.any()


def test_paths_from_another_seed_are_rejected():
    model = dict(README, sigma=0.6, beta=0.0)
    idx = checks.sample_indices(5, 1000, 6)
    b = _batch(model, 6, idx)
    assert len(_path_errors(model, b, 5, idx)) >= len(idx)


def test_recorded_rows_from_another_seed_are_rejected():
    idx = [3]
    for seed, ok in ((5, True), (6, False)):
        b = _batch(README, seed, idx, record=True)
        alive = ~np.isnan(b.rec_r[:, 0])
        rows = list(zip(b.record_times[alive], b.rec_r[alive, 0],
                        b.rec_y[alive, 0]))
        ref = checks.scalar_euler(README, 0.05, 400, 1e6, 5, 3, stride=20)
        assert (checks.check_recorded(ref, rows, 0.05, "p") == []) is ok


def test_alive_path_steps():
    assert checks.alive_path_steps(np.array([np.inf, 0.0, 0.3]), 0.1, 10) \
        == 10 + 1 + 4


def test_mean_recursion_accepts_engine_and_rejects_wrong_model():
    p = q.ModelParams(sigma=0.2, beta=0.0, gamma=0.5, epsilon=0.01,
                      lambda0=0.1)
    cfg = q.SimConfig(dt=0.01, horizon=20.0, n_paths=2000, seed=7,
                      explosion_threshold=1e8)
    b = q.simulate_batch(p, FLAT, cfg)
    assert not b.exploded.any()
    assert checks.check_means(b.terminal_r, b.terminal_y, 0.2, 0.1, 0.01,
                              2000) == []
    assert checks.check_means(b.terminal_r, b.terminal_y, 0.22, 0.1, 0.01,
                              2000) != []


def test_ode_reference_reproduces_the_paper_blowup_time():
    assert abs(checks.ode_blowup_time(0.2, 0.0, 0.1, 100.0) - 47.03) < 0.01
    assert math.isinf(checks.ode_blowup_time(0.2, 0.1, 0.1, 100.0))
    p = q.ModelParams(**README)
    res = q.ode_integrate(p, FLAT, 100.0)
    ref = checks.ode_blowup_time(0.2, 0.05, 0.1, 100.0)
    assert checks.check_ode(res.exploded, res.t_exp, ref) == []
    assert checks.check_ode(res.exploded, res.t_exp + 0.05, ref) != []
    assert checks.check_ode(False, None, ref) != []


def test_lyapunov_check_rejects_scaled_c3():
    p = q.ModelParams(**README)
    spec = q.build_lyapunov(p, q.check_condition(p, "II"))
    assert checks.check_lyapunov(spec.to_json(), README) == []
    assert checks.check_lyapunov(q.scale_c3(spec, 100.0).to_json(),
                                 README) != []


def test_region_check_rejects_perturbed_beta_max():
    grid = np.linspace(0.1, 1.45, 28)
    for gamma in (0.6, 1.0):
        rows = q.region_curve(gamma, grid).points
        assert checks.check_region(rows, gamma, grid) == []
        bad = rows.copy()
        bad[5, 1] += 1e-6
        assert checks.check_region(bad, gamma, grid) != []
        assert checks.check_region(rows[:-1], gamma, grid) != []


def test_pricing_checks_reject_wrong_values():
    assert checks.check_discount(math.exp(-0.2), 0.1, 2.0) == []
    assert checks.check_discount(1.02 * math.exp(-0.2), 0.1, 2.0) != []
    ratio = math.exp(0.1 * 0.5)
    assert checks.check_futures(ratio * 1.001, 1e-4, 0.1, 0.5) == []
    assert checks.check_futures(ratio - 1e-2, 1e-4, 0.1, 0.5) != []
    assert checks.check_diverged(True, 3) == []
    assert checks.check_diverged(False, 3) != []
    assert checks.check_diverged(True, 0) != []
    assert checks.check_estimate(1.5, 3, 1.5, 3, "x") == []
    assert checks.check_estimate(math.inf, 3, math.inf, 3, "x") == []
    assert checks.check_estimate(1.5, 2, 1.5, 3, "x") != []
    assert checks.check_estimate(1.5 * (1 + 1e-9), 3, 1.5, 3, "x") != []


def test_euler_paths_match_engine_including_explosions():
    model = dict(README, sigma=0.6, beta=0.0)
    ref = checks.euler_paths(model, 0.05, [150, 400], 1e6, 5, 300, chunk=128)
    for k, ps in ref.items():
        b = _batch(model, 5, range(300), n_steps=k)
        assert np.array_equal(b.tau_hat, ps.tau)
        assert np.array_equal(b.terminal_r, ps.r)
        assert np.array_equal(b.terminal_y, ps.y)
    assert 0 < ref[150].exploded.sum() < ref[400].exploded.sum() < 300


@pytest.mark.parametrize("seed, ok", [(99, True), (100, False)])
def test_discount_and_futures_from_another_seed_are_rejected(seed, ok):
    model = dict(README, beta=0.2)
    p, dt = q.ModelParams(**model), 1.0 / 365.0
    cfg = q.SimConfig(dt=dt, horizon=1.0, n_paths=2000, seed=seed)
    ref = checks.euler_paths(model, dt, [274, 365], 1e6, 99, 2000)
    chk = q.discount_consistency_check(p, FLAT, cfg, 1.0)
    fut = q.eurodollar_futures(p, FLAT, cfg, 0.75, 0.25)
    errs = checks.check_estimate(chk.mean, chk.n_exploded,
                                 checks.discount_reference(ref[365]), 0, "d")
    assert (errs == []) is ok
    errs = checks.check_estimate(
        fut.mean, fut.n_exploded,
        checks.futures_reference(ref[274], model, 0.75, 0.25), 0, "f")
    assert (errs == []) is ok
    # the loose P(0, T) identity alone cannot tell the seeds apart
    assert checks.check_discount(chk.mean, 0.1, 1.0) == []


def test_explosion_regime_futures_match_reference():
    model = dict(README, sigma=0.5, beta=0.0)
    cfg = q.SimConfig(dt=0.02, horizon=30.0, n_paths=200, seed=3)
    fx = q.eurodollar_futures(q.ModelParams(**model), FLAT, cfg, 25.0, 0.25)
    ps = checks.euler_paths(model, 0.02, [1250], 1e6, 3, 200)[1250]
    assert fx.diverged and fx.n_exploded == int(ps.exploded.sum()) > 0
    assert checks.check_estimate(
        fx.mean, fx.n_exploded,
        checks.futures_reference(ps, model, 25.0, 0.25), fx.n_exploded,
        "fx") == []


def test_spans_wrap_every_holder_and_restore():
    tracer = spans.Tracer()
    orig = q.explosion_criteria.delta2_star
    restore = spans.install(tracer)
    try:
        assert q.delta2_star is not orig  # package re-export is wrapped too
        q.region_curve(1.0, [0.2, 0.4, 0.6])
    finally:
        restore()
    assert q.explosion_criteria.delta2_star is orig and q.delta2_star is orig
    agg = spans.summarize(tracer.spans)
    assert agg["explosion_criteria.region_curve"]["calls"] == 1
    # region_curve reaches delta2_star directly and through beta_max
    assert agg["explosion_criteria.delta2_star"]["calls"] == 6
    rc = agg["explosion_criteria.region_curve"]
    assert 0.0 <= rc["self_s"] <= rc["total_s"]


def _cli(tmp_path, name, cfg, *extra):
    from qghjm.cli import main

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    return main([name.split("-")[0], "--config", str(path), "--out", str(out),
                 *extra]), out


def test_cli_outputs_through_the_workload_readers(tmp_path):
    from workloads import _path_rows

    sim = {"dt": 0.02, "horizon": 10.0, "n_paths": 50, "seed": 1,
           "record_stride": 25}
    cfg = {"model": dict(README, sigma=0.6, beta=0.0), "curve": {
        "kind": "flat", "lambda0": 0.1}, "sim": sim}
    for seed, ok in (("1", True), ("2", False)):
        rc, out = _cli(tmp_path, f"simulate-{seed}", cfg, "--seed", seed)
        assert rc == 0
        blob = (out / "paths.csv").read_bytes()
        tau = np.loadtxt(out / "explosions.csv", delimiter=",",
                         skiprows=1)[:, 2]
        errs = []
        for i in (0, 17, 49):
            ref = checks.scalar_euler(cfg["model"], 0.02, 500, 1e6, 1, i,
                                      stride=25)
            errs += checks.check_recorded(ref, _path_rows(blob, i), 0.02, "p")
            errs += [] if tau[i] == ref.tau else ["tau"]
        assert (errs == []) is ok

    vcfg = {"model": README, "verify": {"condition": "II"}}
    rc, out = _cli(tmp_path, "verify-ok", vcfg)
    rep = json.loads((out / "verify.json").read_text())
    assert rc == 0 and checks.check_lyapunov(rep["spec"], rep["model"]) == []
    rc, out = _cli(tmp_path, "verify-bad", vcfg, "--c3-scale", "100")
    rep = json.loads((out / "verify.json").read_text())
    assert rc == 3 and checks.check_lyapunov(rep["spec"], rep["model"]) != []
