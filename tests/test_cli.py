"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qghjm
from qghjm import (ForwardCurve, ModelParams, SimConfig,
                   discount_consistency_check, eurodollar_futures)
from qghjm import sde_engine as eng
from qghjm.cli import main

MODEL = {"sigma": 0.2, "beta": 0.05, "gamma": 1.0, "epsilon": 0.01,
         "lambda0": 0.1}
CURVE = {"kind": "flat", "lambda0": 0.1}


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def sim_config(tmp_path):
    return write_config(tmp_path / "cfg.json", {
        "model": dict(MODEL, beta=0.0, sigma=0.5),
        "curve": CURVE,
        "sim": {"dt": 0.02, "horizon": 10.0, "n_paths": 50, "seed": 1,
                "record_stride": 100},
    })


class TestSimulate:
    def test_outputs(self, sim_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == 0
        paths = (out / "paths.csv").read_text()
        assert paths.splitlines()[0] == "path_index,t,r,y"
        expl = (out / "explosions.csv").read_text()
        assert expl.splitlines()[0] == "path_index,exploded,tau_hat"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 50
        assert summary["config"]["model"]["sigma"] == 0.5
        assert len(summary["checkpoints"]) == 10

    def test_default_checkpoints_end_at_last_step(self, tmp_path):
        # 333 steps of 0.003: the run, and its last checkpoint, end at 0.999
        cfg = write_config(tmp_path / "c.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {"dt": 0.003, "horizon": 1.0, "n_paths": 2, "seed": 1}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        Ts = [c["T"] for c in summary["checkpoints"]]
        assert Ts == list(np.linspace(333 * 0.003 / 10.0, 333 * 0.003, 10))

    def test_checkpoints_state_hits_error_and_bound(self, sim_config,
                                                     tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        tau = np.loadtxt(out / "explosions.csv", delimiter=",",
                         skiprows=1)[:, 2]
        n = summary["n_paths"]
        hits = [c["hits"] for c in summary["checkpoints"]]
        assert hits[0] == 0 < hits[-1]  # a zero count, and some explosions
        for c in summary["checkpoints"]:
            f = c["fraction"]
            assert c["hits"] == np.count_nonzero(tau <= c["T"])
            assert f == c["hits"] / n
            assert c["std_error"] == math.sqrt(f * (1.0 - f) / n)
            assert c["upper95"] == eng.clopper_pearson_upper95(c["hits"], n)
            assert f < c["upper95"] < 1.0

    @pytest.mark.parametrize("T", [500.0, -3.0])
    def test_bad_checkpoint_exits_before_simulating(self, tmp_path,
                                                    monkeypatch, T):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the checkpoints")

        monkeypatch.setattr(eng, "simulate_batch", no_simulation)
        cfg = write_config(tmp_path / "c.json", {
            "model": MODEL, "curve": CURVE, "sim": SIM,
            "simulate": {"checkpoints": [0.5, T]}})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert not list(tmp_path.glob("o/*"))

    def test_reproducible_bytes(self, sim_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", sim_config,
                         "--out", str(out)]) == 0
            outs.append((out / "paths.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_paths(self, sim_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", sim_config, "--out", str(out1)])
        main(["simulate", "--config", sim_config, "--out", str(out2),
              "--seed", "999"])
        assert (out1 / "paths.csv").read_bytes() \
            != (out2 / "paths.csv").read_bytes()

    def test_invalid_path_count(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {"dt": 0.01, "horizon": 1.0, "n_paths": 0, "seed": 1},
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {"dt": 0.01, "horizon": 1.0, "n_paths": 1, "seed": 1},
            "simulatee": {},
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, literal):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"model": MODEL, "curve": CURVE, "sim": SIM})
                       .replace('"dt": 0.01', f'"dt": {literal}'))
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "non-finite number" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"model": ')
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2


SIM = {"dt": 0.01, "horizon": 1.0, "n_paths": 2, "seed": 1}
REGION = {"gammas": [1.0], "sigma": {"start": 0.1, "stop": 1.0, "num": 3}}


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "sim", dict(SIM, dt="x")),
    ("simulate", "model", dict(MODEL, sigma=None)),
    ("price", "price", {"T": "x", "delta": 0.5}),
    ("verify", "verify", {"grid_n": "x"}),
    ("simulate", "simulate", {"checkpoints": "ab"}),
    ("region", "region", dict(REGION, gammas=["x"])),
    ("region", "region", dict(REGION, sigma={"start": 0.1, "num": 3})),
    ("simulate", "curve", {"kind": "tabulated", "knots": "x"}),
    ("simulate", "curve", {"kind": "flat"}),
    ("ode", "ode", {"horizon": "x"}),
    ("price", "price", 3),
    ("simulate", "sim", dict(SIM, n_paths=2.5)),
    ("price", "price", {"T": 0.5, "delta": 0.25, "discount_check": "false"}),
    ("verify", "verify", {"R": 1e6}),
    ("ode", "ode", {"horizon": math.nan}),
    ("simulate", "sim", dict(SIM, horizon=math.inf)),
    ("simulate", "model", dict(MODEL, sigma=math.inf)),
    ("simulate", "model", dict(MODEL, vol_cap=math.inf)),
    ("verify", "verify", {"c3_scale": 100}),
    ("verify", "verify", {"grid_n": -1}),
    ("verify", "verify", {"grid_n": 0}),
    ("region", "region", dict(REGION, gammas=[])),
    ("simulate", "sim", dict(SIM, n_paths=10 ** 400)),
    # checkpoints outside the simulated span [0, 1]
    ("simulate", "simulate", {"checkpoints": [500.0]}),
    ("simulate", "simulate", {"checkpoints": [-3.0]}),
    # numeric strings and booleans are not numbers
    ("simulate", "sim", dict(SIM, dt="0.01")),
    ("simulate", "sim", dict(SIM, n_paths="50")),
    ("simulate", "model", dict(MODEL, sigma="0.2")),
    ("simulate", "model", dict(MODEL, sigma=True)),
    ("price", "price", {"T": True, "delta": 0.25}),
    ("ode", "ode", {"horizon": True}),
    ("simulate", "sim", dict(SIM, n_paths=True)),
    ("simulate", "simulate", {"checkpoints": [True, "50"]}),
    ("simulate", "curve", {"kind": "flat", "lambda0": "0.1"}),
    ("simulate", "curve", {"kind": "tabulated", "knots": [[0, 0.1], [1, "0.1"]]}),
    ("simulate", "curve", {"kind": "tabulated", "knots": [[0, 0.1], [True, 0.1]]}),
    ("region", "region", dict(REGION, gammas=[True])),
    ("region", "region", dict(REGION, sigma=["0.2"])),
    ("region", "region", dict(REGION, sigma={"start": "0.1", "stop": 1.0,
                                             "num": 3})),
    ("ode", "ode", {"horizon": 1.0, "tol": "1e-10"}),
    ("ode", "ode", {"horizon": 10 ** 400}),
    # ode inputs outside ode_integrate's domain; the detection threshold
    # of earlier versions is now an unknown key
    ("ode", "ode", {"horizon": 100.0, "blowup_threshold": 1e10}),
    ("ode", "ode", {"horizon": 100.0, "tol": 1e-300}),
    # null is not a section
    ("simulate", "model", None),
    ("simulate", "curve", None),
    ("price", "sim", None),
    ("verify", "model", None),
    # an empty sigma grid, as a list or as a span
    ("region", "region", dict(REGION, sigma=[])),
    ("region", "region", dict(REGION, sigma={"start": 0.1, "stop": 1.0,
                                             "num": 0})),
])
def test_malformed_value_exits_2(tmp_path, capsys, command, section, value):
    obj = {"model": MODEL, "curve": CURVE, "sim": SIM, "region": REGION,
           "ode": {"horizon": 1.0}, "price": {"T": 0.5, "delta": 0.25}}
    cfg = write_config(tmp_path / "c.json", dict(obj, **{section: value}))
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(tmp_path.glob("o/*"))  # no partial output


class TestRegion:
    def test_csv_per_gamma(self, tmp_path):
        cfg = write_config(tmp_path / "r.json", {
            "region": {"gammas": [0.75, 1.0],
                       "sigma": {"start": 0.1, "stop": 1.4, "num": 8}}})
        out = tmp_path / "out"
        assert main(["region", "--config", cfg, "--out", str(out)]) == 0
        for g in ("0.75", "1"):
            text = (out / f"region_gamma_{g}.csv").read_text()
            lines = text.splitlines()
            assert lines[0] == "sigma,beta_max,delta2_star"
            assert len(lines) == 9

    def test_gamma_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path / "r.json", {
            "region": {"gammas": [0.4], "sigma": [0.1, 0.2]}})
        assert main(["region", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


class TestVerify:
    def test_reference_parameters_pass(self, tmp_path):
        cfg = write_config(tmp_path / "v.json", {"model": MODEL})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "verify.json").read_text())
        assert data["condition"]["satisfied"]
        assert data["verification"]["violations"] == 0
        k = data["constants"]
        assert k["K0"] > 0.0
        assert k["K2"] < k["K3"]
        assert k["K1"] == pytest.approx(data["spec"]["c1"])
        # at this certificate's R the almost-sure threshold overflows, so
        # the A5 sweep is skipped rather than run with a fake rate
        assert data["r0_threshold"]["overflow"]
        assert "skipped" in data["a5"]

    def test_corrupted_spec_fails(self, tmp_path):
        cfg = write_config(tmp_path / "v.json", {"model": MODEL})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--c3-scale", "100"]) == 3
        data = json.loads((out / "verify.json").read_text())
        assert data["verification"]["violations"] > 0

    @pytest.mark.parametrize("scale", ["inf", "nan", "0"])
    def test_unusable_c3_scale_exits_2(self, tmp_path, capsys, scale):
        # an infinite C3 would make every slack NaN, and NaN never counts
        # as a violation
        cfg = write_config(tmp_path / "v.json", {"model": MODEL})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--c3-scale", scale]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.glob("o/*"))

    def test_overflowing_threshold_at_wedge_radius(self, tmp_path):
        # the wedge gives R = 1e4 here, where e^(2R) overflows: the
        # threshold is written as null and the A5 sweep is skipped
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, beta=0.01)})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "verify.json").read_text())
        assert data["constants"]["wedge"]["kind"] == "region1"
        assert data["r0_threshold"]["log_value"] is None
        assert data["r0_threshold"]["overflow"]
        assert "skipped" in data["a5"]

    def test_a5_sweep_runs_below_overflow(self, tmp_path):
        # the slack route's R = sqrt(2) + 1 keeps the threshold finite
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, sigma=0.46, beta=0.04)})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "verify.json").read_text())
        assert not data["r0_threshold"]["overflow"]
        assert data["r0_threshold"]["log_value"] == pytest.approx(372.70,
                                                                  abs=0.01)
        assert data["a5"]["negative"] is True

    def test_no_feasible_constants(self, tmp_path, capsys):
        # condition II holds, but neither a wedge nor the slack route
        # gives constants: exit 3 with verify.json, as for the other
        # outcomes without a certificate
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, sigma=0.1, beta=0.06)})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert "no feasible" in capsys.readouterr().out
        data = json.loads((out / "verify.json").read_text())
        assert data["condition"]["satisfied"]
        assert data["outcome"].startswith("no feasible constants")
        assert "spec" not in data

    def test_non_explosive_gamma(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, gamma=0.4)})
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        assert "non-explosive" in capsys.readouterr().out

    def test_unsatisfied_condition(self, tmp_path):
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, beta=1.0)})
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        data = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert "curve_comparison" not in data  # no curve section given

    @pytest.mark.parametrize("beta, curve, holds", [
        (0.05, CURVE, True),
        (0.0, {"kind": "tabulated", "knots": [[0, 0.1], [10, 0.08]]}, False),
    ], ids=["flat", "decreasing"])
    def test_curve_comparison(self, tmp_path, beta, curve, holds):
        # a flat-curve certificate carries over to a curve only where
        # lambda' + beta lambda >= beta lambda(0)
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, beta=beta), "curve": curve})
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) in (0, 3)
        data = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert data["curve_comparison"] is holds


class TestOde:
    def test_blowup_run(self, tmp_path):
        cfg = write_config(tmp_path / "o.json", {
            "model": dict(MODEL, beta=0.0), "curve": CURVE,
            "ode": {"horizon": 100.0}})
        out = tmp_path / "out"
        assert main(["ode", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "ode.json").read_text())
        assert data["exploded"]
        assert data["t_exp"] == pytest.approx(47.03, abs=0.05)
        assert data["config"]["ode"] == {"horizon": 100.0, "tol": 1e-10}
        trace = (out / "ode_trace.csv").read_text().splitlines()
        assert trace[0] == "t,r,y"
        assert len(trace) == data["steps"] + 2 > 10
        assert data["nfev"] >= 6 * data["steps"] + 1

    def test_converging_run_reports_fixed_point(self, tmp_path):
        cfg = write_config(tmp_path / "o.json", {
            "model": dict(MODEL, beta=0.15), "curve": CURVE,
            "ode": {"horizon": 2000.0}})
        out = tmp_path / "out"
        assert main(["ode", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "ode.json").read_text())
        assert not data["exploded"]
        assert data["t_exp"] is None  # +inf serialized as null
        assert data["terminal"]["r"] == pytest.approx(data["fixed_point_r"],
                                                      rel=1e-6)

    @pytest.mark.parametrize("model, curve, r_end", [
        ({"vol_cap": 0.01}, CURVE, 0.10222),
        ({"displacement": 0.02}, CURVE, 0.11658),
        ({}, {"kind": "tabulated", "knots": [[0, 0.1], [10, 0.12]]}, 0.13658),
    ], ids=["vol_cap", "displacement", "tabulated"])
    def test_closed_forms_null_off_the_flat_model(self, tmp_path, model,
                                                  curve, r_end):
        # the flat, uncapped, undisplaced fixed point 0.11094 is not where
        # these runs end, so ode.json gives neither closed form
        cfg = write_config(tmp_path / "o.json", {
            "model": dict(MODEL, beta=0.15, **model), "curve": curve,
            "ode": {"horizon": 2000.0}})
        out = tmp_path / "out"
        assert main(["ode", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "ode.json").read_text())
        assert data["terminal"]["r"] == pytest.approx(r_end, abs=1e-5)
        assert data["beta_critical"] is None
        assert data["fixed_point_r"] is None

    def test_gamma_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "o.json", {
            "model": dict(MODEL, gamma=0.8), "curve": CURVE,
            "ode": {"horizon": 10.0}})
        assert main(["ode", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command, extra", [
    ("simulate", {}),
    ("ode", {"ode": {"horizon": 10.0}}),
    ("price", {"price": {"T": 1.0, "delta": 0.5}}),
])
def test_second_lambda0_exits_2(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path / "c.json", {
        "model": MODEL, "curve": {"kind": "flat", "lambda0": 0.3},
        "sim": {"dt": 0.01, "horizon": 2.0, "n_paths": 10, "seed": 1},
        **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: curve: ")


@pytest.mark.parametrize("command", ["simulate", "price", "verify", "region",
                                     "ode"])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exits_2(tmp_path, capsys, command, threads):
    cfg = write_config(tmp_path / "c.json", {
        "model": MODEL, "curve": CURVE, "sim": SIM, "region": REGION,
        "ode": {"horizon": 1.0}, "price": {"T": 0.5, "delta": 0.25}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x"),
                 "--threads", threads]) == 2
    assert capsys.readouterr().err.startswith("config error: threads ")


class TestImport:
    @pytest.mark.parametrize("module", ["model_core", "sde_engine",
                                        "ode_limit", "explosion_criteria",
                                        "pricing"])
    def test_every_exported_name_resolves(self, module):
        mod = getattr(qghjm, module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == []
        # the package re-exports each of them, as the same object
        stale = [name for name in mod.__all__
                 if getattr(qghjm, name, None) is not getattr(mod, name)]
        assert stale == []

    def test_cli_import_leaves_scipy_integrate_out(self):
        code = ("import sys, qghjm.cli; "
                "print('scipy.integrate' in sys.modules)")
        src = os.path.dirname(os.path.dirname(qghjm.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_ode_runs_without_scipy(self, tmp_path):
        # None in sys.modules makes every scipy import raise ImportError
        cfg = write_config(tmp_path / "o.json", {
            "model": MODEL, "curve": CURVE, "ode": {"horizon": 100.0}})
        code = ("import sys; sys.modules['scipy'] = None; "
                "from qghjm.cli import main; "
                f"sys.exit(main(['ode', '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]))")
        src = os.path.dirname(os.path.dirname(qghjm.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))
        data = json.loads((tmp_path / "out" / "ode.json").read_text())
        assert data["t_exp"] == pytest.approx(81.144, abs=1e-3)


class TestPrice:
    def test_futures_and_discount(self, tmp_path):
        cfg = write_config(tmp_path / "p.json", {
            "model": dict(MODEL, beta=0.2), "curve": CURVE,
            "sim": {"dt": 0.01, "horizon": 3.0, "n_paths": 500, "seed": 3},
            "price": {"T": 2.0, "delta": 0.5, "discount_check": True}})
        out = tmp_path / "out"
        assert main(["price", "--config", cfg, "--out", str(out)]) == 0
        fut = (out / "futures.csv").read_text().splitlines()
        assert fut[0] == "T,delta,estimate,std_error,n_exploded,diverged"
        est = float(fut[1].split(",")[2])
        assert est == pytest.approx(math.exp(0.1 * 0.5), rel=0.02)
        disc = json.loads((out / "discount.json").read_text())
        assert disc["rel_error"] < 0.02

    def test_one_simulation_serves_both(self, tmp_path, monkeypatch):
        model = dict(MODEL, beta=0.2)
        sim = {"dt": 0.01, "horizon": 3.0, "n_paths": 300, "seed": 4}
        cfg = write_config(tmp_path / "p.json", {
            "model": model, "curve": CURVE, "sim": sim,
            "price": {"T": 2.0, "delta": 0.5, "discount_check": True}})
        calls = []
        real = eng.simulate_batch

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(eng, "simulate_batch", counting)
        out = tmp_path / "out"
        assert main(["price", "--config", cfg, "--out", str(out)]) == 0
        monkeypatch.undo()
        assert len(calls) == 1 and calls[0]["want_discount"]

        p, s = ModelParams.from_json(model), SimConfig.from_json(sim)
        curve = ForwardCurve.from_json(CURVE)
        fut = eurodollar_futures(p, curve, s, 2.0, 0.5)
        chk = discount_consistency_check(p, curve, s, 2.0)
        for name, est, delta in (("futures.csv", fut, 0.5),
                                 ("discount.csv", chk, 0.0)):
            row = np.loadtxt(out / name, delimiter=",", skiprows=1)
            assert row.tolist() == [2.0, delta, est.mean, est.std_error,
                                    est.n_exploded, int(est.diverged)]

    def test_maturity_guard(self, tmp_path):
        cfg = write_config(tmp_path / "p.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {"dt": 0.01, "horizon": 1.0, "n_paths": 10, "seed": 3},
            "price": {"T": 0.9, "delta": 0.5}})
        assert main(["price", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
