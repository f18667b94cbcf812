"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qghjm
from qghjm import (ForwardCurve, ModelParams, SimConfig,
                   discount_consistency_check, eurodollar_futures)
from qghjm import cli
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

    def test_negative_seed_exits_2(self, sim_config, tmp_path, capsys):
        assert main(["simulate", "--config", sim_config,
                     "--out", str(tmp_path / "o"), "--seed", "-5"]) == 2
        assert "seed must be in [0, 2**64), got -5" in capsys.readouterr().err

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
    # two gammas that name the same region_gamma_0.6.csv
    ("region", "region", dict(REGION, gammas=[0.6, 0.6000001])),
    ("verify", "verify", {"condition": "III"}),
    # horizon/dt = 1e310 has no int64 step count (it raised OverflowError
    # in simulate and ValueError from np.arange in price)
    ("simulate", "sim", dict(SIM, dt=1e-300, horizon=1e10)),
    ("price", "sim", dict(SIM, dt=1e-300, horizon=1e10)),
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

    def test_exit_code_is_the_same_with_warnings_as_errors(self, tmp_path):
        # sigma 1e-160 gives slack rows with a subnormal f
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, sigma=1e-160, beta=0.0)})
        src = os.path.dirname(os.path.dirname(qghjm.__file__))
        codes = [subprocess.run(
            [sys.executable, "-m", "qghjm.cli", "verify", "--config", cfg,
             "--out", str(tmp_path / f"out{i}")], capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=flag)
        ).returncode for i, flag in enumerate(["", "error::RuntimeWarning"])]
        assert codes == [0, 0]

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
        # condition I's witness has R = 1e4 here, where e^(2R) overflows:
        # the threshold is written as null and the A5 sweep is skipped
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, beta=0.01),
                            "verify": {"condition": "I"}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "verify.json").read_text())
        assert data["constants"]["wedge"]["kind"] == "region1"
        assert data["r0_threshold"]["log_value"] is None
        assert data["r0_threshold"]["overflow"]
        assert "skipped" in data["a5"]

    def test_a5_sweep_runs_at_band_radius(self, tmp_path):
        # the same model under condition II: the band's first candidate
        # with 0 < lo < hi sits at R = 1 + sqrt(2), where the threshold is
        # finite and the A5 sweep runs
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, beta=0.01)})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "verify.json").read_text())
        assert data["spec"]["R"] == pytest.approx(1.0 + math.sqrt(2.0),
                                                  rel=1e-12)
        assert not data["r0_threshold"]["overflow"]
        assert data["r0_threshold"]["log_value"] == pytest.approx(453.64,
                                                                  abs=0.01)
        assert data["a5"]["negative"] is True

    def test_a5_sweep_runs_below_overflow(self, tmp_path):
        # the ratio band is non-empty at condition II's witness, so the
        # spec keeps its R = 2.2867, where the threshold is finite
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, sigma=0.46, beta=0.04)})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "verify.json").read_text())
        assert not data["r0_threshold"]["overflow"]
        assert data["r0_threshold"]["log_value"] == pytest.approx(278.80,
                                                                  abs=0.01)
        assert data["a5"]["negative"] is True

    def test_no_feasible_constants(self, tmp_path, capsys):
        # condition II holds, but no candidate's ratio band gives
        # constants: exit 3 with verify.json, as for the other
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

    @pytest.mark.parametrize("condition", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.05, 0.0, 0.01])
    def test_vol_cap_has_no_constants(self, tmp_path, capsys, beta,
                                      condition):
        # a capped volatility cannot explode, whatever the condition's
        # scalar test says: the verdict of gamma <= 1/2, not "satisfied"
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, beta=beta, vol_cap=5.0),
                            "verify": {"condition": condition}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        line = capsys.readouterr().out
        assert line.startswith("non-explosive regime: ") and "vol_cap" in line
        data = json.loads((out / "verify.json").read_text())
        assert data["outcome"] == line.strip()
        assert "condition" not in data and "spec" not in data

    def test_unknown_condition_exits_2_at_gamma_below_half(self, tmp_path,
                                                          capsys):
        # check_condition tests which before gamma, so a bad name exits 2
        # before the non-explosive verdict (exit 3 with verify.json)
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, gamma=0.4),
                            "verify": {"condition": "III"}})
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "condition must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("condition", ["I", "II"])
    @pytest.mark.parametrize("sigma", [1e160, 1e200])
    def test_overflowing_sigma_squared_is_unsatisfied(self, tmp_path, capsys,
                                                      sigma, condition):
        # sigma^2 overflows a double: read as inf, no condition can hold
        cfg = write_config(tmp_path / "v.json",
                           {"model": dict(MODEL, sigma=sigma),
                            "verify": {"condition": condition}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().out == (f"condition {condition} "
                                           "unsatisfied (sup value -inf)\n")
        data = json.loads((out / "verify.json").read_text())
        assert data["outcome"] == "condition unsatisfied"
        assert data["condition"]["sup_value"] is None  # -inf, as JSON null

    @pytest.mark.parametrize("beta, code", [(0.0, 0), (0.05, 3)])
    def test_condition_i_with_epsilon_above_scan_top(self, tmp_path, capsys,
                                                     beta, code):
        # epsilon 2e4 lies above condition I's R scan top 1e4: R runs over
        # [epsilon, epsilon], never below epsilon
        cfg = write_config(tmp_path / "v.json", {
            "model": dict(MODEL, beta=beta, epsilon=2e4, lambda0=4e4),
            "verify": {"condition": "I"}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == code
        data = json.loads((out / "verify.json").read_text())
        if code == 0:
            assert data["condition"]["witness_R"] >= 2e4
            assert data["verification"]["violations"] == 0
        else:
            assert capsys.readouterr().out.startswith("condition I unsatisfied")
            assert data["outcome"] == "condition unsatisfied"

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
        assert data["config"]["ode"] == {"horizon": 100.0}
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


@pytest.mark.parametrize("command, sim", [
    ("simulate", dict(SIM, n_paths=2 ** 62)),
    ("simulate", dict(SIM, dt=1.0, horizon=2.3e18)),
    ("price", dict(SIM, dt=1.0, horizon=2.3e18)),
])
def test_count_past_largest_array_exits_2(tmp_path, capsys, command, sim):
    # a float64 array of 2**60 entries is 2**63 bytes, past numpy's largest
    # array: the config check rejects these counts before any array is made
    cfg = write_config(tmp_path / "c.json", {
        "model": MODEL, "curve": CURVE, "sim": sim,
        "price": {"T": 2.0, "delta": 0.5}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "2**60" in err
    assert not list(tmp_path.glob("o/*"))  # no partial output


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "sim", dict(SIM, n_paths=2 ** 59)),
    ("price", "sim", dict(SIM, n_paths=2 ** 59)),
    ("region", "region", dict(REGION, sigma={"start": 0.1, "stop": 1.0,
                                             "num": 2 ** 59})),
])
def test_run_too_large_to_allocate_exits_2(tmp_path, capsys, command,
                                           section, value):
    # counts the config accepts, but 2**59 float64 entries are 4 EiB: no
    # machine can allocate them, under any overcommit setting
    obj = {"model": MODEL, "curve": CURVE, "sim": SIM, "region": REGION,
           "price": {"T": 0.5, "delta": 0.25, "discount_check": True}}
    cfg = write_config(tmp_path / "c.json", dict(obj, **{section: value}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: not enough memory: ")
    assert not list(tmp_path.glob("o/*"))  # no data file


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


COMMANDS = ["simulate", "price", "verify", "region", "ode"]


@pytest.mark.parametrize("command, extra", [
    ("simulate", {}),
    ("price", {"price": {"T": 0.5, "delta": 0.25}}),
])
def test_seed_flag_replaces_sim_seed(tmp_path, command, extra):
    outs = {}
    for name, seed, flag in (("cfg7", 7, []), ("flag7", 1, ["--seed", "7"]),
                             ("cfg1", 1, [])):
        cfg = write_config(tmp_path / f"{name}.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {**SIM, "n_paths": 20, "seed": seed}, **extra})
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out), *flag]) == 0
        outs[name] = sorted((f.name, f.read_bytes()) for f in out.iterdir())
    assert outs["flag7"] == outs["cfg7"] != outs["cfg1"]


@pytest.mark.parametrize("command", ["verify", "region", "ode"])
def test_seed_flag_exits_2(tmp_path, capsys, command):
    # these subcommands run no paths, so --seed is an unknown argument
    cfg = write_config(tmp_path / "c.json", {
        "model": MODEL, "curve": CURVE, "sim": SIM, "region": REGION,
        "ode": {"horizon": 1.0}, "price": {"T": 0.5, "delta": 0.25}})
    with pytest.raises(SystemExit) as e:
        main([command, "--config", cfg, "--out", str(tmp_path / "x"),
              "--seed", "5"])
    assert e.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exits_2(tmp_path, capsys, command, threads):
    cfg = write_config(tmp_path / "c.json", {
        "model": MODEL, "curve": CURVE, "sim": SIM, "region": REGION,
        "ode": {"horizon": 1.0}, "price": {"T": 0.5, "delta": 0.25}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x"),
                 "--threads", threads]) == 2
    assert capsys.readouterr().err.startswith("config error: threads ")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command,
                                                under_file):
    # an existing file raised FileExistsError from os.makedirs, and a
    # path under one NotADirectoryError, each as a traceback with exit 1
    cfg = write_config(tmp_path / "c.json", {
        "model": MODEL, "curve": CURVE, "sim": SIM, "region": REGION,
        "ode": {"horizon": 1.0}, "price": {"T": 0.5, "delta": 0.25}})
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "sub" if under_file else taken
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create {out}: ")
    assert err.count("\n") == 1
    assert taken.read_text() == "kept"


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

    @pytest.mark.parametrize("T", [0.0, 0.005])
    def test_maturity_below_one_step_exits_2(self, tmp_path, capsys, T):
        cfg = write_config(tmp_path / "p.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {"dt": 0.01, "horizon": 1.0, "n_paths": 10, "seed": 3},
            "price": {"T": T, "delta": 0.5}})
        out = tmp_path / "x"
        assert main(["price", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: T must be >= dt, got T={T} dt=0.01\n")
        assert not (out / "futures.csv").exists()

    def test_maturity_guard(self, tmp_path):
        cfg = write_config(tmp_path / "p.json", {
            "model": MODEL, "curve": CURVE,
            "sim": {"dt": 0.01, "horizon": 1.0, "n_paths": 10, "seed": 3},
            "price": {"T": 0.9, "delta": 0.5}})
        assert main(["price", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    """The README names exactly the config keys and flags the parser
    accepts: no more, no fewer."""

    def test_config_table_matches_parser(self):
        rows = {}  # section -> (keys, bold required keys)
        for line in README.read_text().splitlines():
            m = re.fullmatch(r"\| `(\w+)` \| (.*) \| .* \|", line)
            if m:
                # parentheses hold defaults, ranges and sub-keys
                keys = re.sub(r"\((?:[^()]|\([^()]*\))*\)", "", m[2])
                rows[m[1]] = (set(re.findall(r"`(\w+)`", keys)),
                              set(re.findall(r"\*\*`(\w+)`\*\*", keys)))
        assert set(rows) == {*cli._PARSERS, *cli._COMMANDS}
        expect = {name: (set(keys), set(required))
                  for name, (_, _, keys, required, _) in cli._COMMANDS.items()}
        for name, cls in (("model", ModelParams), ("sim", SimConfig)):
            fields = dataclasses.fields(cls)
            expect[name] = ({f.name for f in fields},
                            {f.name for f in fields
                             if f.default is dataclasses.MISSING})
        for name in expect:
            assert rows[name] == expect[name], name

    def test_config_table_read_by_matches_commands(self):
        # the "read by" column: the commands that read a section, then
        # "; X when given" for one that reads it only when it is present
        rows = {}
        for line in README.read_text().splitlines():
            m = re.fullmatch(r"\| `(\w+)` \| .* \| ([\w ,;]+) \|", line)
            if m:
                always, *given = m[2].split("; ")
                rows[m[1]] = (set(always.split(", ")),
                              {g.removesuffix(" when given") for g in given})
        expect = {name: (set(), set()) for name in cli._PARSERS}
        for name, (reads, optional, *_) in cli._COMMANDS.items():
            expect[name] = ({name}, set())
            for section in reads:
                expect[section][0].add(name)
            for section in optional:
                expect[section][1].add(name)
        assert rows == expect

    def test_cli_synopsis_matches_parser(self):
        text = README.read_text()
        block = text[text.index("## CLI"):].split("```")[1].strip()
        named = {}  # command -> flags its synopsis lines name
        for entry in re.split(r"\n(?=qghjm )", block):
            for command in entry.split()[1].split("|"):
                named.setdefault(command, set()).update(
                    re.findall(r"--[\w-]+", entry))
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        accepted = {name: {o for a in sp._actions for o in a.option_strings}
                    - {"-h", "--help"} for name, sp in sub.choices.items()}
        assert named == accepted

    def test_region_grid_ends_with_the_band_closed(self, tmp_path):
        # the example grid ends at sigma = 1.45, past sqrt(2), where
        # J'(0+) = 1 - sigma^2/2 < 0: beta_max and delta2* are exactly 0
        text = README.read_text()
        block = text[text.index("Example config covering"):]
        cfg = json.loads(block.split("```json")[1].split("```")[0])
        path = write_config(tmp_path / "cfg.json", {"region": cfg["region"]})
        out = tmp_path / "out"
        assert main(["region", "--config", path, "--out", str(out)]) == 0
        for g in cfg["region"]["gammas"]:
            rows = np.loadtxt(out / f"region_gamma_{g:g}.csv", delimiter=",",
                              skiprows=1)
            assert rows.shape == (28, 3)
            assert list(rows[-1]) == [1.45, 0.0, 0.0]
