"""End-to-end command-line workflows on temporary directories."""

import json

import numpy as np
import pytest

from edforecast.cli import main
from edforecast.data import lag_embed, load_series_csv
from edforecast.network import load_json as load_net
from edforecast.train import WeightFn, naive_predict


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_series(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json",
                    {"model": "low_d", "n": 50, "burn_in": 20, "out_csv": "s.csv"})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
    series = load_series_csv(tmp_path / "s.csv")
    assert series.shape == (50, 5)
    assert (tmp_path / "s.csv.json").exists()


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json",
                    {"model": "low_d", "n": 30, "burn_in": 10, "seed": 5})
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "series.csv").read_bytes() == \
        (tmp_path / "b" / "series.csv").read_bytes()


def test_simulate_rejects_short_series(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 1})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2


def test_unknown_config_key_rejected_with_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 50, "typo": 1})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
    assert "typo" in capsys.readouterr().err


def test_train_epochs_zero_keeps_initial_net(tmp_path):
    sim = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 80, "burn_in": 20})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "r": 1,
        "arch": {"p": [5, 8, 1, 8, 5], "L1": 2},
        "train": {"epochs": 0, "lr_schedule": [[0, 0.01]], "seed": 3},
        "out_model": "model.json",
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    net = load_net(tmp_path / "model.json")
    from edforecast.network import Architecture
    from edforecast.train import init_network
    ref = init_network(Architecture(3, (5, 8, 1, 8, 5), L1=2), 3)
    for a, b in zip(net.weights, ref.weights):
        assert np.array_equal(a, b)


def test_train_and_evaluate_roundtrip(tmp_path):
    sim = write_cfg(tmp_path, "sim.json",
                    {"model": "low_d", "n": 400, "burn_in": 100, "seed": 2})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "train_fraction": 0.5,
        "r": 1,
        "arch": {"p": [5, 10, 1, 10, 5], "L1": 2},
        "train": {"epochs": 3, "lr_schedule": [[0, 0.002]], "batch_size": 1,
                  "seed": 0, "l2_lambda": 1e-5},
        "out_model": "model.json",
        "out_curve": "curve.csv",
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    assert (tmp_path / "curve.csv").read_text().count("\n") >= 4

    ev = write_cfg(tmp_path, "eval.json", {
        "model_json": str(tmp_path / "model.json"),
        "test_csv": str(tmp_path / "series.csv"),
        "k_steps": [1, 3],
        "out_json": "metrics.json",
    })
    assert run(["evaluate", "--config", ev, "--out", tmp_path]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    # naive baseline agrees with the library computation
    series = load_series_csv(tmp_path / "series.csv")
    expect = naive_predict(lag_embed(series, 1), WeightFn())
    assert metrics["naive_risk"] == pytest.approx(expect, rel=1e-12)
    assert len(metrics["k_step_mse"]["3"]) == 3


def test_evaluate_lag_mismatch_is_config_error(tmp_path):
    sim = write_cfg(tmp_path, "sim.json", {"model": {"kind": "zero", "d": 3}, "n": 40})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "r": 1,
        "arch": {"p": [3, 4, 3], "L1": 1},
        "train": {"epochs": 0},
        "out_model": "model.json",
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    sim2 = write_cfg(tmp_path, "sim2.json",
                     {"model": {"kind": "zero", "d": 2}, "n": 40, "out_csv": "s2.csv"})
    assert run(["simulate", "--config", sim2, "--out", tmp_path]) == 0
    ev = write_cfg(tmp_path, "eval.json", {
        "model_json": str(tmp_path / "model.json"),
        "test_csv": str(tmp_path / "s2.csv"),
    })
    assert run(["evaluate", "--config", ev, "--out", tmp_path]) == 2


def test_certify_zero_target(tmp_path):
    cfg = write_cfg(tmp_path, "cert.json",
                    {"target": "zero", "N": 10, "m": 6, "out_json": "cert.json"})
    assert run(["certify", "--config", cfg, "--out", tmp_path]) == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["measured_sup"] <= 1e-9
    assert cert["measured_sup"] <= cert["sup_bound"]


def test_certify_small_n_cites_requirement(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cert.json", {"target": "product2", "N": 5, "m": 6})
    assert run(["certify", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "(beta+1)^t" in err and "(K+1) e^t" in err


def test_certify_unknown_target(tmp_path):
    cfg = write_cfg(tmp_path, "cert.json", {"target": "mystery", "N": 10, "m": 6})
    assert run(["certify", "--config", cfg, "--out", tmp_path]) == 2


def test_rates_independent_lambda_equals_x(tmp_path):
    cfg = write_cfg(tmp_path, "rates.json", {
        "dependence": {"kind": "independent"},
        "profile": {"beta": 1.0, "t": 1},
        "x_grid": {"min": 1e-4, "max": 1.0, "points": 9},
        "n_values": [10000],
        "out_lambda_csv": "lam.csv",
        "out_rates_csv": "nr.csv",
    })
    assert run(["rates", "--config", cfg, "--out", tmp_path]) == 0
    rows = [ln for ln in (tmp_path / "lam.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    for row in rows:
        x, lam, env = (float(v) for v in row.split(","))
        assert lam == x and env == x
    n_rows = [ln for ln in (tmp_path / "nr.csv").read_text().splitlines()
              if ln and not ln.startswith("#")][1:]
    # A=1, alpha defaults to 2 for the independent table: N(10^4) = 10
    assert n_rows[0].startswith("10000,10,")


def test_rates_polynomial_envelope_dominates(tmp_path):
    cfg = write_cfg(tmp_path, "rates.json", {
        "dependence": {"kind": "mixing_polynomial", "alpha": 2.0},
        "profile": {"beta": 1.0, "t": 1},
        "x_grid": {"min": 1e-5, "max": 10.0, "points": 12},
        "out_lambda_csv": "lam.csv",
        "out_rates_csv": "nr.csv",
    })
    assert run(["rates", "--config", cfg, "--out", tmp_path]) == 0
    rows = [ln for ln in (tmp_path / "lam.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    for row in rows:
        x, lam, env = (float(v) for v in row.split(","))
        assert env >= lam


def test_rates_rejects_negative_kappa(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "rates.json", {
        "dependence": {"kind": "fdm_polynomial", "alpha": 2.0, "kappa": -1.0},
        "profile": {"beta": 1.0, "t": 1},
    })
    assert run(["rates", "--config", cfg, "--out", tmp_path]) == 2
    assert "dependence: kappa" in capsys.readouterr().err


def test_sweep_emits_grid_table(tmp_path):
    sim = write_cfg(tmp_path, "sim.json",
                    {"model": "seasonal", "n": 160, "burn_in": 100, "seed": 4})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "train_fraction": 0.5,
        "train": {"epochs": 1, "lr_schedule": [[0, 0.001]], "batch_size": 8},
        "sweep": {"r_values": [1, 2], "m_values": [4, 6], "runs": 2,
                  "out_table": "sweep.csv"},
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    lines = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0] == "r,m,run1,run2"
    assert len(lines) == 1 + 4
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert {"best", "naive_risk"} <= set(summary)


def test_fetch_note_flag(capsys):
    assert run(["train", "--fetch-note"]) == 0
    assert "opendata.dwd.de" in capsys.readouterr().out
