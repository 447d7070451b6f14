"""End-to-end command-line workflows on temporary directories."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edforecast import data as data_module, network
from edforecast.cli import main
from edforecast.data import fit_scaler, lag_embed, load_series_csv
from edforecast.network import Architecture, load_json as load_net
from edforecast.train import (TrainConfig, WeightFn, empirical_risk, init_network,
                              multi_step_forecast, naive_predict, train_sgd)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records each call's second
    argument (the rows of ``eval_batch``, the lag count of ``lag_embed``)."""
    seen, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return seen


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


def test_all_commands_deterministic_bytes(tmp_path, monkeypatch):
    # every path in the configs is relative to the run directory, so both
    # runs see identical configs and write identical provenance headers
    steps = [
        ("simulate", "sim.json", {"model": "low_d", "n": 80, "burn_in": 20}),
        ("train", "train.json", {
            "train_csv": "series.csv", "train_fraction": 0.5, "normalize": True,
            "arch": {"p": [5, 6, 1, 6, 5], "L1": 2},
            "train": {"epochs": 2, "lr_schedule": [[0, 0.01]], "l2_lambda": 1e-5}}),
        ("train", "sweep.json", {
            "train_csv": "series.csv", "train_fraction": 0.5,
            "train": {"epochs": 1, "lr_schedule": [[0, 0.01]]},
            "sweep": {"r_values": [1, 2], "m_values": [2], "runs": 2}}),
        ("evaluate", "eval.json", {"model_json": "model.json", "test_csv": "series.csv",
                                   "k_steps": [1, 3]}),
        ("certify", "cert.json", {"target": "linear", "N": 10, "m": 6}),
        ("rates", "rates.json", {
            "dependence": {"kind": "fdm_polynomial", "alpha": 2.0},
            "profile": {"beta": 2.0, "t": 2},
            "x_grid": {"min": 1e-4, "max": 0.5, "points": 3}, "n_values": [1000]}),
    ]
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        for command, config, payload in steps:
            Path(config).write_text(json.dumps(payload))
            assert run([command, "--config", config, "--out", ".", "--seed", 9]) == 0
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
    artifacts = {"series.csv", "series.csv.json", "model.json", "model.meta.json",
                 "curve.csv", "sweep.csv", "sweep.summary.json", "metrics.json",
                 "certificate.json", "lambda.csv", "rates.csv"}
    assert artifacts <= set(written)
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


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


def test_pruned_train_reports_the_risks_of_the_saved_net(tmp_path, capsys):
    # the net is pruned after its last epoch; the sidecar and the printed line
    # give the risks of the pruned net that model.json holds, bit for bit
    sim = write_cfg(tmp_path, "sim.json",
                    {"model": "low_d", "n": 600, "burn_in": 200, "seed": 1})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "train_fraction": 0.75,
        "arch": {"p": [5, 20, 10, 5]},
        "train": {"epochs": 10, "lr_schedule": [[0, 0.003]], "prune_to_s": 20}})
    capsys.readouterr()
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    net = load_net(tmp_path / "model.json")
    assert net.sparsity() <= 20
    series = load_series_csv(tmp_path / "series.csv")
    train_part, test_part = lag_embed(series[:450], 1), lag_embed(series[450:], 1)
    train_risk = empirical_risk(net.eval_batch(train_part.X), train_part, WeightFn())
    test_risk = empirical_risk(net.eval_batch(test_part.X), test_part, WeightFn())
    meta = json.loads((tmp_path / "model.meta.json").read_text())
    assert (meta["final_train_risk"], meta["final_test_risk"]) == (train_risk, test_risk)
    assert (f"final train risk {train_risk:.6g}, test risk {test_risk:.6g}"
            in capsys.readouterr().out)


@pytest.mark.parametrize("bad_row,reason", [
    ("4,0.5", "has 2 fields, not 3"),
    ("4,nan,0.5", "is not finite"),
    ("4,abc,0.5", "has a non-numeric field"),
])
def test_train_rejects_malformed_series_row_with_its_line(tmp_path, capsys, bad_row, reason):
    # line 1 is a provenance comment, line 2 the header; the bad row is line 6
    rows = ["# seed=0", "t,x1,x2", "1,0.1,0.2", "2,0.3,0.4", "3,0.5,0.6", bad_row,
            "5,0.7,0.8"]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "arch": {"p": [2, 4, 2]},
        "train": {"epochs": 1},
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "line 6 " in err and reason in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_series_without_a_value_column_is_config_error(tmp_path, capsys, command):
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "bare.csv").write_text("t\n" + "".join(f"{i}\n" for i in range(1, 9)))
    bare = str(tmp_path / "bare.csv")
    if command == "evaluate":
        net = write_cfg(tmp_path, "net.json", {"train_csv": str(tmp_path / "series.csv"),
                                               "arch": {"p": [2, 3, 2]}, "train": {"epochs": 0}})
        assert run(["train", "--config", net, "--out", tmp_path]) == 0
        payload = {"model_json": str(tmp_path / "model.json"), "test_csv": bare}
    else:
        # a sweep reads the value count from the series, not from an architecture
        payload = {"train_csv": bare, "train": {"epochs": 1},
                   "sweep": {"r_values": [1], "m_values": [2]}}
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"config error: {bare}: unexpected series header ['t']" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["train_csv", "test_csv", "model_json"])
def test_missing_input_file_is_config_error_naming_its_field(tmp_path, capsys, field):
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    series, missing = str(tmp_path / "series.csv"), str(tmp_path / "nope.file")
    if field == "model_json":
        command, payload = "evaluate", {"model_json": missing, "test_csv": series}
    else:
        command, payload = "train", {"train_csv": series, "arch": {"p": [2, 3, 2]},
                                     "train": {"epochs": 0}, field: missing}
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert run([command, "--config", cfg, "--out", tmp_path]) == 2
    assert f"{field}: file not found: {missing}" in capsys.readouterr().err


def test_train_and_evaluate_roundtrip(tmp_path, capsys):
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
    # 399 one-step residuals: their mean is the risk (which divides by n = 400) x 400/399
    assert metrics["k_step_mse"]["1"][0] == pytest.approx(
        metrics["empirical_risk"] * 400 / 399, rel=1e-12)
    too_long = write_cfg(tmp_path, "eval_long.json", {
        "model_json": str(tmp_path / "model.json"),
        "test_csv": str(tmp_path / "series.csv"),
        "k_steps": [400],
    })
    capsys.readouterr()
    assert run(["evaluate", "--config", too_long, "--out", tmp_path]) == 2
    assert "k_steps: horizon 400 exceeds test sample count 399" in capsys.readouterr().err


def test_evaluate_runs_each_distinct_horizon_once(tmp_path, monkeypatch):
    # k_steps [3, 1, 3]: one forecast of 3 steps, whose first also gives the
    # risk and every horizon's first error; the repeated 3 is not run again,
    # and the metrics are those of [1, 3]
    monkeypatch.chdir(tmp_path)
    sim = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 120, "seed": 2})
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": "series.csv", "arch": {"p": [5, 6, 5]},
        "train": {"epochs": 1, "lr_schedule": [[0, 0.01]]}})
    assert run(["simulate", "--config", sim]) == 0 and run(["train", "--config", train]) == 0
    metrics, evals = {}, count_calls(monkeypatch, network.Network, "eval_batch")
    for name, k_steps in (("sorted", [1, 3]), ("repeated", [3, 1, 3])):
        ev = write_cfg(tmp_path, f"{name}.json", {
            "model_json": "model.json", "test_csv": "series.csv", "k_steps": k_steps,
            "out_json": f"{name}.metrics.json"})
        evals.clear()
        assert run(["evaluate", "--config", ev]) == 0
        assert len(evals) == 3
        metrics[name] = json.loads((tmp_path / f"{name}.metrics.json").read_text())
    assert metrics["repeated"]["k_step_mse"] == metrics["sorted"]["k_step_mse"]
    assert metrics["repeated"]["empirical_risk"] == metrics["sorted"]["empirical_risk"]
    # the same bits as a forecast per horizon from only the starts it scores
    net, data = load_net("model.json"), lag_embed(load_series_csv("series.csv"), 1)
    assert metrics["sorted"]["empirical_risk"] == empirical_risk(
        net.eval_batch(data.X), data, WeightFn())
    for k in (1, 3):
        m = len(data) - (k - 1)
        assert metrics["sorted"]["k_step_mse"][str(k)] == [
            float(np.mean(np.sum((pred - data.Y[j : j + m]) ** 2, axis=1) / data.d))
            for j, pred in enumerate(multi_step_forecast(net, data.X[:m], k))]


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


def test_evaluate_output_dim_mismatch_is_config_error(tmp_path, capsys):
    # input dim 4 divides the series dimension 2, but the 4 outputs cannot match it
    sim = write_cfg(tmp_path, "sim.json", {"model": {"kind": "zero", "d": 4}, "n": 40})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "arch": {"p": [4, 3, 4]}, "train": {"epochs": 0},
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    sim2 = write_cfg(tmp_path, "sim2.json",
                     {"model": {"kind": "zero", "d": 2}, "n": 40, "out_csv": "s2.csv"})
    assert run(["simulate", "--config", sim2, "--out", tmp_path]) == 0
    ev = write_cfg(tmp_path, "eval.json", {
        "model_json": str(tmp_path / "model.json"), "test_csv": str(tmp_path / "s2.csv"),
    })
    capsys.readouterr()
    assert run(["evaluate", "--config", ev, "--out", tmp_path]) == 2
    assert "network dims 4 -> 4 do not match series dimension 2" in capsys.readouterr().err


def test_evaluate_rejects_non_finite_model(tmp_path):
    sim = write_cfg(tmp_path, "sim.json", {"model": {"kind": "zero", "d": 2}, "n": 40})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"),
        "r": 1,
        "arch": {"p": [2, 3, 2], "L1": 1},
        "train": {"epochs": 0},
        "out_model": "model.json",
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["weights"][1][0][0] = float("nan")
    (tmp_path / "model.json").write_text(json.dumps(doc))
    ev = write_cfg(tmp_path, "eval.json", {
        "model_json": str(tmp_path / "model.json"),
        "test_csv": str(tmp_path / "series.csv"),
    })
    assert run(["evaluate", "--config", ev, "--out", tmp_path]) == 2


def test_cli_import_leaves_scipy_unloaded():
    # no command imports scipy, a test dependency only
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import edforecast.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_cli_import_builds_no_parser():
    # the argument parser is built on the first call to main
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import edforecast.cli as c; assert c._parser.cache_info().currsize == 0"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_neither_scipy_nor_the_thread_pool():
    # both are imported on first use, so importing the CLI stays cheap
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, edforecast.cli; "
            "assert 'scipy' not in sys.modules and 'concurrent.futures' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def loaded_modules(tmp_path, code):
    """The edforecast modules a fresh interpreter holds after running ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n" + code + "\nprint(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'edforecast')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split("\n")[-2].split())


def test_cli_import_loads_no_library_module(tmp_path):
    assert loaded_modules(tmp_path, "import edforecast.cli") == {
        "edforecast", "edforecast.cli"}


@pytest.mark.parametrize("command, modules", [
    ("simulate", {"simulate", "data"}),
    ("train", {"train", "network", "data"}),
    ("evaluate", {"train", "network", "data"}),
    ("certify", {"approx", "network"}),
    ("rates", {"rates", "data"}),
])
def test_each_command_loads_only_its_modules(tmp_path, monkeypatch, command, modules):
    # a command imports the library modules it runs when it runs, so that
    # a fresh interpreter pays only for those
    argv = [command, *strict_setup(tmp_path, monkeypatch, command, "seed", 0)]
    code = f"from edforecast.cli import main\nassert main({argv!r}) == 0\n"
    assert loaded_modules(tmp_path, code) == {
        "edforecast", "edforecast.cli", *(f"edforecast.{m}" for m in modules)}


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import made to fail, each
    # command still runs and writes its artifacts
    src = Path(__file__).resolve().parents[1] / "src"
    steps = [
        ("simulate", {"model": "low_d", "n": 60, "burn_in": 10}),
        ("train", {"train_csv": "series.csv", "train_fraction": 0.5,
                   "arch": {"p": [5, 4, 5]}, "train": {"epochs": 1}}),
        ("evaluate", {"model_json": "model.json", "test_csv": "series.csv"}),
        ("certify", {"target": "product2", "N": 23, "m": 4}),
        ("rates", {"dependence": {"kind": "independent"}, "profile": {"beta": 1.0, "t": 1},
                   "x_grid": {"min": 1e-3, "max": 0.5, "points": 2}, "n_values": [1000]}),
    ]
    argv = []
    for command, payload in steps:
        (tmp_path / f"{command}.json").write_text(json.dumps(payload))
        argv.append([command, "--config", f"{command}.json", "--out", "."])
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from edforecast.cli import main\n"
            f"for argv in {argv!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert sys.modules['scipy'] is None\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = {p.name for p in tmp_path.iterdir()}
    assert {"series.csv", "model.json", "curve.csv", "metrics.json", "certificate.json",
            "lambda.csv", "rates.csv"} <= written


def test_negative_seed_flag_is_refused(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cert.json", {"target": "linear", "N": 10, "m": 6})
    with pytest.raises(SystemExit) as exc:
        run(["certify", "--config", cfg, "--out", tmp_path, "--seed", "-5"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_certificate_bytes_do_not_depend_on_the_chunk_count(tmp_path, monkeypatch):
    # a grouped product's rounding may depend on how many columns it is
    # given; every split of the rows must still write the same certificate
    cfg = write_cfg(tmp_path, "cert.json", {"target": "sinsum", "N": 25, "m": 12})
    written = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(network, "_cpus", lambda c=cpus: c)
        assert run(["certify", "--config", cfg, "--out", tmp_path / str(cpus)]) == 0
        written.append((tmp_path / str(cpus) / "certificate.json").read_bytes())
    assert written[0] == written[1] == written[2]


def test_main_runs_several_commands_in_one_process(tmp_path, capsys):
    rates = write_cfg(tmp_path, "rates.json", {
        "dependence": {"kind": "independent"}, "profile": {"beta": 2.0, "t": 2},
        "x_grid": {"min": 1e-3, "max": 0.5, "points": 3}, "n_values": [1000]})
    sim = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 30, "burn_in": 10})
    assert run(["rates", "--config", rates, "--out", tmp_path / "a"]) == 0
    assert run(["simulate", "--config", sim, "--out", tmp_path / "a", "--seed", 3]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--config", sim, "--seed", "three"])
    assert exc.value.code == 2
    assert "--seed: invalid int value" in capsys.readouterr().err
    # nothing of one invocation carries into the next
    assert run(["rates", "--config", rates, "--out", tmp_path / "b"]) == 0
    assert run(["simulate", "--config", sim, "--out", tmp_path / "b", "--seed", 3]) == 0
    for name in ("lambda.csv", "rates.csv", "series.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


@pytest.mark.parametrize("f_bound, message", [
    (-5, "f_bound: must be finite and > 0, got -5.0"),
    (0, "f_bound: must be finite and > 0, got 0.0"),
    ("five", "f_bound: invalid value 'five'"),
])
def test_certify_rejects_bad_f_bound(tmp_path, capsys, f_bound, message):
    cfg = write_cfg(tmp_path, "cert.json",
                    {"target": "linear", "N": 10, "m": 6, "f_bound": f_bound})
    assert run(["certify", "--config", cfg, "--out", tmp_path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_certify_reads_f_bound_as_a_number(tmp_path):
    certs = []
    for name, f_bound in (("text", "5"), ("number", 5.0)):
        cfg = write_cfg(tmp_path, f"{name}.json", {"target": "linear", "N": 10, "m": 6,
                                                   "f_bound": f_bound,
                                                   "out_json": f"{name}.out.json"})
        assert run(["certify", "--config", cfg, "--out", tmp_path]) == 0
        certs.append(json.loads((tmp_path / f"{name}.out.json").read_text()))
    for cert in certs:
        del cert["_provenance"]
    assert certs[0] == certs[1]


def test_certify_large_certificate_stays_small_in_memory(tmp_path):
    # the block-diagonal layers stay groups of repeated blocks from assembly
    # to the forward kernel; held densely, as they once were, this command
    # peaked at about 400 MB
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = write_cfg(tmp_path, "cert.json", {"target": "sinsum", "N": 200, "m": 12})
    # the child's own peak, VmHWM, in kB: Linux keeps ru_maxrss across exec, so
    # there it would report the pytest process's peak if that were higher;
    # without /proc (macOS) the child reads ru_maxrss (bytes on macOS)
    code = ("import resource, sys\n"
            "from edforecast.cli import main\n"
            f"rc = main(['certify', '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
            "try:\n"
            "    with open('/proc/self/status') as status:\n"
            "        kb = next(int(ln.split()[1]) for ln in status if ln.startswith('VmHWM:'))\n"
            "except OSError:\n"
            "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    kb /= 1024 if sys.platform == 'darwin' else 1\n"
            "print(rc, kb)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rc, kb = proc.stdout.split()[-2:]
    peak_mb = float(kb) / 1024.0
    assert rc == "0"
    assert peak_mb < 150.0, f"certify sinsum N=200 m=12 peaked at {peak_mb:.1f} MB"
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert (cert["depth"], cert["sparsity"]) == (32, 98423)


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


@pytest.mark.parametrize("section, spec, message", [
    ("dependence", {"kind": "mixing_polynomial", "alpha": 2.0, "rho": 0.5},
     "mixing_polynomial() got an unexpected keyword argument 'rho'"),
    ("dependence", {"kind": "independent", "alpha": 2.0},
     "independent() got an unexpected keyword argument 'alpha'"),
    ("dependence", {"kind": "fdm_exponential", "rho": 0.5, "alpha": 2.0},
     "fdm_exponential() got an unexpected keyword argument 'alpha'"),
    ("dependence", {"kind": "mixing_weird"}, "unknown kind 'mixing_weird'; choose from"),
    ("model", {"kind": "zero", "d": 2, "period": 5},
     "zero_model() got an unexpected keyword argument 'period'"),
    # a mixing kind's coefficients have the constant 1; only the fdm kinds scale Delta
    ("dependence", {"kind": "mixing_polynomial", "alpha": 2.0, "kappa": 5.0},
     "mixing_polynomial() got an unexpected keyword argument 'kappa'"),
    ("dependence", {"kind": "mixing_exponential", "rho": 0.5, "kappa": 1e9},
     "mixing_exponential() got an unexpected keyword argument 'kappa'"),
], ids=["rho_on_mixing_polynomial", "alpha_on_independent", "alpha_on_fdm_exponential",
        "unknown_dependence_kind", "period_on_zero_model", "kappa_on_mixing_polynomial",
        "kappa_on_mixing_exponential"])
def test_key_the_kind_does_not_take_is_config_error(tmp_path, capsys, section, spec, message):
    if section == "dependence":
        command, payload = "rates", {"dependence": spec, "profile": {"beta": 1.0, "t": 1}}
    else:
        command, payload = "simulate", {"model": spec, "n": 20}
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert run([command, "--config", cfg, "--out", tmp_path]) == 2
    assert f"config error: {section}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("dependence, assumed", [
    ({"kind": "mixing_exponential", "rho": 0.5}, True),
    ({"kind": "fdm_exponential", "rho": 0.5}, True),
    ({"kind": "independent"}, True),
    ({"kind": "mixing_polynomial", "alpha": 2.0}, False),
], ids=["mixing_exponential", "fdm_exponential", "independent", "mixing_polynomial"])
def test_rates_states_assumed_alpha(tmp_path, capsys, dependence, assumed):
    cfg = write_cfg(tmp_path, "rates.json", {
        "dependence": dependence, "profile": {"beta": 1.0, "t": 1},
        "x_grid": {"min": 1e-3, "max": 0.5, "points": 2}, "n_values": [10000],
    })
    assert run(["rates", "--config", cfg, "--out", tmp_path]) == 0
    line = "rate_alpha=2.0 (assumed: kind has no alpha)"
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert (f"# {line}" in lines) == assumed
    assert (line in capsys.readouterr().out) == assumed
    # the data rows keep the alpha = 2 figures: N(10^4) = 10 at A = 1
    assert [ln for ln in lines if not ln.startswith("#")][1].startswith("10000,10,")


def test_seasonal_period_zero_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {"model": {"kind": "seasonal", "period": 0}, "n": 40})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "config error: model: period: invalid value 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "series.csv").exists()


@pytest.mark.parametrize("params, key", [
    ({"v": [[True]], "a": [[0.5]]}, "v"),
    ({"v": [[0.5]], "a": [[False]]}, "a"),
    ({"v": "abc", "a": [[0.5]]}, "v"),
    ({"v": [[float("nan")]], "a": [[0.5]]}, "v"),
    ({"v": [[0.5]], "a": [[float("inf")]]}, "a"),
], ids=["bool_v", "bool_a", "string_v", "nan_v", "infinite_a"])
def test_linear_model_matrix_entries_follow_the_number_rule(tmp_path, capsys, params, key):
    cfg = write_cfg(tmp_path, "sim.json", {"model": {"kind": "linear", **params}, "n": 40})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"config error: model: {key}: invalid value" in capsys.readouterr().err
    assert not (tmp_path / "out" / "series.csv").exists()


def test_linear_model_matrices_keep_their_accepted_shapes(tmp_path):
    # a nested list, a flat list, a bare number and numeric strings all read alike
    rows = []
    for name, v, a in (("nested", [[0.5]], [[0.5]]), ("flat", ["0.5"], [0.5]),
                       ("bare", 0.5, "0.5")):
        cfg = write_cfg(tmp_path, f"{name}.json",
                        {"model": {"kind": "linear", "v": v, "a": a}, "n": 40})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / name]) == 0
        text = (tmp_path / name / "series.csv").read_text().splitlines()
        rows.append([ln for ln in text if not ln.startswith("#")])
    assert rows[0] == rows[1] == rows[2]


def test_unreadable_config_value_names_its_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": "fifty"})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
    assert "n: invalid value 'fifty'" in capsys.readouterr().err


def test_normalizing_a_constant_coordinate_is_config_error(tmp_path, capsys):
    sim = write_cfg(tmp_path, "sim.json",
                    {"model": {"kind": "zero", "d": 2, "noise_sd": 0.0}, "n": 40})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "normalize": True,
        "arch": {"p": [2, 3, 2]}, "train": {"epochs": 1},
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 2
    assert "coordinate 0 is constant" in capsys.readouterr().err


def test_internal_shape_error_exits_1_with_traceback(tmp_path):
    # a ShapeError from inside the library is a bug, not a config error
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 50})
    code = (
        "import sys, edforecast.cli as cli, edforecast.simulate as simulate\n"
        "from edforecast.network import ShapeError\n"
        "def broken(*args, **kwargs):\n"
        "    raise ShapeError('forced internal shape mismatch')\n"
        "simulate.generate = broken\n"
        f"sys.exit(cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "forced internal shape mismatch" in proc.stderr
    assert "config error" not in proc.stderr


def numeric_failure(code, capsys, message):
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric failure: " in err and message in err


def test_diverging_training_exits_3(tmp_path, capsys):
    sim = write_cfg(tmp_path, "sim.json", {"model": "low_d", "n": 60, "burn_in": 20})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    # a linear map with an oversized full-batch step grows without bound
    cfg = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "arch": {"p": [5, 5]},
        "train": {"epochs": 200, "lr_schedule": [[0, 1e3]], "batch_size": 59}})
    capsys.readouterr()
    numeric_failure(run(["train", "--config", cfg, "--out", tmp_path]), capsys, "exceeded")
    assert not (tmp_path / "model.json").exists()


def test_unstable_model_simulation_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {
        "model": {"kind": "linear", "v": [[2.0]], "a": [[1.5]]}, "n": 100, "burn_in": 5000})
    numeric_failure(run(["simulate", "--config", cfg, "--out", tmp_path]), capsys,
                    "spectral radius")
    assert not (tmp_path / "series.csv").exists()


def test_rate_computation_error_exits_3(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = write_cfg(tmp_path, "rates.json", STRICT_BASE["rates"])
    code = (
        "import sys, edforecast.rates as rates\n"
        "from edforecast.cli import main\n"
        "def broken(*args, **kwargs):\n"
        "    raise rates.RateComputationError('forced solver failure')\n"
        "rates.rate_function = broken\n"
        f"sys.exit(main(['rates', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure: forced solver failure" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_sweep_naive_baseline_uses_the_sweep_weight(tmp_path):
    sim = write_cfg(tmp_path, "sim.json",
                    {"model": "seasonal", "n": 120, "burn_in": 100, "seed": 4})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    weight = {"kind": "box_ramp", "varsigma": 0.2}
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "train_fraction": 0.5,
        "normalize": True, "weight": weight,
        "train": {"epochs": 1, "lr_schedule": [[0, 0.001]]},
        "sweep": {"r_values": [1, 2], "m_values": [2]},
    })
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    series = load_series_csv(tmp_path / "series.csv")
    test = lag_embed(series[60:], summary["best"]["r"], scaler=fit_scaler(series[:60]))
    weighted = naive_predict(test, WeightFn(**weight))
    assert weighted != naive_predict(test, WeightFn())
    assert summary["naive_risk"] == weighted


def test_sweep_embeds_each_lag_count_once_and_scores_each_run_once(tmp_path, monkeypatch):
    # each r embeds its train and test series once; each run evaluates its
    # train set before training and after each of its E epochs, and its test
    # set once, after training
    epochs, r_values, m_values = 3, [1, 2], [2, 3]
    sim = write_cfg(tmp_path, "sim.json",
                    {"model": "seasonal", "n": 120, "burn_in": 100, "seed": 4})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == 0
    train = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "train_fraction": 0.5, "normalize": True,
        "train": {"epochs": epochs, "lr_schedule": [[0, 0.01]]},
        "sweep": {"r_values": r_values, "m_values": m_values}})
    evals = count_calls(monkeypatch, network.Network, "eval_batch")
    embeds = count_calls(monkeypatch, data_module, "lag_embed")
    assert run(["train", "--config", train, "--out", tmp_path]) == 0
    monkeypatch.undo()
    cells = len(r_values) * len(m_values)
    assert len(evals) == cells * (epochs + 2)
    assert embeds == [1, 1, 2, 2]
    # the reference scores each cell's test set after every epoch, as a single run does
    series = load_series_csv(tmp_path / "series.csv")
    d, expect = series.shape[1], []
    tc = TrainConfig(epochs=epochs, lr_schedule=((0, 0.01),))
    for r in r_values:
        data = lag_embed(series[:60], r, normalize=True)
        test = lag_embed(series[60:], r, scaler=data.scaler)
        for m in m_values:
            arch = Architecture(5, (r * d, r * d, 24, m, 24, d, d), L1=3)
            _, curve = train_sgd(init_network(arch, 0), data, tc, WeightFn(), test_data=test)
            expect.append([r, m, curve[-1].test_risk])
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0] == ["r", "m", "run1"]
    assert [[int(r), int(m), float(v)] for r, m, v in rows[1:]] == expect


@pytest.mark.parametrize("sweep", [
    {"r_values": [], "m_values": [2]},
    {"r_values": [1], "m_values": [0]},
    {"r_values": [1], "m_values": [2], "runs": 0},
], ids=["no_r_values", "zero_width_bottleneck", "no_runs"])
def test_sweep_without_a_run_is_config_error(tmp_path, capsys, sweep):
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "train_fraction": 0.5,
        "train": {"epochs": 1}, "sweep": sweep})
    assert run(["train", "--config", cfg, "--out", tmp_path]) == 2
    assert "sweep: needs runs >= 1" in capsys.readouterr().err


def test_fetch_note_flag(capsys):
    assert run(["train", "--fetch-note"]) == 0
    assert "opendata.dwd.de" in capsys.readouterr().out


@pytest.mark.parametrize("top, train, message", [
    ({}, {"prune_to_s": 4.5}, "train: prune_to_s must be an integer >= 0, got 4.5"),
    ({}, {"prune_to_s": -1}, "train: prune_to_s must be an integer >= 0, got -1"),
    ({}, {"prune_to_s": True}, "train: prune_to_s must be an integer >= 0, got True"),
    ({}, {"project_entries": "false"}, "train: project_entries: invalid value 'false'"),
    ({"normalize": "false"}, {}, "normalize: invalid value 'false'"),
    ({"normalize": 1}, {}, "normalize: invalid value 1"),
    ({"normalize": "false", "train_fraction": 0.5, "sweep": {"r_values": [1], "m_values": [2]}},
     {}, "normalize: invalid value 'false'"),
], ids=["fractional_prune", "negative_prune", "boolean_prune", "string_project_entries",
        "string_normalize", "integer_normalize", "string_normalize_in_sweep"])
def test_bad_train_value_is_config_error_before_training(tmp_path, capsys, top, train,
                                                         message):
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "arch": {"p": [2, 3, 2]},
        "train": {"epochs": 1, **train}, **top})
    assert run(["train", "--config", cfg, "--out", tmp_path]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "sweep.csv").exists()


STRICT_BASE = {
    "simulate": {"model": {"kind": "zero", "d": 2}, "n": 40},
    "train": {"train_csv": "series.csv", "arch": {"p": [2, 3, 2]}, "train": {"epochs": 1}},
    "evaluate": {"model_json": "model.json", "test_csv": "series.csv"},
    "certify": {"target": "linear", "N": 10, "m": 6},
    "rates": {"dependence": {"kind": "independent"}, "profile": {"beta": 1.0, "t": 1},
              "x_grid": {"min": 1e-3, "max": 0.5, "points": 2}, "n_values": [1000]},
}


def strict_setup(tmp_path, monkeypatch, command, key, value):
    """A run directory with a small series and model, and the base config of
    ``command`` with the dotted ``key`` set to ``value``."""
    monkeypatch.chdir(tmp_path)
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    Path("series.csv").write_text("\n".join(rows) + "\n")
    if command == "evaluate":
        net = {**STRICT_BASE["train"], "train": {"epochs": 0}}
        Path("net.json").write_text(json.dumps(net))
        assert run(["train", "--config", "net.json", "--out", "."]) == 0
    payload = json.loads(json.dumps(STRICT_BASE[command]))
    *sections, leaf = key.split(".")
    target = payload
    for section in sections:
        target = target.setdefault(section, {})
    target[leaf] = value
    Path("cfg.json").write_text(json.dumps(payload))
    return ["--config", "cfg.json", "--out", "out"]


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "n", 60.9),
    ("simulate", "burn_in", 10.7),
    ("simulate", "seed", 1.5),
    ("simulate", "n", float("inf")),
    ("simulate", "out_csv", 5),
    ("train", "train.epochs", 2.7),
    ("train", "train.batch_size", True),
    ("train", "train.lr_schedule", [[0, 0.01], [2.5, 0.001]]),
    ("train", "arch.p", "232"),
    ("train", "arch.L1", 1.5),
    ("train", "train_csv", 7),
    ("evaluate", "k_steps", "12"),
    ("rates", "n_values", "55"),
    ("rates", "n_values", "100"),
    ("rates", "x_grid.points", 3.9),
    ("simulate", "burn_in", -5),
    ("rates", "n_values", [0]),
    ("train", "r", 0),
    ("evaluate", "k_steps", [4, 0]),
    ("rates", "profile.t", 0),
    ("rates", "profile.beta", 0.5),
    ("simulate", "seed", -3),
    ("train", "train.seed", -1),
    ("train", "seed", -1),
    ("evaluate", "seed", -1),
    ("certify", "seed", -2),
    ("rates", "seed", -1),
    ("simulate", "model.d", 0),
    ("simulate", "model.r", 0),
    ("simulate", "model.noise_sd", -1),
])
def test_malformed_value_is_config_error_naming_its_key(tmp_path, monkeypatch, capsys,
                                                        command, key, value):
    args = strict_setup(tmp_path, monkeypatch, command, key, value)
    capsys.readouterr()
    assert run([command, *args]) == 2
    assert f"config error: {key.replace('.', ': ')}: invalid value" in capsys.readouterr().err
    assert list(Path("out").iterdir()) == []


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "n", 60.0),
    ("rates", "n_values", [1e3]),
    ("certify", "f_bound", "5"),
])
def test_integral_float_and_numeric_string_are_read(tmp_path, monkeypatch, command, key,
                                                    value):
    args = strict_setup(tmp_path, monkeypatch, command, key, value)
    assert run([command, *args]) == 0
    if command == "simulate":
        assert load_series_csv(Path("out", "series.csv")).shape == (60, 2)
    if command == "rates":
        rows = [ln for ln in Path("out", "rates.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[1].startswith("1000,")


def provenance_seed(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())["_provenance"]["seed"]
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("# seed="))
    return int(line[len("# seed="):])


def test_train_seed_rule_and_its_provenance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--config", write_cfg(tmp_path, "sim.json", {
        "model": {"kind": "zero", "d": 2}, "n": 40}), "--out", "."]) == 0
    single = {"train_csv": "series.csv", "train_fraction": 0.5,
              "arch": {"p": [2, 3, 2]}, "train": {"epochs": 1, "lr_schedule": [[0, 0.01]]}}
    sweep = {**single, "sweep": {"r_values": [1], "m_values": [2], "runs": 2}}
    del sweep["arch"]

    def train(name, base, top=None, inner=None, cli=None):
        payload = json.loads(json.dumps(base))
        if top is not None:
            payload["seed"] = top
        if inner is not None:
            payload["train"]["seed"] = inner
        Path(name).mkdir()
        cfg = write_cfg(tmp_path, f"{name}.json", payload)
        return run(["train", "--config", cfg, "--out", name]
                   + (["--seed", cli] if cli is not None else []))

    # --seed, else train.seed, else seed, else 0; every artifact stamps the seed used
    cases = [("top", {"top": 5}, 5), ("inner", {"inner": 5}, 5),
             ("both", {"top": 5, "inner": 5}, 5), ("cli", {"inner": 3, "cli": 5}, 5),
             ("none", {}, 0)]
    for name, seeds, used in cases:
        assert train(name, single, **seeds) == 0
        assert provenance_seed(Path(name, "curve.csv")) == used
        assert provenance_seed(Path(name, "model.meta.json")) == used
        assert (Path(name, "model.json").read_bytes()
                == Path("top" if used == 5 else "none", "model.json").read_bytes())
    assert Path("top/model.json").read_bytes() != Path("none/model.json").read_bytes()
    # the sweep's base seed follows the same rule
    for name, seeds in [("sweep_top", {"top": 5}), ("sweep_inner", {"inner": 5})]:
        assert train(name, sweep, **seeds) == 0
        assert provenance_seed(Path(name, "sweep.csv")) == 5
    rows = [[ln for ln in Path(name, "sweep.csv").read_text().splitlines()
             if not ln.startswith("#")] for name in ("sweep_top", "sweep_inner")]
    assert rows[0] == rows[1]
    # two different seeds are a config error, before any artifact is written
    capsys.readouterr()
    assert train("clash", single, top=5, inner=3) == 2
    assert "train: seed 3 differs from the top-level seed 5" in capsys.readouterr().err
    assert list(Path("clash").iterdir()) == []


def test_malformed_model_sidecar_is_config_error(tmp_path, monkeypatch, capsys):
    args = strict_setup(tmp_path, monkeypatch, "evaluate", "k_steps", [1])
    Path("model.meta.json").write_text('{"r": 1')
    capsys.readouterr()
    assert run(["evaluate", *args]) == 2
    assert "model.meta.json: not valid JSON" in capsys.readouterr().err
    assert list(Path("out").iterdir()) == []


def test_model_json_that_is_not_an_object_is_config_error(tmp_path, monkeypatch,
                                                          capsys):
    args = strict_setup(tmp_path, monkeypatch, "evaluate", "k_steps", [1])
    Path("model.json").write_text("[1, 2]\n")
    capsys.readouterr()
    assert run(["evaluate", *args]) == 2
    assert ("config error: network document: expected a JSON object, got list"
            in capsys.readouterr().err)
    assert list(Path("out").iterdir()) == []


@pytest.mark.parametrize("sidecar, message", [
    ([1], "model.meta.json: expected an object"),
    ({"r": 1, "scaler": {"lo": [0.0, 0.0]}}, "model.meta.json: scaler: missing required keys ['hi']"),
    ({"r": 1, "scaler": {"lo": [0.0, 0.0], "hi": ["a", 1.0]}},
     "model.meta.json: scaler: hi: invalid value ['a', 1.0]"),
    ({"r": 1, "scaler": {"lo": [0.0], "hi": [1.0]}},
     "model.meta.json: scaler: lo and hi need 2 entries each"),
    ({"r": "1"}, "model.meta.json: r: invalid value '1'"),
    ({"r": 1, "lags": 1}, "model.meta.json: unknown keys ['lags']"),
    ({"r": 2}, "model.meta.json: r: 2, but model and series say 1"),
    ({"r": 1, "d": 3}, "model.meta.json: d: 3, but model and series say 2"),
    ({"r": 1, "d": 2, "normalize": True}, "model.meta.json: normalize: true needs a scaler"),
], ids=["not_an_object", "scaler_without_hi", "non_numeric_hi", "short_scaler",
        "string_r", "unknown_key", "wrong_r", "wrong_d", "normalize_without_scaler"])
def test_malformed_sidecar_content_is_config_error(tmp_path, monkeypatch, capsys, sidecar,
                                                   message):
    args = strict_setup(tmp_path, monkeypatch, "evaluate", "k_steps", [1])
    Path("model.meta.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run(["evaluate", *args]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(Path("out").iterdir()) == []


def test_sidecar_written_by_train_reads_back(tmp_path, monkeypatch):
    # a normalized model's sidecar carries every key evaluate reads
    args = strict_setup(tmp_path, monkeypatch, "evaluate", "k_steps", [1])
    net = {**STRICT_BASE["train"], "normalize": True, "train": {"epochs": 1}}
    Path("net.json").write_text(json.dumps(net))
    assert run(["train", "--config", "net.json", "--out", "."]) == 0
    assert "scaler" in json.loads(Path("model.meta.json").read_text())
    assert run(["evaluate", *args]) == 0


def test_sidecar_scaler_under_normalize_false_is_config_error(tmp_path, monkeypatch,
                                                             capsys):
    # a scaler would be applied to data the sidecar says is not normalized
    args = strict_setup(tmp_path, monkeypatch, "evaluate", "k_steps", [1])
    net = {**STRICT_BASE["train"], "normalize": True, "train": {"epochs": 1}}
    Path("net.json").write_text(json.dumps(net))
    assert run(["train", "--config", "net.json", "--out", "."]) == 0
    sidecar = json.loads(Path("model.meta.json").read_text())
    sidecar["normalize"] = False
    Path("model.meta.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run(["evaluate", *args]) == 2
    assert ("config error: model.meta.json: normalize: false, but a scaler is given"
            in capsys.readouterr().err)
    assert list(Path("out").iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("arch", {"p": [9, 9]}), ("r", 4), ("out_model", "x.json"), ("out_curve", "x.csv"),
])
def test_sweep_refuses_single_run_keys(tmp_path, capsys, key, value):
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, "train.json", {
        "train_csv": str(tmp_path / "series.csv"), "train_fraction": 0.5,
        "train": {"epochs": 1}, "sweep": {"r_values": [1], "m_values": [2]}, key: value})
    assert run(["train", "--config", cfg, "--out", tmp_path]) == 2
    assert (f"config error: config: ['{key}'] do not apply with a 'sweep' section"
            in capsys.readouterr().err)
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("sweep", [False, True])
def test_train_fraction_with_a_test_csv_is_config_error(tmp_path, capsys, sweep):
    # a test_csv gives the test part, so a train_fraction would be dropped unread
    rows = ["t,x1,x2"] + [f"{i},{0.1 * i},{0.2 * i}" for i in range(1, 9)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    cfg = {"train_csv": str(tmp_path / "series.csv"), "test_csv": str(tmp_path / "series.csv"),
           "train_fraction": 0.5, "train": {"epochs": 1}}
    cfg.update({"sweep": {"r_values": [1], "m_values": [2]}} if sweep
               else {"arch": {"p": [2, 3, 2]}})
    assert run(["train", "--config", write_cfg(tmp_path, "train.json", cfg),
                "--out", tmp_path]) == 2
    assert ("config error: config: 'train_fraction' does not apply with a 'test_csv'"
            in capsys.readouterr().err)
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "sweep.csv").exists()
    # either key alone trains
    for key in ("test_csv", "train_fraction"):
        alone = {k: v for k, v in cfg.items() if k != key}
        assert run(["train", "--config", write_cfg(tmp_path, "alone.json", alone),
                    "--out", tmp_path]) == 0


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("case", ["single", "normalize", "sweep"])
def test_a_test_csv_of_another_width_is_config_error(tmp_path, capsys, case, width):
    # refused before any training, naming both column counts
    for name, d in (("train.csv", 2), ("test.csv", width)):
        cols = range(1, d + 1)
        rows = ["t," + ",".join(f"x{j}" for j in cols)]
        rows += [f"{i}," + ",".join(str(0.1 * i * j) for j in cols) for i in range(1, 41)]
        (tmp_path / name).write_text("\n".join(rows) + "\n")
    cfg = {"train_csv": str(tmp_path / "train.csv"), "test_csv": str(tmp_path / "test.csv"),
           "train": {"epochs": 1}}
    cfg.update({"sweep": {"r_values": [1], "m_values": [2]}} if case == "sweep"
               else {"arch": {"p": [2, 3, 2]}, "normalize": case == "normalize"})
    assert run(["train", "--config", write_cfg(tmp_path, "train.json", cfg),
                "--out", tmp_path]) == 2
    assert (f"config error: test_csv: has {width} columns, train_csv has 2"
            in capsys.readouterr().err)
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "sweep.csv").exists()
