"""Command-line front end: simulate, train, evaluate, certify, rates.

Every command reads a JSON config (strictly validated: unknown keys are
rejected with their field path), takes an optional --seed override and an
--out directory, and writes deterministic artifacts.  Every CSV and JSON
output except the network file ``model.json`` carries a provenance header
(config hash, seed, tool version); the network's provenance is in its
``.meta.json`` sidecar.  Nothing carries a timestamp, so re-runs with the
same inputs are byte-identical.

Exit codes: 0 success, 2 config error (a malformed config, series or model
file, or a missing one; the message names the field or line), 3 numeric
failure.  Any other error is a bug and exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ConfigError, __version__
from .approx import ApproxPlan, build_approximator, catalog
from .data import Scaler, lag_embed, load_series_csv, save_series_csv, write_csv
from .network import Architecture, load_json as load_net, save_json as save_net
from .rates import (
    DependenceSpec,
    RateComputationError,
    SmoothnessProfile,
    oracle_bound,
    choose_N,
    fdm_exponential,
    fdm_polynomial,
    independent,
    mixing_exponential,
    mixing_polynomial,
    predicted_rate,
    rate_envelope,
    rate_function,
)
from .simulate import (
    TimeSeriesModel,
    UnstableModelError,
    generate,
    high_d_model,
    linear_model,
    low_d_model,
    seasonal_model,
    zero_model,
)
from .train import (
    TrainConfig,
    TrainingDiverged,
    WeightFn,
    empirical_risk,
    init_network,
    multi_step_forecast,
    naive_predict,
    train_sgd,
)

WEATHER_DATA_NOTE = (
    "Daily mean temperature source (external, not downloaded by this tool):\n"
    "https://opendata.dwd.de/climate_environment/CDC/observations_germany/"
    "climate/daily/kl/historical"
)


def _check_keys(cfg: dict, path: str, required, optional):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")


def _read(cast, value, field: str):
    """cast(value) for a config value, or a ConfigError naming its field."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: invalid value {value!r}") from None


def _ints(values):
    return [int(v) for v in values]


def _bool(value):
    """A JSON true or false; any other value, "false" among them, is refused."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _section(spec, path: str, build, casts: dict, required=(), **fixed):
    """build(**values) for the config section at ``path``.

    ``casts`` maps each key the section may hold to the function that reads
    its value, and ``required`` names the keys it must hold.  ``fixed``
    values that are not None are passed to build too, over the section's
    own.  A TypeError or ValueError from a cast or from build (a ConfigError
    among them) becomes a ConfigError naming the section (and a cast's key).
    """
    _check_keys(spec, path, required, casts)
    try:
        values = {k: _read(casts[k], v, k) for k, v in spec.items()}
        values.update((k, v) for k, v in fixed.items() if v is not None)
        return build(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _kinded(table: dict):
    """A section constructor that calls table[kind] with the section's other
    keys, so a key the kind does not take is an error."""
    def build(kind, **params):
        if kind not in table:
            raise ConfigError(f"unknown kind {kind!r}; choose from {sorted(table)}")
        return table[kind](**params)
    return build


def _load(loader, path, field: str):
    """loader(path) for a file named by a config field; a missing file is a
    ConfigError naming the field."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise ConfigError(f"{field}: file not found: {path}") from None


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _seed_and_provenance(cfg: dict, seed: int | None):
    """The run's seed (the --seed override, else the config's seed, default
    0) and the provenance stamp of its artifacts."""
    run_seed = seed if seed is not None else _read(int, cfg.get("seed", 0), "seed")
    return run_seed, {"tool": f"edforecast-{__version__}",
                      "config_hash": _config_hash(cfg), "seed": run_seed}


def _write_json(path: Path, payload: dict, provenance: dict) -> None:
    doc = dict(payload)
    doc["_provenance"] = provenance
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _model_from_spec(spec, seed: int) -> TimeSeriesModel:
    presets = {"low_d": low_d_model, "high_d": high_d_model,
               "seasonal": seasonal_model}
    if isinstance(spec, str):
        if spec not in presets:
            raise ConfigError(
                f"model: unknown preset {spec!r}; choose from {sorted(presets)}"
            )
        return presets[spec](seed=seed)
    kinds = {"zero": zero_model, "linear": linear_model, "seasonal": seasonal_model}
    casts = {"kind": str, "d": int, "r": int, "noise_sd": float, "v": np.asarray,
             "a": np.asarray, "period": int, "decay": float}
    return _section(spec, "model", _kinded(kinds), casts, ["kind"], seed=seed)


def _weight_from_spec(spec) -> WeightFn:
    if spec is None:
        return WeightFn()
    return _section(spec, "weight", WeightFn, {"kind": str, "varsigma": float}, ["kind"])


# -- commands --------------------------------------------------------------


def cmd_simulate(cfg: dict, seed: int | None, out_dir: Path) -> int:
    _check_keys(cfg, "config", ["model", "n"], ["burn_in", "out_csv", "seed"])
    run_seed, prov = _seed_and_provenance(cfg, seed)
    model = _model_from_spec(cfg["model"], run_seed)
    n = _read(int, cfg["n"], "n")
    if n < model.r + 1:
        raise ConfigError(f"n: need n >= r+1 = {model.r + 1}, got {n}")
    burn_in = _read(int, cfg.get("burn_in", 1000), "burn_in")
    series = generate(model, n, burn_in=burn_in, seed=run_seed)
    out_csv = out_dir / cfg.get("out_csv", "series.csv")
    save_series_csv(out_csv, series, provenance=prov)
    sidecar = {"model": model.describe(), "n": n, "burn_in": burn_in}
    _write_json(out_csv.with_suffix(out_csv.suffix + ".json"), sidecar, prov)
    print(f"wrote {out_csv} ({n} x {model.d})")
    return 0


def _split_series(series, cfg):
    test_csv = cfg.get("test_csv")
    if test_csv is not None:
        return series, _load(load_series_csv, test_csv, "test_csv")
    frac = _read(float, cfg.get("train_fraction", 1.0), "train_fraction")
    if not 0.0 < frac <= 1.0:
        raise ConfigError(f"train_fraction: must be in (0,1], got {frac}")
    if frac == 1.0:
        return series, None
    n_train = int(round(series.shape[0] * frac))
    if n_train < 2 or n_train >= series.shape[0]:
        raise ConfigError("train_fraction: split leaves an empty train or test part")
    return series[:n_train], series[n_train:]


def _train_config_from(spec, seed: int | None) -> TrainConfig:
    """The train section; a --seed override replaces its seed."""
    casts = {"epochs": int, "lr_schedule": tuple, "l2_lambda": float, "batch_size": int,
             "seed": int, "project_entries": _bool, "prune_to_s": lambda s: s}
    return _section(spec, "train", TrainConfig, casts, ["epochs"], seed=seed)


def _run_single_training(series_train, series_test, r, arch: Architecture,
                         tc: TrainConfig, w: WeightFn, normalize):
    data = lag_embed(series_train, r, normalize=normalize)
    test_data = None
    if series_test is not None:
        test_data = lag_embed(series_test, r, scaler=data.scaler)
    net0 = init_network(arch, tc.seed)
    net, curve = train_sgd(net0, data, tc, w, test_data=test_data)
    return net, curve, data, test_data


def cmd_train(cfg: dict, seed: int | None, out_dir: Path) -> int:
    _check_keys(cfg, "config", ["train_csv"],
                ["test_csv", "train_fraction", "r", "normalize", "arch",
                 "train", "weight", "out_model", "out_curve", "sweep", "seed"])
    series = _load(load_series_csv, cfg["train_csv"], "train_csv")
    series_train, series_test = _split_series(series, cfg)
    base_seed, prov = _seed_and_provenance(cfg, seed)
    w = _weight_from_spec(cfg.get("weight"))

    if "sweep" in cfg:
        return _cmd_train_sweep(cfg, series_train, series_test, base_seed, prov, w, out_dir)

    if "arch" not in cfg or "train" not in cfg:
        raise ConfigError("config: training needs 'arch' and 'train' sections")
    r = _read(int, cfg.get("r", 1), "r")
    arch = _section(cfg["arch"], "arch", lambda p, L1=None: Architecture(len(p) - 2, p, L1=L1),
                    {"p": tuple, "L1": lambda L1: L1}, ["p"])
    d = series_train.shape[1]
    if arch.in_dim != d * r or arch.out_dim != d:
        raise ConfigError(
            f"arch.p: expects input dim {d * r} and output dim {d}, got {list(arch.p)}"
        )
    tc = _train_config_from(cfg["train"], seed)
    normalize = _read(_bool, cfg.get("normalize", False), "normalize")
    net, curve, data, _ = _run_single_training(
        series_train, series_test, r, arch, tc, w, normalize,
    )
    out_model = out_dir / cfg.get("out_model", "model.json")
    out_curve = out_dir / cfg.get("out_curve", "curve.csv")
    save_net(net, out_model)
    write_csv(out_curve, ["epoch", "train_risk", "test_risk"],
              ((rec.epoch, rec.train_risk, rec.test_risk) for rec in curve), prov)
    meta = {"r": r, "d": data.d, "normalize": normalize}
    if data.scaler is not None:
        meta["scaler"] = {"lo": data.scaler.lo.tolist(), "hi": data.scaler.hi.tolist()}
    meta["final_train_risk"] = curve[-1].train_risk if curve else None
    meta["final_test_risk"] = curve[-1].test_risk if curve else None
    _write_json(out_model.with_suffix(".meta.json"), meta, prov)
    final = curve[-1].train_risk if curve else float("nan")
    print(f"wrote {out_model}; final train risk {final:.6g}"
          + (f", test risk {curve[-1].test_risk:.6g}"
             if curve and curve[-1].test_risk is not None else ""))
    return 0


def _cmd_train_sweep(cfg, series_train, series_test, base_seed, prov, w, out_dir) -> int:
    sweep = cfg["sweep"]
    _check_keys(sweep, "sweep", [], ["r_values", "m_values", "runs", "out_table"])
    if series_test is None:
        raise ConfigError("sweep: needs test data (test_csv or train_fraction < 1)")
    if "train" not in cfg:
        raise ConfigError("config: sweep needs a 'train' section")
    r_values = _read(_ints, sweep.get("r_values", [1, 2, 3, 5]), "sweep.r_values")
    m_values = _read(_ints, sweep.get("m_values", [4, 6, 8, 10]), "sweep.m_values")
    runs = _read(int, sweep.get("runs", 1), "sweep.runs")
    if runs < 1 or not r_values or not m_values or min(r_values + m_values) < 1:
        raise ConfigError("sweep: needs runs >= 1 and r_values and m_values that are "
                          "non-empty and >= 1")
    normalize = _read(_bool, cfg.get("normalize", False), "normalize")
    d = series_train.shape[1]
    tc = _train_config_from(cfg["train"], None)
    rows = []
    best = None
    for r in r_values:
        for m in m_values:
            risks = []
            for run in range(runs):
                arch = Architecture(5, (r * d, r * d, 24, m, 24, d, d), L1=3)
                net, _, _, test_data = _run_single_training(
                    series_train, series_test, r, arch,
                    replace(tc, seed=base_seed + 1000 * run), w, normalize,
                )
                risk = empirical_risk(net, test_data, w)
                risks.append(risk)
                if best is None or risk < best[0]:
                    best = (risk, r, m, run, test_data)
            rows.append((r, m, risks))
            print(f"sweep r={r} m={m}: " + " ".join(f"{v:.4g}" for v in risks))
    out_table = out_dir / sweep.get("out_table", "sweep.csv")
    write_csv(out_table, ["r", "m"] + [f"run{i + 1}" for i in range(runs)],
              ([r, m, *risks] for r, m, risks in rows), prov)
    # naive baseline on the best run's test data, weighted like its risk
    naive = naive_predict(best[4], w)
    summary = {
        "best": {"risk": best[0], "r": best[1], "m": best[2], "run": best[3]},
        "naive_risk": naive,
        "r_values": r_values,
        "m_values": m_values,
        "runs": runs,
    }
    _write_json(out_table.with_suffix(".summary.json"), summary, prov)
    print(f"wrote {out_table}; best cell r={best[1]} m={best[2]} risk {best[0]:.6g} "
          f"(naive baseline at r={best[1]}: {naive:.6g})")
    return 0


def cmd_evaluate(cfg: dict, seed: int | None, out_dir: Path) -> int:
    _check_keys(cfg, "config", ["model_json", "test_csv"],
                ["k_steps", "weight", "out_json", "seed"])
    net = _load(load_net, cfg["model_json"], "model_json")
    meta_path = Path(cfg["model_json"]).with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    series = _load(load_series_csv, cfg["test_csv"], "test_csv")
    d = series.shape[1]
    if net.arch.in_dim % d != 0 or net.arch.out_dim != d:
        raise ConfigError(
            f"model_json: network dims {net.arch.in_dim} -> {net.arch.out_dim} "
            f"do not match series dimension {d}"
        )
    r = net.arch.in_dim // d
    if meta.get("r") not in (None, r):
        raise ConfigError(f"model_json: metadata lag count {meta['r']} != {r}")
    scaler = None
    if meta.get("scaler"):
        scaler = Scaler(lo=np.asarray(meta["scaler"]["lo"]),
                        hi=np.asarray(meta["scaler"]["hi"]))
    data = lag_embed(series, r, scaler=scaler)
    w = _weight_from_spec(cfg.get("weight"))
    _, prov = _seed_and_provenance(cfg, seed)
    metrics = {
        "empirical_risk": empirical_risk(net, data, w),
        "naive_risk": naive_predict(data, w),
        "n_samples": len(data),
    }
    n = len(data)
    k_errors = {}
    for k in _read(_ints, cfg.get("k_steps", [1]), "k_steps"):
        # per-coordinate squared error of the j-step forecast from every start, j = 1..k
        if k > n:
            raise ConfigError(f"k_steps: horizon {k} exceeds test sample count {n}")
        m = n - (k - 1)
        k_errors[str(k)] = [
            float(np.mean(np.sum((pred - data.Y[j : j + m]) ** 2, axis=1) / d))
            for j, pred in enumerate(multi_step_forecast(net, data.X[:m], k))
        ]
    metrics["k_step_mse"] = k_errors
    out_json = out_dir / cfg.get("out_json", "metrics.json")
    _write_json(out_json, metrics, prov)
    print(f"wrote {out_json}; risk {metrics['empirical_risk']:.6g}, "
          f"naive {metrics['naive_risk']:.6g}")
    return 0


def cmd_certify(cfg: dict, seed: int | None, out_dir: Path) -> int:
    _check_keys(cfg, "config", ["target", "N", "m"],
                ["f_bound", "out_json", "seed"])
    cat = catalog()
    name = cfg["target"]
    if name not in cat:
        raise ConfigError(f"target: unknown catalog entry {name!r}; "
                          f"choose from {sorted(cat)}")
    run_seed, prov = _seed_and_provenance(cfg, seed)
    plan = ApproxPlan(N=_read(int, cfg["N"], "N"), m=_read(int, cfg["m"], "m"))
    f_bound = cfg.get("f_bound")
    if f_bound is not None:
        f_bound = _read(float, f_bound, "f_bound")
        if not (math.isfinite(f_bound) and f_bound > 0):
            raise ConfigError(f"f_bound: must be finite and > 0, got {f_bound}")
    net, cert = build_approximator(cat[name], plan, f_bound=f_bound, seed=run_seed)
    out_json = out_dir / cfg.get("out_json", "certificate.json")
    _write_json(out_json, cert, prov)
    ok = (cert["measured_sup"] <= cert["sup_bound"]
          and cert["measured_lip"] <= cert["lip_bound"])
    print(f"wrote {out_json}; measured sup {cert['measured_sup']:.4g} "
          f"<= bound {cert['sup_bound']:.4g}: {ok}")
    return 0 if ok else 3


def _dependence_from_spec(spec) -> DependenceSpec:
    kinds = {"independent": independent, "mixing_polynomial": mixing_polynomial,
             "mixing_exponential": mixing_exponential, "fdm_polynomial": fdm_polynomial,
             "fdm_exponential": fdm_exponential}
    casts = {"kind": str, "alpha": float, "kappa": float, "rho": float}
    return _section(spec, "dependence", _kinded(kinds), casts, ["kind"])


def _profile_from_spec(spec) -> SmoothnessProfile:
    if isinstance(spec, dict) and "beta" in spec:
        casts = {"beta": float, "t": int}
        return _section(spec, "profile", SmoothnessProfile.isotropic, casts, casts)
    casts = {"beta_dec": float, "t_dec": int, "beta_enc0": float, "t_enc0": int,
             "beta_enc1": float, "t_enc1": int}
    return _section(spec, "profile", SmoothnessProfile, casts, casts)


def cmd_rates(cfg: dict, seed: int | None, out_dir: Path) -> int:
    _check_keys(cfg, "config", ["dependence", "profile"],
                ["x_grid", "n_values", "out_lambda_csv", "out_rates_csv", "seed"])
    spec = _dependence_from_spec(cfg["dependence"])
    profile = _profile_from_spec(cfg["profile"])
    grid_cfg = cfg.get("x_grid", {})
    _check_keys(grid_cfg, "x_grid", [], ["min", "max", "points"])
    x_lo = _read(float, grid_cfg.get("min", 1e-6), "x_grid.min")
    x_hi = _read(float, grid_cfg.get("max", 1.0), "x_grid.max")
    points = _read(int, grid_cfg.get("points", 25), "x_grid.points")
    if not (0 < x_lo < x_hi) or points < 2:
        raise ConfigError("x_grid: need 0 < min < max and points >= 2")
    xs = np.logspace(math.log10(x_lo), math.log10(x_hi), points)
    _, prov = _seed_and_provenance(cfg, seed)
    lam = [float(rate_function(spec, float(x))) for x in xs]
    env = [float(rate_envelope(spec, float(x))) for x in xs]

    out_lambda = out_dir / cfg.get("out_lambda_csv", "lambda.csv")
    write_csv(out_lambda, ["x", "lambda", "envelope"], zip(xs, lam, env), prov)

    n_values = _read(_ints, cfg.get("n_values", [1000, 10000, 100000]), "n_values")
    out_rates = out_dir / cfg.get("out_rates_csv", "rates.csv")
    alpha, rates_prov = spec.alpha, prov
    if alpha is None:
        # choose_N and predicted_rate need an alpha; say which one is used
        alpha, note = 2.0, "2.0 (assumed: kind has no alpha)"
        rates_prov = {**prov, "rate_alpha": note}
        print(f"{out_rates}: rate_alpha={note}")
    rows = []
    for n in n_values:
        N = choose_N(n, alpha, profile)
        rows.append((n, N, predicted_rate(n, alpha, profile),
                     oracle_bound(spec, n, N, profile)))
    write_csv(out_rates, ["n", "N", "predicted_rate", "bound_at_N"], rows, rates_prov)
    print(f"wrote {out_lambda} and {out_rates}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "certify": cmd_certify,
    "rates": cmd_rates,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edforecast",
        description="Encoder-decoder network forecasting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "train"), help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        if name == "train":
            p.add_argument("--fetch-note", action="store_true",
                           help="print the external weather-data URL and exit")
    args = parser.parse_args(argv)

    if args.command == "train" and args.fetch_note:
        print(WEATHER_DATA_NOTE)
        return 0
    if args.config is None:
        print("error: --config is required", file=sys.stderr)
        return 2

    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.seed, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, UnstableModelError, RateComputationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
