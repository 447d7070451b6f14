"""Command-line front end: simulate, train, evaluate, certify, rates.

Every command reads a JSON config (strictly validated: an unknown key or a
value of the wrong type is rejected with its field path), takes an optional
--seed override and an --out directory, and writes deterministic artifacts.
Every CSV and JSON output except the network file ``model.json`` carries a
provenance header (config hash, seed, tool version); the network's
provenance is in its ``.meta.json`` sidecar.  Nothing carries a timestamp,
so re-runs with the same inputs are byte-identical.

Exit codes: 0 success, 2 config error (a malformed config, series or model
file, or a missing one; the message names the field or line), 3 numeric
failure.  Any other error is a bug and exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

# A command imports the library modules it runs in its own body: each command
# runs in a fresh interpreter, and importing this module loads none of them.
from . import ConfigError, NumericFailure, __version__, integral as _int

WEATHER_DATA_NOTE = (
    "Daily mean temperature source (external, not downloaded by this tool):\n"
    "https://opendata.dwd.de/climate_environment/CDC/observations_germany/"
    "climate/daily/kl/historical"
)


def _typed(kind):
    """A cast that takes a value of JSON type ``kind`` as it is, and no other."""
    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value
    return cast


# _object reads a key that holds a section, which its own _section call reads
_str, _bool, _list, _object = _typed(str), _typed(bool), _typed(list), _typed(dict)


def _at_least(lo, cast=_int):
    """A value read by ``cast`` (an integer as ``_int`` reads it), refused below ``lo``."""
    def read(value):
        out = cast(value)
        if out < lo:
            raise ValueError(value)
        return out
    return read


def _each(cast):
    """A JSON list, each item read by ``cast``."""
    return lambda value: [cast(v) for v in _list(value)]


_ints = _each(_int)
_seed = _at_least(0)  # numpy's generators take no negative seed


def _float(value):
    """A finite number, or a numeric string ("5" reads as 5.0); a bool is refused."""
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(value)
    return float(value)


def _floats(value):
    return np.array([_float(v) for v in _list(value)])


def _float_array(value):
    """A number or a list nested to any depth, each entry read by ``_float``."""
    return np.vectorize(_float, otypes=[float])(np.array(value, dtype=object))


def _or_none(cast):
    return lambda value: None if value is None else cast(value)


def _schedule(value):
    """A learning-rate schedule: a list of [epoch threshold, rate] pairs."""
    return [(_int(e), _float(r)) for e, r in map(_list, _list(value))]


def _section(spec, path: str, build, casts: dict, required=(), **fixed):
    """build(**values) for the config object at ``path`` ("" for the top level).

    ``casts`` maps each key the object may hold to the function that reads
    its value, or to a ``(cast, default)`` pair whose default is the value
    of an absent key; ``required`` names the keys it must hold.  ``fixed``
    values that are not None override the object's own.  A TypeError or
    ValueError from a cast or from build becomes a ConfigError naming the
    object and a cast's key."""
    name = path or "config"
    if not isinstance(spec, dict):
        raise ConfigError(f"{name}: expected an object")
    for problem, keys in (("unknown", set(spec) - set(casts)),
                          ("missing required", set(required) - set(spec))):
        if keys:
            raise ConfigError(f"{name}: {problem} keys {sorted(keys)}")
    values = {k: c[1] for k, c in casts.items() if isinstance(c, tuple)}
    try:
        for key, value in spec.items():
            cast = casts[key][0] if isinstance(casts[key], tuple) else casts[key]
            try:
                values[key] = cast(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{key}: invalid value {value!r}") from None
        values.update((k, v) for k, v in fixed.items() if v is not None)
        return build(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


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


def _load_json(path):
    """The JSON document in the file at ``path``; malformed JSON is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def _provenance(cfg: dict, seed: int) -> dict:
    """The stamp of a run's artifacts: tool version, config hash and seed."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return {"tool": f"edforecast-{__version__}",
            "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16], "seed": seed}


def _write_json(path: Path, payload: dict, provenance: dict) -> None:
    doc = dict(payload)
    doc["_provenance"] = provenance
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _model_from_spec(spec):
    from .simulate import high_d_model, linear_model, low_d_model, seasonal_model, zero_model
    presets = {"low_d": low_d_model, "high_d": high_d_model,
               "seasonal": seasonal_model}
    if isinstance(spec, str):
        if spec not in presets:
            raise ConfigError(
                f"model: unknown preset {spec!r}; choose from {sorted(presets)}"
            )
        return presets[spec]()
    kinds = {"zero": zero_model, "linear": linear_model, "seasonal": seasonal_model}
    casts = {"kind": _str, "d": _at_least(1), "r": _at_least(1),
             "noise_sd": _at_least(0, _float), "v": _float_array, "a": _float_array,
             "period": _at_least(1), "decay": _float}
    return _section(spec, "model", _kinded(kinds), casts, ["kind"])


def _weight_from_spec(spec):
    from .train import WeightFn
    if spec is None:
        return WeightFn()
    return _section(spec, "weight", WeightFn, {"kind": _str, "varsigma": _float}, ["kind"])


# -- commands --------------------------------------------------------------


def cmd_simulate(cfg: dict, seed: int | None, out_dir: Path) -> int:
    from .data import save_series_csv
    from .simulate import generate
    c = _section(cfg, "", dict, {
        "model": _typed((str, dict)), "n": _int, "burn_in": (_at_least(0), 1000),
        "out_csv": (_str, "series.csv"), "seed": (_seed, 0)}, ["model", "n"], seed=seed)
    prov = _provenance(cfg, c["seed"])
    model = _model_from_spec(c["model"])
    n, burn_in = c["n"], c["burn_in"]
    if n < model.r + 1:
        raise ConfigError(f"n: need n >= r+1 = {model.r + 1}, got {n}")
    series = generate(model, n, burn_in=burn_in, seed=c["seed"])
    out_csv = out_dir / c["out_csv"]
    save_series_csv(out_csv, series, provenance=prov)
    sidecar = {"model": {**model.describe(), "seed": c["seed"]}, "n": n, "burn_in": burn_in}
    _write_json(out_csv.with_suffix(out_csv.suffix + ".json"), sidecar, prov)
    print(f"wrote {out_csv} ({n} x {model.d})")
    return 0


def _split_series(series, c: dict):
    from .data import load_series_csv
    if c["test_csv"] is not None:
        test = _load(load_series_csv, c["test_csv"], "test_csv")
        if test.shape[1] != series.shape[1]:
            raise ConfigError(f"test_csv: has {test.shape[1]} columns, "
                              f"train_csv has {series.shape[1]}")
        return series, test
    frac = c["train_fraction"]
    if not 0.0 < frac <= 1.0:
        raise ConfigError(f"train_fraction: must be in (0,1], got {frac}")
    if frac == 1.0:
        return series, None
    n_train = int(round(series.shape[0] * frac))
    if n_train < 2 or n_train >= series.shape[0]:
        raise ConfigError("train_fraction: split leaves an empty train or test part")
    return series[:n_train], series[n_train:]


def _train_config_from(spec, cli_seed: int | None, top_seed: int | None):
    """The train section.  The run's seed is the --seed override, else
    train.seed, else the top-level seed, else 0; if train.seed and the
    top-level seed are both set, they must agree."""
    from .train import TrainConfig
    def build(seed=top_seed, **values):
        if top_seed not in (None, seed):
            raise ConfigError(f"seed {seed} differs from the top-level seed {top_seed}")
        return TrainConfig(seed=next(s for s in (cli_seed, seed, 0) if s is not None),
                           **values)
    # prune_to_s is read as it is: TrainConfig checks it and names it
    casts = {"epochs": _int, "lr_schedule": _schedule, "l2_lambda": _float,
             "batch_size": _int, "seed": _seed, "project_entries": _bool,
             "prune_to_s": lambda s: s}
    return _section(spec, "train", build, casts, ["epochs"])


def _embed(series_train, series_test, r: int, normalize: bool):
    """The train and test (or None) lag datasets at ``r`` lags, both on the train set's scaler."""
    from .data import lag_embed
    data = lag_embed(series_train, r, normalize=normalize)
    return data, None if series_test is None else lag_embed(series_test, r, scaler=data.scaler)


def cmd_train(cfg: dict, seed: int | None, out_dir: Path) -> int:
    from .data import load_series_csv, write_csv
    from .network import Architecture, save_json as save_net
    from .train import init_network, train_sgd
    c = _section(cfg, "", dict, {
        "train_csv": _str, "test_csv": (_or_none(_str), None),
        "train_fraction": (_float, 1.0), "r": (_at_least(1), 1), "normalize": (_bool, False),
        "arch": (_object, None), "train": _object, "weight": (_or_none(_object), None),
        "sweep": (_object, None), "out_model": (_str, "model.json"),
        "out_curve": (_str, "curve.csv"), "seed": (_seed, None)}, ["train_csv", "train"])
    if c["test_csv"] is not None and "train_fraction" in cfg:
        raise ConfigError("config: 'train_fraction' does not apply with a 'test_csv'")
    series = _load(load_series_csv, c["train_csv"], "train_csv")
    series_train, series_test = _split_series(series, c)
    w = _weight_from_spec(c["weight"])
    tc = _train_config_from(c["train"], seed, c["seed"])
    prov = _provenance(cfg, tc.seed)
    if c["sweep"] is not None:
        # the sweep builds its own architectures and names its own outputs
        ignored = [k for k in ("arch", "r", "out_model", "out_curve") if k in cfg]
        if ignored:
            raise ConfigError(f"config: {ignored} do not apply with a 'sweep' section")
        return _cmd_train_sweep(c, series_train, series_test, tc, prov, w, out_dir)
    if c["arch"] is None:
        raise ConfigError("config: training needs an 'arch' section")
    r = c["r"]
    arch = _section(c["arch"], "arch", Architecture, {"p": _ints, "L1": _or_none(_int)}, ["p"])
    d = series_train.shape[1]
    if arch.in_dim != d * r or arch.out_dim != d:
        raise ConfigError(
            f"arch.p: expects input dim {d * r} and output dim {d}, got {list(arch.p)}"
        )
    data, test_data = _embed(series_train, series_test, r, c["normalize"])
    net, curve = train_sgd(init_network(arch, tc.seed), data, tc, w, test_data=test_data)
    out_model = out_dir / c["out_model"]
    out_curve = out_dir / c["out_curve"]
    save_net(net, out_model)
    write_csv(out_curve, ["epoch", "train_risk", "test_risk"],
              ((rec.epoch, rec.train_risk, rec.test_risk) for rec in curve), prov)
    meta = {"r": r, "d": data.d, "normalize": c["normalize"]}
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


def _cmd_train_sweep(c, series_train, series_test, tc, prov, w, out_dir) -> int:
    from .data import write_csv
    from .network import Architecture
    from .train import empirical_risk, init_network, naive_predict, train_sgd
    sweep = _section(c["sweep"], "sweep", dict, {
        "r_values": (_ints, [1, 2, 3, 5]), "m_values": (_ints, [4, 6, 8, 10]),
        "runs": (_int, 1), "out_table": (_str, "sweep.csv")})
    if series_test is None:
        raise ConfigError("sweep: needs test data (test_csv or train_fraction < 1)")
    r_values, m_values, runs = sweep["r_values"], sweep["m_values"], sweep["runs"]
    if runs < 1 or not r_values or not m_values or min(r_values + m_values) < 1:
        raise ConfigError("sweep: needs runs >= 1 and r_values and m_values that are "
                          "non-empty and >= 1")
    d = series_train.shape[1]
    rows = []
    best = None
    for r in r_values:
        data, test_data = _embed(series_train, series_test, r, c["normalize"])
        for m in m_values:
            arch = Architecture((r * d, r * d, 24, m, 24, d, d), L1=3)
            risks = []
            for run in range(runs):
                run_tc = replace(tc, seed=tc.seed + 1000 * run)
                net, _ = train_sgd(init_network(arch, run_tc.seed), data, run_tc, w)
                risk = empirical_risk(net.eval_batch(test_data.X), test_data, w)
                risks.append(risk)
                if best is None or risk < best[0]:
                    best = (risk, r, m, run, test_data)
            rows.append((r, m, risks))
            print(f"sweep r={r} m={m}: " + " ".join(f"{v:.4g}" for v in risks))
    out_table = out_dir / sweep["out_table"]
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
    from .data import Scaler, lag_embed, load_series_csv
    from .network import load_json as load_net
    from .train import empirical_risk, multi_step_forecast, naive_predict
    c = _section(cfg, "", dict, {
        "model_json": _str, "test_csv": _str, "k_steps": (_each(_at_least(1)), [1]),
        "weight": (_or_none(_object), None), "out_json": (_str, "metrics.json"),
        "seed": (_seed, 0)}, ["model_json", "test_csv"], seed=seed)
    net = _load(load_net, c["model_json"], "model_json")
    meta_path = Path(c["model_json"]).with_suffix(".meta.json")
    meta = _section(_load_json(meta_path) if meta_path.exists() else {}, str(meta_path), dict, {
        "r": (_or_none(_int), None), "d": (_or_none(_int), None), "normalize": (_bool, None),
        "scaler": (_or_none(_object), None), "final_train_risk": (_or_none(float), None),
        "final_test_risk": (_or_none(float), None), "_provenance": (_object, None)})
    series = _load(load_series_csv, c["test_csv"], "test_csv")
    d = series.shape[1]
    if net.arch.in_dim % d != 0 or net.arch.out_dim != d:
        raise ConfigError(
            f"model_json: network dims {net.arch.in_dim} -> {net.arch.out_dim} "
            f"do not match series dimension {d}"
        )
    r = net.arch.in_dim // d
    for key, value in (("r", r), ("d", d)):  # the model's lag count, the series' dimension
        if meta[key] not in (None, value):
            raise ConfigError(f"{meta_path}: {key}: {meta[key]}, but model and series say {value}")
    if meta["normalize"] and meta["scaler"] is None:
        raise ConfigError(f"{meta_path}: normalize: true needs a scaler")
    if meta["normalize"] is False and meta["scaler"] is not None:
        raise ConfigError(f"{meta_path}: normalize: false, but a scaler is given")
    scaler = None
    if meta["scaler"] is not None:
        scaler = _section(meta["scaler"], f"{meta_path}: scaler", Scaler,
                          {"lo": _floats, "hi": _floats}, ["lo", "hi"])
        if not scaler.lo.shape == scaler.hi.shape == (d,):
            raise ConfigError(f"{meta_path}: scaler: lo and hi need {d} entries each")
    data = lag_embed(series, r, scaler=scaler)
    w = _weight_from_spec(c["weight"])
    k_errors = {k: [] for k in c["k_steps"]}  # each distinct horizon once, in the list's order
    n, K = len(data), max(k_errors, default=1)
    if K > n:
        raise ConfigError(f"k_steps: horizon {K} exceeds test sample count {n}")
    # one forecast from every start to the longest horizon: a row's forecast does
    # not depend on its batch, so horizon k's j-step errors are the first n - (k - 1)
    for j, pred in enumerate(multi_step_forecast(net, data.X, K)):
        if j == 0:
            risk = empirical_risk(pred, data, w)
        for k in [k for k in k_errors if k > j]:  # the horizons step j + 1 is part of
            e = pred[: n - (k - 1)] - data.Y[j : j + n - (k - 1)]
            k_errors[k].append(float(np.mean(np.sum(e ** 2, axis=1) / d)))
    metrics = {"empirical_risk": risk, "naive_risk": naive_predict(data, w), "n_samples": n,
               "k_step_mse": {str(k): v for k, v in k_errors.items()}}
    out_json = out_dir / c["out_json"]
    _write_json(out_json, metrics, _provenance(cfg, c["seed"]))
    print(f"wrote {out_json}; risk {metrics['empirical_risk']:.6g}, "
          f"naive {metrics['naive_risk']:.6g}")
    return 0


def cmd_certify(cfg: dict, seed: int | None, out_dir: Path) -> int:
    from .approx import ApproxPlan, build_approximator, catalog
    c = _section(cfg, "", dict, {
        "target": _str, "N": _int, "m": _int, "f_bound": (_or_none(_float), None),
        "out_json": (_str, "certificate.json"), "seed": (_seed, 0),
    }, ["target", "N", "m"], seed=seed)
    cat = catalog()
    name = c["target"]
    if name not in cat:
        raise ConfigError(f"target: unknown catalog entry {name!r}; "
                          f"choose from {sorted(cat)}")
    plan = ApproxPlan(N=c["N"], m=c["m"])
    f_bound = c["f_bound"]
    if f_bound is not None and f_bound <= 0:
        raise ConfigError(f"f_bound: must be finite and > 0, got {f_bound}")
    net, cert = build_approximator(cat[name], plan, f_bound=f_bound, seed=c["seed"])
    out_json = out_dir / c["out_json"]
    _write_json(out_json, cert, _provenance(cfg, c["seed"]))
    ok = (cert["measured_sup"] <= cert["sup_bound"]
          and cert["measured_lip"] <= cert["lip_bound"])
    print(f"wrote {out_json}; measured sup {cert['measured_sup']:.4g} "
          f"<= bound {cert['sup_bound']:.4g}: {ok}")
    return 0 if ok else 3


def _dependence_from_spec(spec):
    from .rates import (fdm_exponential, fdm_polynomial, independent, mixing_exponential,
                        mixing_polynomial)
    kinds = {"independent": independent, "mixing_polynomial": mixing_polynomial,
             "mixing_exponential": mixing_exponential, "fdm_polynomial": fdm_polynomial,
             "fdm_exponential": fdm_exponential}
    casts = {"kind": _str, "alpha": _float, "kappa": _float, "rho": _float}
    return _section(spec, "dependence", _kinded(kinds), casts, ["kind"])


def _profile_from_spec(spec):
    from .rates import SmoothnessProfile
    if "beta" in spec:  # checked here, as isotropic copies both into every stage
        casts = {"beta": _at_least(1, _float), "t": _at_least(1)}
        return _section(spec, "profile", SmoothnessProfile.isotropic, casts, casts)
    casts = {"beta_dec": _float, "t_dec": _int, "beta_enc0": _float, "t_enc0": _int,
             "beta_enc1": _float, "t_enc1": _int}
    return _section(spec, "profile", SmoothnessProfile, casts, casts)


def cmd_rates(cfg: dict, seed: int | None, out_dir: Path) -> int:
    from .data import write_csv
    from .rates import choose_N, oracle_bound, predicted_rate, rate_envelope, rate_function
    c = _section(cfg, "", dict, {
        "dependence": _object, "profile": _object, "x_grid": (_object, {}),
        "n_values": (_each(_at_least(2)), [1000, 10000, 100000]),
        "out_lambda_csv": (_str, "lambda.csv"), "out_rates_csv": (_str, "rates.csv"),
        "seed": (_seed, 0)}, ["dependence", "profile"], seed=seed)
    spec = _dependence_from_spec(c["dependence"])
    profile = _profile_from_spec(c["profile"])
    grid = _section(c["x_grid"], "x_grid", dict,
                    {"min": (_float, 1e-6), "max": (_float, 1.0), "points": (_int, 25)})
    if not (0 < grid["min"] < grid["max"]) or grid["points"] < 2:
        raise ConfigError("x_grid: need 0 < min < max and points >= 2")
    xs = np.logspace(math.log10(grid["min"]), math.log10(grid["max"]), grid["points"])
    prov = _provenance(cfg, c["seed"])
    lam = [float(rate_function(spec, float(x))) for x in xs]
    env = [float(rate_envelope(spec, float(x))) for x in xs]

    out_lambda = out_dir / c["out_lambda_csv"]
    write_csv(out_lambda, ["x", "lambda", "envelope"], zip(xs, lam, env), prov)

    out_rates = out_dir / c["out_rates_csv"]
    alpha, rates_prov = spec.alpha, prov
    if alpha is None:
        # choose_N and predicted_rate need an alpha; say which one is used
        alpha, note = 2.0, "2.0 (assumed: kind has no alpha)"
        rates_prov = {**prov, "rate_alpha": note}
        print(f"{out_rates}: rate_alpha={note}")
    rows = []
    for n in c["n_values"]:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built on first use
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        _parser().error(f"argument --seed: must be >= 0, got {args.seed}")

    if args.command == "train" and args.fetch_note:
        print(WEATHER_DATA_NOTE)
        return 0
    if args.config is None:
        print("error: --config is required", file=sys.stderr)
        return 2

    try:
        cfg = _load(_load_json, args.config, "--config")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.seed, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
