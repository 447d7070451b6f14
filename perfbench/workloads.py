"""Workload definitions: CLI configs made from a seed, recorded values, and
the exact per-layer counts each workload must produce.

A workload is a list of CLI commands run in order inside one pass
directory.  Every path in a config is relative to that directory, so two
passes of the same seed write byte-identical artifacts (the config hash
in each provenance header sees identical configs).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# One-line rationale per workload; BENCHMARK.json carries the same text.
WHY = {
    "forecast": "SGD-bound: many small per-sample runs in a seasonal sweep plus "
                "one wide high_d train and k-step evaluate; approx and rates idle",
    "certify": "dense eval_batch of block-sparse certificate nets dominates at "
               "large N, gadget build time at small N; train idle",
    "rates": "pure-Python rate solvers: the 10,000-term fdm_polynomial tail "
             "against cheap exponential and mixing kinds; network idle",
}

# The hostspeed kernel timed around each pass: the kind of work the workload
# is bound by, so that the kernel slows with the host as the pass does.
REFERENCE = {"forecast": "numpy_small", "certify": "blas", "rates": "interpreted"}

# Per-command wall-time metrics; each command adds its time to one of them.
COMMAND_METRICS = ("simulate_s", "train_s", "sweep_s", "evaluate_s", "certify_s", "rates_s")

# -- forecast sizes --------------------------------------------------------
SEASONAL = {"kind": "seasonal", "d": 8, "period": 8, "decay": 0.97}
SEASONAL_N, SEASONAL_BURN = 700, 500
SWEEP_FRACTION = 5.0 / 7.0
SWEEP_R, SWEEP_M, SWEEP_RUNS = (1, 2), (4, 8), 1
SWEEP_EPOCHS, SWEEP_LR = 5, [[0, 0.03], [3, 0.005]]
BATCH = 1
HIGHD_N, HIGHD_BURN = 600, 500
HIGHD_ARCH = [30, 60, 30, 2, 30, 60, 30]
HIGHD_EPOCHS, HIGHD_LR = 10, [[0, 0.003], [7, 0.0005]]
K_STEPS = [1, 4, 8]

# -- certify sizes and the depth/sparsity recorded for each certificate ----
# (target, N, m, t, depth, sparsity); depth and sparsity depend only on
# (target, N, m), so they are exact expectations for every seed.
CERTIFICATES = [
    ("linear", 10, 6, 1, 11, 1461),
    ("product2", 23, 8, 2, 24, 5827),
    ("product2", 49, 10, 2, 28, 21175),
    ("sinsum", 25, 12, 2, 32, 12617),
]
PAIR_SAMPLES = 4000      # build_approximator's default; the CLI does not expose it
GRID_CAP = 1_000_000     # build_approximator's default lattice cap

# -- rates sizes -----------------------------------------------------------
RATE_KINDS = [
    ("fdm_polynomial", {"kind": "fdm_polynomial", "alpha": 2.0}),
    ("fdm_exponential", {"kind": "fdm_exponential", "rho": 0.5}),
    ("mixing_polynomial", {"kind": "mixing_polynomial", "alpha": 2.0}),
    ("mixing_exponential", {"kind": "mixing_exponential", "rho": 0.5}),
]
RATE_PROFILE = {"beta": 2.0, "t": 2}
# The seed picks one of these grid lower ends; expected.json records the
# tables of every (variant, kind) pair.
RATE_X_MIN_EXPONENTS = [5.0, 5.25, 5.5, 5.75]
RATE_X_MAX, RATE_POINTS = 0.5, 3
RATE_N_VALUES = [100000]


@dataclass
class Command:
    name: str          # unique within the workload; names the config file
    metric: str        # the per-command time metric it adds to
    argv: list
    config: dict
    outputs: list      # artifact files this command writes
    check: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    commands: list
    seeds: dict         # every seed derived from --seed, for the record
    exact_counts: dict  # per-layer counts the traced pass must reproduce


def _cmd(name, metric, verb, config, outputs, cli_seed=None, check=None):
    argv = [verb, "--config", f"{name}.json", "--out", "."]
    if cli_seed is not None:
        argv += ["--seed", str(cli_seed)]
    return Command(name, metric, argv, config, outputs, check or {})


def rate_variant(seed: int) -> int:
    return random.Random(seed).randrange(len(RATE_X_MIN_EXPONENTS))


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "forecast":
        return _forecast(seed, rng)
    if name == "certify":
        return _certify(seed, rng)
    if name == "rates":
        return _rates(seed)
    raise ValueError(f"unknown workload {name!r}")


def _forecast(seed, rng) -> Workload:
    seeds = {k: rng.randrange(1_000_000) for k in
             ("seasonal_sim", "highd_sim", "sweep", "highd_train")}
    sweep_cfg = {
        "train_csv": "seasonal.csv", "train_fraction": SWEEP_FRACTION,
        "seed": seeds["sweep"],
        "train": {"epochs": SWEEP_EPOCHS, "lr_schedule": SWEEP_LR,
                  "l2_lambda": 1e-5, "batch_size": BATCH},
        "sweep": {"r_values": list(SWEEP_R), "m_values": list(SWEEP_M),
                  "runs": SWEEP_RUNS, "out_table": "sweep.csv"},
    }
    train_cfg = {
        "train_csv": "highd.csv", "train_fraction": 0.5, "r": 1,
        "arch": {"p": HIGHD_ARCH, "L1": 3},
        "train": {"epochs": HIGHD_EPOCHS, "lr_schedule": HIGHD_LR,
                  "l2_lambda": 1e-5, "batch_size": BATCH, "seed": seeds["highd_train"]},
        "out_model": "model.json", "out_curve": "curve.csv",
    }
    commands = [
        _cmd("sim_seasonal", "simulate_s", "simulate",
             {"model": SEASONAL, "n": SEASONAL_N, "burn_in": SEASONAL_BURN,
              "seed": seeds["seasonal_sim"], "out_csv": "seasonal.csv"},
             ["seasonal.csv", "seasonal.csv.json"], check={"rows": SEASONAL_N}),
        _cmd("sim_highd", "simulate_s", "simulate",
             {"model": "high_d", "n": HIGHD_N, "burn_in": HIGHD_BURN,
              "seed": seeds["highd_sim"], "out_csv": "highd.csv"},
             ["highd.csv", "highd.csv.json"], check={"rows": HIGHD_N}),
        _cmd("sweep", "sweep_s", "train", sweep_cfg,
             ["sweep.csv", "sweep.summary.json"],
             check={"cells": len(SWEEP_R) * len(SWEEP_M)}),
        _cmd("train_highd", "train_s", "train", train_cfg,
             ["model.json", "model.meta.json", "curve.csv"]),
        _cmd("evaluate", "evaluate_s", "evaluate",
             {"model_json": "model.json", "test_csv": "highd.csv",
              "k_steps": K_STEPS, "out_json": "metrics.json"},
             ["metrics.json"], check={"k_steps": K_STEPS}),
    ]
    n_sweep = int(round(SEASONAL_N * SWEEP_FRACTION))
    n_train = int(round(HIGHD_N * 0.5))
    steps = sum(SWEEP_EPOCHS * math.ceil((n_sweep - r) / BATCH) * SWEEP_RUNS
                for r in SWEEP_R for _ in SWEEP_M)
    steps += HIGHD_EPOCHS * math.ceil((n_train - 1) / BATCH)
    exact = {
        "train.sgd_steps": steps,
        "train.runs": len(SWEEP_R) * len(SWEEP_M) * SWEEP_RUNS + 1,
        "simulate.steps": SEASONAL_N + SEASONAL_BURN + HIGHD_N + HIGHD_BURN,
        # idle layers
        "approx.gadget_calls": 0,
        "rates.lambda_dep_calls": 0,
        "rates.lambda_mix_calls": 0,
    }
    return Workload("forecast", seed, commands, seeds, exact)


def _grid_resolution(N: int, t: int) -> int:
    """Largest M with (M+1)^t <= N: the certificate's hat-grid resolution."""
    M = 1
    while (M + 2) ** t <= N:
        M += 1
    return M


def _certify(seed, rng) -> Workload:
    cli_seed = rng.randrange(1_000_000)
    commands = []
    rows = 0
    for target, N, m, t, depth, sparsity in CERTIFICATES:
        name = f"cert_{target}_N{N}"
        commands.append(_cmd(
            name, "certify_s", "certify",
            {"target": target, "N": N, "m": m, "out_json": f"{name}.out.json"},
            [f"{name}.out.json"], cli_seed=cli_seed,
            check={"depth": depth, "sparsity": sparsity}))
        grid = (10 * _grid_resolution(N, t) + 1) ** t
        rows += min(grid, GRID_CAP) + 4 * PAIR_SAMPLES
    exact = {
        "network.eval_rows": rows,
        # idle layers
        "train.runs": 0,
        "rates.lambda_dep_calls": 0,
        "rates.lambda_mix_calls": 0,
    }
    return Workload("certify", seed, commands, {"certify_cli": cli_seed}, exact)


def rate_config(kind_spec: dict, variant: int) -> dict:
    return {
        "dependence": kind_spec, "profile": RATE_PROFILE,
        "x_grid": {"min": 10.0 ** -RATE_X_MIN_EXPONENTS[variant],
                   "max": RATE_X_MAX, "points": RATE_POINTS},
        "n_values": RATE_N_VALUES,
    }


def _rates(seed) -> Workload:
    variant = rate_variant(seed)
    commands = []
    for kind, spec in RATE_KINDS:
        cfg = rate_config(spec, variant)
        cfg["out_lambda_csv"] = f"lambda_{kind}.csv"
        cfg["out_rates_csv"] = f"rates_{kind}.csv"
        commands.append(_cmd(
            f"rates_{kind}", "rates_s", "rates", cfg,
            [cfg["out_lambda_csv"], cfg["out_rates_csv"]], cli_seed=seed,
            check={"kind": kind, "variant": variant}))
    per_kind = RATE_POINTS + len(RATE_N_VALUES)
    n_fdm = sum(1 for k, _ in RATE_KINDS if k.startswith("fdm"))
    n_mix = sum(1 for k, _ in RATE_KINDS if k.startswith("mixing"))
    exact = {
        "rates.lambda_dep_calls": n_fdm * per_kind,
        "rates.lambda_mix_calls": n_mix * per_kind,
        # idle layers
        "network.eval_batch_calls": 0,
        "train.runs": 0,
        "approx.gadget_calls": 0,
    }
    return Workload("rates", seed, commands, {"rates_variant": variant}, exact)
