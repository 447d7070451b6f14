"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; all tolerances are the stated ones, nothing is calibrated at
test time.
"""

import json
import math
import time

import numpy as np
import pytest

from edforecast.approx import (
    ApproxPlan,
    build_approximator,
    catalog,
    mult_net,
    multiprod_net,
)
from edforecast.cli import main as cli_main
from edforecast.data import LagDataset, lag_embed
from edforecast.network import Architecture, Network
from edforecast.rates import (
    SmoothnessProfile,
    choose_N,
    entropy_bound,
    fdm_exponential,
    fdm_polynomial,
    independent,
    lambda_dep,
    lambda_mix,
    mixing_polynomial,
    rate_envelope,
)
from edforecast.simulate import estimate_fdm, generate, high_d_model, linear_model, low_d_model
from edforecast.train import (
    TrainConfig,
    WeightFn,
    Workspace,
    gradient,
    init_network,
    train_sgd,
)


def report(idx, name, ok, detail):
    print(f"ACCEPTANCE {idx} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {idx} ({name}): {detail}"


def test_criterion_1_low_d_reproduction():
    t0 = time.monotonic()
    arch = Architecture((5, 20, 10, 1, 10, 20, 5), L1=3)
    w = WeightFn()
    risks = []
    for s in (0, 1, 2):
        series = generate(low_d_model(), 2000, burn_in=1000, seed=100 + s)
        data = lag_embed(series[:1000], 1)
        test = lag_embed(series[1000:], 1)
        cfg = TrainConfig(epochs=60, lr_schedule=((0, 0.003), (30, 0.0002)),
                          l2_lambda=1e-5, batch_size=1, seed=s)
        net, curve = train_sgd(init_network(arch, s), data, cfg, w, test_data=test)
        risks.append(curve[-1].test_risk)
    elapsed = time.monotonic() - t0
    passing = sum(0.20 <= r <= 0.35 for r in risks)
    ok = passing >= 2 and elapsed < 120.0
    report(1, "low_d protocol", ok,
           f"held-out risks {[f'{r:.4f}' for r in risks]} (optimum 0.25), "
           f"{passing}/3 in [0.20, 0.35], {elapsed:.1f}s < 120s")


def test_criterion_2_high_d_reproduction():
    t0 = time.monotonic()
    series = generate(high_d_model(), 2000, burn_in=1000, seed=21)
    data = lag_embed(series[:1000], 1)
    test = lag_embed(series[1000:], 1)
    arch = Architecture((30, 60, 30, 2, 30, 60, 30), L1=3)
    w = WeightFn()
    # two restarts of 50 epochs each (100 epochs total); the better basin is
    # selected by final training risk, never by test data
    best = None
    for s in (0, 1):
        cfg = TrainConfig(epochs=50, lr_schedule=((0, 0.003), (40, 0.0003)),
                          l2_lambda=1e-5, batch_size=1, seed=s)
        net, curve = train_sgd(init_network(arch, s), data, cfg, w, test_data=test)
        cand = (curve[-1].train_risk, curve[-1].test_risk)
        if best is None or cand[0] < best[0]:
            best = cand
    elapsed = time.monotonic() - t0
    ok = best[1] <= 2 * 0.25
    report(2, "high_d bottleneck-2", ok,
           f"held-out risk {best[1]:.4f} <= 0.5 (2x noise floor), "
           f"100 training epochs total, {elapsed:.1f}s")


def test_criterion_3_approximation_certificates():
    t0 = time.monotonic()
    cat = catalog()
    plans = {"zero": 10, "linear": 10, "product2": 23, "sinsum": 23}
    results = []
    ok = True
    for name, N in plans.items():
        for m in (8, 12):
            net, cert = build_approximator(cat[name], ApproxPlan(N=N, m=m))
            sup_ok = cert["measured_sup"] <= cert["sup_bound"]
            lip_ok = cert["measured_lip"] <= cert["lip_bound"]
            ok = ok and sup_ok and lip_ok
            results.append(f"{name}/m={m}:{'ok' if sup_ok and lip_ok else 'FAIL'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(3, "sup/Lipschitz certificates", ok,
           f"{'; '.join(results)}; {elapsed:.1f}s < 300s")


def test_criterion_4_mult_and_product_bounds():
    t0 = time.monotonic()
    details = []
    ok = True
    ax = np.linspace(0.0, 1.0, 201)
    X, Y = np.meshgrid(ax, ax)
    pairs = np.stack([X.ravel(), Y.ravel()], axis=1)
    for m in (3, 6, 10):
        err = float(np.max(np.abs(
            mult_net(m).eval_batch(pairs)[:, 0] - pairs[:, 0] * pairs[:, 1]
        )))
        good = err <= 2.0 ** -m
        ok = ok and good
        details.append(f"mult m={m}: {err:.2e}<=2^-{m}")
    per_axis = {2: 201, 3: 41, 4: 21}
    for t in (2, 3, 4):
        axes = [np.linspace(0.0, 1.0, per_axis[t])] * t
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([a.ravel() for a in mesh], axis=1)
        truth = np.prod(pts, axis=1)
        for m in (3, 6, 10):
            err = float(np.max(np.abs(
                multiprod_net(m, t).eval_batch(pts)[:, 0] - truth
            )))
            good = err <= t * t * 2.0 ** -m
            ok = ok and good
        details.append(f"prod t={t}: ok")
    elapsed = time.monotonic() - t0
    report(4, "mult/product lattice bounds", ok,
           f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_5_lambda_calculus():
    # independent: Lambda_dep(x) = x to 1e-9 on a log grid
    ind = independent()
    id_ok = all(
        abs(lambda_dep(ind, float(x)) - float(x)) <= 1e-9 * max(1.0, float(x))
        for x in np.logspace(-8, 1, 19)
    )
    # polynomial mixing envelope with the explicit constant, pointwise
    env_ok = True
    for alpha in (1.5, 2.0, 4.0):
        spec = mixing_polynomial(alpha)
        for x in np.logspace(-8, 2, 60):
            if lambda_mix(spec, float(x)) > rate_envelope(spec, float(x)) * (1 + 1e-9):
                env_ok = False
    # functional-dependence decay shapes: fitted constant stays bounded
    shape_ok = True
    fits = []
    for spec in (fdm_polynomial(2.0), fdm_exponential(0.5)):
        ratios = np.array([
            lambda_dep(spec, float(x)) / rate_envelope(spec, float(x))
            for x in np.logspace(-8, 1, 40)
        ])
        fits.append(float(ratios.max()))
        shape_ok = shape_ok and np.isfinite(ratios).all() \
            and ratios.max() < 100.0 and ratios.max() / ratios.min() < 50.0
    ok = id_ok and env_ok and shape_ok
    report(5, "Lambda calculus", ok,
           f"independent identity: {id_ok}; polynomial envelopes: {env_ok}; "
           f"shape constants {[f'{c:.2f}' for c in fits]}: {shape_ok}")


def test_criterion_6_functional_dependence_estimator():
    t0 = time.monotonic()
    a, sd = 0.7, 1.0
    model = linear_model(np.array([[1.0]]), np.array([[a]]), noise_sd=sd, name="ar1")
    ok = True
    worst = 0.0
    for k in range(1, 11):
        delta, se = estimate_fdm(model, k, q=2.0, n_mc=10_000, burn_in=50,
                                 seed=900 + k)
        target = a ** k * math.sqrt(2.0) * sd
        z = abs(delta - target) / se
        worst = max(worst, z)
        ok = ok and z <= 3.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(6, "coupled-path dependence estimator", ok,
           f"max |delta - a^k sqrt(2)|/se = {worst:.2f} <= 3 over k=1..10, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_7_gradient_correctness():
    def fd_loss(net, X, Y, w, lam):
        out = net.eval_batch(X)
        per = np.sum((Y - out) ** 2, axis=1) / net.arch.out_dim
        total = float(np.mean(per * w(X)))
        total += lam * sum(float(np.sum(m * m)) for m in net.weights)
        total += lam * sum(float(np.sum(b * b)) for b in net.biases)
        return total

    cases = [
        ((2, 5, 2), None, 0.0),
        ((3, 6, 4, 3), None, 1e-4),
        ((2, 6, 1, 6, 2), 2, 0.0),  # bottleneck architecture
        ((1, 4, 1), None, 1e-2),
        ((4, 7, 3), None, 0.0),
    ]
    w = WeightFn()
    worst = 0.0
    for case_idx, (p, l1, lam) in enumerate(cases):
        rng = np.random.default_rng(50 + case_idx)
        arch = Architecture(p, L1=l1)
        base = init_network(arch, 70 + case_idx)
        net = Network(base.weights,
                      [b - 0.07 for b in base.biases], arch.L1)
        X = None
        for _ in range(50):
            cand = rng.uniform(0, 1, size=(8, p[0]))
            A = cand
            gap = np.inf
            for i in range(arch.L):
                Z = A @ net.weights[i].T - net.biases[i]
                gap = min(gap, float(np.min(np.abs(Z))))
                A = np.maximum(Z, 0.0)
            if gap > 1e-3:
                X = cand
                break
        assert X is not None
        Y = rng.uniform(-1, 1, size=(8, p[-1]))
        if lam:
            # L2 enters only train_sgd's update: the gradient of loss + lam |theta|^2
            # is (theta_0 - theta_1) / eta of one step on the whole batch
            eta = 2.0 ** -10
            data = LagDataset(X=X, Y=Y, r=1, d=p[-1], n=9)
            cfg = TrainConfig(epochs=1, lr_schedule=((0, eta),), l2_lambda=lam, batch_size=8)
            stepped, _ = train_sgd(net, data, cfg, w)
            g_w = [(a - b) / eta for a, b in zip(net.weights, stepped.weights)]
            g_b = [(a - b) / eta for a, b in zip(net.biases, stepped.biases)]
        else:
            g_w, g_b = gradient(Workspace(net), X, Y, w(X))
        h = 1e-6
        for i, mat in enumerate(net.weights):
            for r in range(mat.shape[0]):
                for c in range(mat.shape[1]):
                    up = [m.copy() for m in net.weights]
                    dn = [m.copy() for m in net.weights]
                    up[i][r, c] += h
                    dn[i][r, c] -= h
                    fd = (fd_loss(Network(up, net.biases, arch.L1), X, Y, w, lam)
                          - fd_loss(Network(dn, net.biases, arch.L1), X, Y, w, lam)) / (2 * h)
                    rel = abs(g_w[i][r, c] - fd) / max(abs(fd), 1e-3)
                    worst = max(worst, rel)
        for i, vec in enumerate(net.biases):
            for r in range(vec.shape[0]):
                up = [b.copy() for b in net.biases]
                dn = [b.copy() for b in net.biases]
                up[i][r] += h
                dn[i][r] -= h
                fd = (fd_loss(Network(net.weights, up, arch.L1), X, Y, w, lam)
                      - fd_loss(Network(net.weights, dn, arch.L1), X, Y, w, lam)) / (2 * h)
                rel = abs(g_b[i][r] - fd) / max(abs(fd), 1e-3)
                worst = max(worst, rel)
    ok = worst < 1e-4
    report(7, "backprop vs finite differences", ok,
           f"max relative deviation {worst:.2e} < 1e-4 over 5 architectures")


def test_criterion_8_entropy_and_n_selection():
    import random

    rnd = random.Random(2024)
    worst = 0.0
    for _ in range(20):
        L = rnd.randint(1, 12)
        s = rnd.randint(1, 10 ** 4)
        p0 = rnd.randint(1, 64)
        pl = rnd.randint(1, 64)
        denom = rnd.choice([1, 2, 10, 1000, 10 ** 6])
        p = (p0,) + (16,) * L + (pl,)
        val = entropy_bound(L, None, p, s, 1.0 / denom)
        arg = 2 ** (2 * L + 5) * denom * (L + 1) * p0 ** 2 * pl ** 2 * s ** (2 * L)
        oracle = (s + 1) * math.log(arg)
        worst = max(worst, abs(val - oracle) / abs(oracle))
    n_sel = choose_N(10_000, 2.0, SmoothnessProfile.isotropic(1.0, 1))
    ok = worst <= 1e-9 and n_sel == 10
    report(8, "entropy bound and N-selection", ok,
           f"max relative error vs big-integer oracle {worst:.2e} <= 1e-9; "
           f"choose_N(1e4, alpha=2, A=1) = {n_sel} == 10")


def test_criterion_9_seasonal_sweep_beats_naive(tmp_path):
    t0 = time.monotonic()
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "model": {"kind": "seasonal", "d": 8, "period": 8, "decay": 0.97},
        "n": 700, "burn_in": 500, "seed": 42,
    }))
    assert cli_main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "train_csv": str(tmp_path / "series.csv"),
        "train_fraction": 5.0 / 7.0,
        "train": {"epochs": 25, "lr_schedule": [[0, 0.003], [18, 0.0005]],
                  "l2_lambda": 1e-5, "batch_size": 1},
        "sweep": {"r_values": [1, 2, 3, 5], "m_values": [4, 6, 8, 10],
                  "runs": 1, "out_table": "sweep.csv"},
    }))
    assert cli_main(["train", "--config", str(train_cfg), "--out", str(tmp_path)]) == 0
    lines = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    header_ok = lines[0] == "r,m,run1" and len(lines) == 1 + 16
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    best = summary["best"]["risk"]
    naive = summary["naive_risk"]
    elapsed = time.monotonic() - t0
    ok = header_ok and best < naive
    report(9, "seasonal sweep vs naive", ok,
           f"best cell risk {best:.4f} < naive {naive:.4f}; 4x4 table with "
           f"{len(lines) - 1} rows; external weather values (naive ~4.99, "
           f"best 3.93) intentionally not reproduced; {elapsed:.1f}s")
