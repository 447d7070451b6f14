"""Risk, gradient, SGD loop, baseline and forecasting tests."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edforecast import ConfigError, train as train_module
from edforecast.data import LagDataset, lag_embed
from edforecast.network import Architecture, Network, ShapeError
from edforecast.train import (
    TrainConfig,
    WeightFn,
    Workspace,
    empirical_risk,
    gradient,
    init_network,
    multi_step_forecast,
    naive_predict,
    prune_to_sparsity,
    train_sgd,
)


def make_dataset(X, Y, r=1, n=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return LagDataset(X=X, Y=Y, r=r, d=Y.shape[1], n=n or (len(X) + r))


def max_entry(net):
    return max(float(np.max(np.abs(a))) for a in net.weights + net.biases)


# -- weight function -------------------------------------------------------


def test_box_ramp_inside_inner_box():
    w = WeightFn(kind="box_ramp", varsigma=0.1)
    assert w(np.full(3, 0.5))[0] == 1.0


def test_box_ramp_outside_unit_box():
    w = WeightFn(kind="box_ramp", varsigma=0.1)
    x = np.array([0.5, -0.2, 0.5])
    assert w(x)[0] == 0.0


def test_box_ramp_linear_between():
    w = WeightFn(kind="box_ramp", varsigma=0.1)
    # sup-distance 0.05 from the inner box [0.1, 0.9]^2
    x = np.array([0.05, 0.5])
    assert w(x)[0] == pytest.approx(0.5, abs=1e-12)


def test_box_ramp_lipschitz_property():
    w = WeightFn(kind="box_ramp", varsigma=0.2)
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.5, 1.5, size=(2000, 2))
    Xp = rng.uniform(-0.5, 1.5, size=(2000, 2))
    num = np.abs(w(X) - w(Xp))
    den = np.max(np.abs(X - Xp), axis=1)
    assert np.all(num <= (1.0 / 0.2) * den + 1e-12)
    assert np.all((w(X) >= 0) & (w(X) <= 1))


def test_weight_config_errors():
    with pytest.raises(ValueError):
        WeightFn(kind="box_ramp", varsigma=0.5)
    with pytest.raises(ValueError):
        WeightFn(kind="box_ramp", varsigma=-0.1)
    with pytest.raises(ValueError):
        WeightFn(kind="gauss")


# -- empirical risk --------------------------------------------------------


def test_risk_zero_for_exact_predictor():
    net = Network([np.eye(2)], [])
    data = make_dataset([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]])
    assert empirical_risk(net.eval_batch(data.X), data, WeightFn()) == 0.0


def test_risk_hand_computed_single_pair():
    # one pair, d=2, residual (1,1), W=1, n=2: (1/2)*(1/2)*2 = 0.5
    net = Network([np.zeros((2, 2))], [])
    data = make_dataset([[5.0, 5.0]], [[1.0, 1.0]], r=1, n=2)
    assert empirical_risk(net.eval_batch(data.X), data, WeightFn()) == pytest.approx(0.5)


def test_risk_vanishes_under_zero_weight():
    net = Network([np.zeros((2, 2))], [])
    data = make_dataset([[-3.0, -3.0]], [[10.0, -7.0]])  # inputs outside [0,1]^2
    w = WeightFn(kind="box_ramp", varsigma=0.1)
    assert empirical_risk(net.eval_batch(data.X), data, w) == 0.0


def test_risk_rejects_empty_dataset():
    net = Network([np.eye(1)], [])
    data = LagDataset(X=np.empty((0, 1)), Y=np.empty((0, 1)), r=1, d=1, n=1)
    with pytest.raises(ValueError):
        empirical_risk(net.eval_batch(data.X), data, WeightFn())


@pytest.mark.parametrize("shape", [(2, 1), (2,), (1, 2), (2, 3)])
def test_risk_rejects_predictions_of_another_shape(shape):
    # a 1-output network's (n, 1) predictions of 2-d values are an error, not a risk
    data = make_dataset([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ShapeError, match=rf"{re.escape(str(shape))}, expected \(2, 2\)"):
        empirical_risk(np.zeros(shape), data, WeightFn())


# -- gradients -------------------------------------------------------------


def test_gradient_zero_residual_is_zero():
    net = Network([np.eye(2)], [])
    X = np.array([[1.0, 2.0]])
    g_w, g_b = gradient(Workspace(net), X, X.copy(), WeightFn()(X))
    assert all(np.all(g == 0) for g in g_w)


def finite_difference_grads(net, X, Y, w, lam, h=1e-6):
    def loss(weights, biases):
        probe = Network(weights, biases, net.arch.L1)
        out = probe.eval_batch(X)
        per = np.sum((Y - out) ** 2, axis=1) / net.arch.out_dim
        total = float(np.mean(per * w(X)))
        total += lam * sum(float(np.sum(m * m)) for m in weights)
        total += lam * sum(float(np.sum(b * b)) for b in biases)
        return total

    g_w = []
    for i, mat in enumerate(net.weights):
        g = np.zeros_like(mat)
        for r in range(mat.shape[0]):
            for c in range(mat.shape[1]):
                up = [m.copy() for m in net.weights]
                dn = [m.copy() for m in net.weights]
                up[i][r, c] += h
                dn[i][r, c] -= h
                g[r, c] = (loss(up, net.biases) - loss(dn, net.biases)) / (2 * h)
        g_w.append(g)
    g_b = []
    for i, vec in enumerate(net.biases):
        g = np.zeros_like(vec)
        for r in range(vec.shape[0]):
            up = [b.copy() for b in net.biases]
            dn = [b.copy() for b in net.biases]
            up[i][r] += h
            dn[i][r] -= h
            g[r] = (loss(net.weights, up) - loss(net.weights, dn)) / (2 * h)
        g_b.append(g)
    return g_w, g_b


def min_preactivation_gap(net, X):
    """Smallest |pre-activation| across hidden layers; finite differences are
    only informative when no sample sits on a ReLU kink."""
    A = X
    gap = np.inf
    for i in range(net.arch.L):
        Z = A @ net.weights[i].T - net.biases[i]
        gap = min(gap, float(np.min(np.abs(Z))))
        A = np.maximum(Z, 0.0)
    return gap


def kink_free_batch(net, rng, n, gap=1e-3, tries=50):
    for _ in range(tries):
        X = rng.uniform(0, 1, size=(n, net.arch.in_dim))
        if min_preactivation_gap(net, X) > gap:
            return X
    raise AssertionError("could not sample a kink-free batch")


def sgd_step_gradient(net, X, Y, w, lam, eta=2.0 ** -10):
    """(theta_0 - theta_1) / eta of one whole-batch train_sgd step: the
    gradient of the loss plus lam |theta|^2, with L2 where train_sgd applies it."""
    data = LagDataset(X=X, Y=Y, r=1, d=Y.shape[1], n=len(X) + 1)
    cfg = TrainConfig(epochs=1, lr_schedule=((0, eta),), l2_lambda=lam, batch_size=len(X))
    stepped, _ = train_sgd(net, data, cfg, w)
    return ([(a - b) / eta for a, b in zip(net.weights, stepped.weights)],
            [(a - b) / eta for a, b in zip(net.biases, stepped.biases)])


@pytest.mark.parametrize("p,l1,lam,seed", [
    ((2, 4, 2), None, 0.0, 0),
    ((3, 5, 4, 3), None, 1e-3, 1),
    ((2, 4, 1, 4, 2), 2, 0.0, 2),
    ((1, 3, 1), None, 0.1, 3),
    ((4, 6, 3), None, 0.0, 4),
])
def test_gradient_matches_finite_differences(p, l1, lam, seed):
    rng = np.random.default_rng(seed)
    arch = Architecture(p, L1=l1)
    net = init_network(arch, seed + 100)
    # nudge biases so dead paths do not pin pre-activations exactly at 0
    net = Network(net.weights,
                  [b - 0.05 * (i + 1) for i, b in enumerate(net.biases)], arch.L1)
    X = kink_free_batch(net, rng, 8)
    Y = rng.uniform(-1, 1, size=(8, p[-1]))
    w = WeightFn()
    if lam:
        g_w, g_b = sgd_step_gradient(net, X, Y, w, lam)
    else:
        g_w, g_b = gradient(Workspace(net), X, Y, w(X))
    fd_w, fd_b = finite_difference_grads(net, X, Y, w, lam)
    for a, b in zip(g_w + g_b, fd_w + fd_b):
        scale = np.maximum(np.abs(b), 1e-3)
        assert np.max(np.abs(a - b) / scale) < 1e-4


# -- SGD loop --------------------------------------------------------------


def small_series(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = 0.5 * x[i - 1] + rng.normal(0, 0.3)
    return x[:, None]


def test_train_lr_zero_keeps_net():
    data = lag_embed(small_series(), 1)
    arch = Architecture((1, 4, 1))
    net = init_network(arch, 0)
    cfg = TrainConfig(epochs=3, lr_schedule=((0, 0.0),), seed=1)
    trained, curve = train_sgd(net, data, cfg, WeightFn())
    for a, b in zip(net.weights, trained.weights):
        assert np.array_equal(a, b)
    risks = [rec.train_risk for rec in curve]
    assert risks.count(risks[0]) == len(risks)


def test_train_deterministic_given_seed():
    data = lag_embed(small_series(), 1)
    arch = Architecture((1, 6, 6, 1))
    cfg = TrainConfig(epochs=5, lr_schedule=((0, 0.01),), seed=9, batch_size=4)
    out1, _ = train_sgd(init_network(arch, 3), data, cfg, WeightFn())
    out2, _ = train_sgd(init_network(arch, 3), data, cfg, WeightFn())
    for a, b in zip(out1.weights, out2.weights):
        assert np.array_equal(a, b)
    for a, b in zip(out1.biases, out2.biases):
        assert np.array_equal(a, b)


def reference_gradient(net, X, Y, w, l2_lambda=0.0):
    """The per-layer gradient that evaluates W on every batch: the oracle for
    the flat-vector SGD step."""
    L = net.arch.L
    acts = [np.asarray(X, dtype=np.float64)]
    pre = []
    for i in range(L):
        z = acts[-1] @ net.weights[i].T - net.biases[i]
        pre.append(z)
        acts.append(np.maximum(z, 0.0))
    out = acts[-1] @ net.weights[L].T
    g_out = (2.0 / (net.arch.out_dim * X.shape[0])) * (out - Y) * w(X)[:, None]
    g_w = [None] * (L + 1)
    g_b = [None] * L
    g_w[L] = g_out.T @ acts[L]
    g_a = g_out @ net.weights[L]
    for i in range(L - 1, -1, -1):
        g_z = g_a * (pre[i] > 0.0)
        g_b[i] = -np.sum(g_z, axis=0)
        g_w[i] = g_z.T @ acts[i]
        if i > 0:
            g_a = g_z @ net.weights[i]
    if l2_lambda:
        g_w = [gw + 2.0 * l2_lambda * wm for gw, wm in zip(g_w, net.weights)]
        g_b = [gb + 2.0 * l2_lambda * bv for gb, bv in zip(g_b, net.biases)]
    return g_w, g_b


def reference_train_sgd(net, data, cfg, w):
    """SGD that gathers every batch by fancy indexing and updates each layer's
    arrays separately; returns (weights, biases, per-epoch train risks)."""
    rng = np.random.default_rng(cfg.seed)
    weights = [wm.copy() for wm in net.weights]
    biases = [bv.copy() for bv in net.biases]
    current = Network(weights, biases, net.arch.L1)
    risks = []
    for epoch in range(cfg.epochs):
        lr = cfg.rate_at(epoch)
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            g_w, g_b = reference_gradient(current, data.X[idx], data.Y[idx], w,
                                          cfg.l2_lambda)
            for i in range(net.arch.L + 1):
                weights[i] -= lr * g_w[i]
            for i in range(net.arch.L):
                biases[i] -= lr * g_b[i]
            if cfg.project_entries:
                for i in range(net.arch.L + 1):
                    np.clip(weights[i], -1.0, 1.0, out=weights[i])
                for i in range(net.arch.L):
                    np.clip(biases[i], -1.0, 1.0, out=biases[i])
        risks.append(empirical_risk(Network(weights, biases, net.arch.L1).eval_batch(data.X),
                                    data, w))
    return weights, biases, risks


@pytest.mark.parametrize("batch_size,l2,project,weight,lr", [
    (1, 1e-3, False, WeightFn(), ((0, 0.05), (2, 0.01))),   # the benchmark's regime
    (1, 0.0, True, WeightFn(), ((0, 2.0),)),                 # projection active
    (1, 1e-4, False, WeightFn(kind="box_ramp", varsigma=0.2), ((0, 0.05),)),
    (4, 1e-3, False, WeightFn(), ((0, 0.05),)),               # last batch of 2 rows
])
def test_flat_sgd_matches_per_layer_reference(batch_size, l2, project, weight, lr):
    data = lag_embed(small_series(seed=3, n=60), 2, normalize=True)
    assert len(data) % 4 == 2
    arch = Architecture((2, 6, 5, 1, 5, 1), L1=3)
    net = init_network(arch, 8)
    net = Network(net.weights, [b - 0.05 for b in net.biases], arch.L1)
    before = [a.copy() for a in net.weights + net.biases]
    cfg = TrainConfig(epochs=4, lr_schedule=lr, l2_lambda=l2, batch_size=batch_size,
                      seed=12, project_entries=project)
    trained, curve = train_sgd(net, data, cfg, weight)
    ref_w, ref_b, ref_risks = reference_train_sgd(net, data, cfg, weight)
    for a, b in zip(trained.weights + trained.biases, ref_w + ref_b):
        assert np.array_equal(a, b)
    assert [rec.train_risk for rec in curve] == ref_risks
    # the input network is left as it was
    for a, b in zip(net.weights + net.biases, before):
        assert np.array_equal(a, b)
    if project:
        assert max_entry(trained) == 1.0
    if weight.kind == "box_ramp":
        wts = weight(data.X)
        assert np.any((wts > 0.0) & (wts < 1.0)) and np.any(wts == 0.0)


def flat_sgd_case(kind):
    """(net, data, weight) for the one-sample SGD shapes the main case lacks."""
    rng = np.random.default_rng(21)
    if kind == "depth0":
        data = lag_embed(rng.uniform(0, 1, size=(40, 2)), 2)
        arch = Architecture((4, 2))
        return init_network(arch, 3), data, WeightFn()
    if kind == "sweep_cell":
        # the benchmark sweep's cell: d = 8, r = 2, bottleneck m = 8
        data = lag_embed(rng.normal(size=(50, 8)), 2, normalize=True)
        arch = Architecture((16, 16, 24, 8, 24, 8, 8), L1=3)
        return init_network(arch, 4), data, WeightFn(kind="box_ramp", varsigma=0.1)
    if kind == "highd":
        # the benchmark's high_d train: d = 30, r = 1, every sample weighing 1.0
        data = lag_embed(rng.normal(size=(40, 30)), 1, normalize=True)
        arch = Architecture((30, 60, 30, 2, 30, 60, 30), L1=3)
        return init_network(arch, 5), data, WeightFn()
    # input and output width 1, so the sample's row view and the output's
    # column view are width 1, and the first layer is 1 x 1
    data = lag_embed(small_series(seed=5, n=50), 1, normalize=True)
    arch = Architecture((1, 1, 5, 1), L1=1)
    net = init_network(arch, 6)
    return Network([np.array([[0.9]])] + net.weights[1:],
                   [np.array([0.3]), net.biases[1] - 0.05], arch.L1), data, WeightFn()


@pytest.mark.parametrize("kind", ["depth0", "sweep_cell", "highd", "width1"])
def test_flat_sgd_matches_per_layer_reference_on_more_shapes(kind):
    net, data, weight = flat_sgd_case(kind)
    cfg = TrainConfig(epochs=3, lr_schedule=((0, 0.3), (2, 0.05)), l2_lambda=1e-4, seed=2)
    trained, curve = train_sgd(net, data, cfg, weight)
    ref_w, ref_b, ref_risks = reference_train_sgd(net, data, cfg, weight)
    for a, b in zip(trained.weights + trained.biases, ref_w + ref_b):
        assert np.array_equal(a, b)
    assert [rec.train_risk for rec in curve] == ref_risks
    assert not np.array_equal(trained.weights[-1], net.weights[-1])
    if kind == "sweep_cell":
        wts = weight(data.X)
        assert np.any((wts > 0.0) & (wts < 1.0))


def test_workspace_is_pinned_to_the_network_it_was_built_for():
    # the workspace carries its network, and gradient returns the views of
    # the workspace's flat gradient, for one sample and for a batch
    net, x, y = one_sample_case("random", 1)
    ws = Workspace(net)
    assert ws.net is net
    assert all(np.shares_memory(a, ws.g) for a in ws.g_w + ws.g_b)
    g_w, g_b = gradient(ws, x, y, 1.0)
    assert g_w is ws.g_w and g_b is ws.g_b
    b_w, b_b = gradient(ws, x[None], y[None], np.ones(1))
    assert b_w is ws.g_w and b_b is ws.g_b
    ref_w, ref_b = reference_gradient(net, x[None], y[None], WeightFn())
    for a, b in zip(b_w + b_b, ref_w + ref_b):
        assert np.array_equal(a, b)


def test_gradient_into_out_arrays_matches_allocating_call():
    rng = np.random.default_rng(4)
    arch = Architecture((3, 5, 4, 2))
    net = init_network(arch, 2)
    X = rng.uniform(0, 1, size=(5, 3))
    Y = rng.uniform(-1, 1, size=(5, 2))
    wts = WeightFn(kind="box_ramp", varsigma=0.3)(X)
    assert np.any((wts > 0.0) & (wts < 1.0))
    # a batch of several rows writes every entry of the workspace's gradient
    ws = Workspace(net)
    ws.g.fill(np.nan)
    g_w, g_b = gradient(ws, X, Y, wts)
    assert np.all(np.isfinite(ws.g))
    ref_w, ref_b = reference_gradient(net, X, Y, WeightFn(kind="box_ramp", varsigma=0.3))
    for a, b in zip(g_w + g_b, ref_w + ref_b):
        assert np.array_equal(a, b)


def one_sample_case(kind, seed):
    """(net, x, y) for the one-sample gradient tests."""
    rng = np.random.default_rng(seed)
    if kind == "depth0":
        net = Network([rng.uniform(-1, 1, size=(2, 3))], [])
        return net, rng.uniform(0, 1, 3), rng.uniform(-1, 1, 2)
    arch = Architecture((4, 6, 2, 5, 3), L1=2)
    net = init_network(arch, seed)
    x, y = rng.uniform(0, 1, 4), rng.uniform(-1, 1, 3)
    if kind == "relu_kink":
        # hidden unit 0 of layer 0 sits exactly at pre-activation 0, where ReLU'(0) = 0
        b0 = net.biases[0].copy()
        b0[0] = (net.weights[0] @ x)[0]
        net = Network(net.weights, [b0] + net.biases[1:], arch.L1)
        z = net.weights[0] @ x - b0
        assert z[0] == 0.0 and np.any(z < 0.0)
    return net, x, y


@pytest.mark.parametrize("kind, seed", [("random", 1), ("random", 2), ("random", 3),
                                        ("depth0", 4), ("relu_kink", 5)])
@pytest.mark.parametrize("weight", ["one", "zero", "box_ramp", 1.0, 0.0, 0.3])
@pytest.mark.parametrize("lam", [0.0, 0.2])  # the L2 of the train_sgd step below
def test_one_sample_gradient_matches_batch_of_one(kind, seed, weight, lam):
    net, x, y = one_sample_case(kind, seed)
    if isinstance(weight, float):
        # a Python float, as a library caller may pass it
        wfn, wt = (lambda X: np.full(len(X), weight)), weight
    else:
        wfn = {"one": WeightFn(), "zero": lambda X: np.zeros(len(X)),
               "box_ramp": WeightFn(kind="box_ramp", varsigma=0.45)}[weight]
        wt = wfn(x[None])[0]
    if weight == "box_ramp":
        assert 0.0 < wt < 1.0
    # two workspaces, since each call overwrites its own workspace's views
    one_w, one_b = gradient(Workspace(net), x, y, wt)
    batch_w, batch_b = gradient(Workspace(net), x[None], y[None], np.array([wt]))
    ref_w, ref_b = reference_gradient(net, x[None], y[None], wfn)
    for a, c, d in zip(one_w + one_b, batch_w + batch_b, ref_w + ref_b):
        assert a.shape == c.shape
        assert np.array_equal(a, c) and np.array_equal(a, d)
    if weight in ("zero", 0.0):
        assert not any(np.any(a) for a in one_w + one_b)
    if kind == "relu_kink":
        assert one_b[0][0] == 0.0 and not np.any(one_w[0][0])
    # train_sgd's step on this sample adds the L2 term 2 lam theta to that
    # gradient, in its flat update, with the same bits as per array
    eta = 0.125
    data = LagDataset(X=x[None], Y=y[None], r=1, d=len(y), n=2)
    cfg = TrainConfig(epochs=1, lr_schedule=((0, eta),), l2_lambda=lam)
    stepped, _ = train_sgd(net, data, cfg, wfn)
    for a, g, b in zip(net.weights + net.biases, one_w + one_b,
                       stepped.weights + stepped.biases):
        assert np.array_equal(a - eta * (g + 2.0 * lam * a if lam else g), b)


@pytest.mark.parametrize("kind, seed", [("random", 1), ("depth0", 4)])
def test_one_sample_gradient_never_calls_numpy_dot(monkeypatch, kind, seed):
    # its products go through the ndarray method, which skips np.dot's dispatcher
    net, x, y = one_sample_case(kind, seed)
    batch_w, batch_b = gradient(Workspace(net), x[None], y[None], np.array([0.7]))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.dot was called")

    monkeypatch.setattr(np, "dot", refuse)
    one_w, one_b = gradient(Workspace(net), x, y, 0.7)
    for a, b in zip(one_w + one_b, batch_w + batch_b):
        assert np.array_equal(a, b)


def test_one_sgd_step_makes_one_mask_call_and_one_negation(monkeypatch):
    # the ufunc calls of each train_sgd step on the benchmark's L = 5 sweep cell;
    # the step's 3L + 2 products are ndarray.dot methods, which numpy does not see
    net, data, weight = flat_sgd_case("sweep_cell")
    L, log, real_gradient = net.arch.L, [], train_module.gradient

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not isinstance(attr, np.ufunc):
                return attr

            def counted(*args, **kwargs):
                log.append(name)
                return attr(*args, **kwargs)
            return counted

    def marked_gradient(ws, X, Y, wts):
        log.append(("gradient", float(wts)))
        result = real_gradient(ws, X, Y, wts)
        log.append(("update",))
        return result

    cfg = TrainConfig(epochs=1, lr_schedule=((0, 0.05),), l2_lambda=1e-4, seed=2)
    monkeypatch.setattr(train_module, "np", CountingNumpy())
    monkeypatch.setattr(train_module, "gradient", marked_gradient)
    counted, _ = train_sgd(net, data, cfg, weight)
    monkeypatch.undo()
    marks = [i for i, entry in enumerate(log) if isinstance(entry, tuple)]
    assert len(marks) == 2 * len(data)
    at_one = set()
    # the last step's update runs into the epoch's risk evaluation, so it is left out
    for start, mid, end in zip(marks[0::2], marks[1::2], marks[2::2]):
        wt = log[start][1]
        at_one.add(wt == 1.0)
        step = Counter(log[start + 1 : mid])
        assert step == {"subtract": L + 1, "maximum": L, "heaviside": 1,
                        "multiply": L + 1 + (wt != 1.0), "negative": 1}
        assert sum(step.values()) == 6 * L + 7 - (3 * L + 2) - (wt == 1.0)
        # the L2 term, the learning-rate scaling and the subtraction
        assert Counter(log[mid + 1 : end]) == {"multiply": 2, "add": 1, "subtract": 1}
    assert False in at_one
    plain, _ = train_sgd(net, data, cfg, weight)
    for a, b in zip(counted.weights + counted.biases, plain.weights + plain.biases):
        assert np.array_equal(a, b)


def test_every_ufunc_call_of_an_sgd_step_writes_into_an_output(monkeypatch):
    # the step allocates nothing: each ufunc call of a train_sgd step on the L = 5
    # sweep cell names its output, positionally or as out=, and returns it
    net, data, weight = flat_sgd_case("sweep_cell")
    L, log, real_gradient = net.arch.L, [], train_module.gradient

    class OutputCheckingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not isinstance(attr, np.ufunc):
                return attr

            def checked(*args, **kwargs):
                out = args[attr.nin:]
                if "out" in kwargs:
                    out = kwargs["out"] if isinstance(kwargs["out"], tuple) else (kwargs["out"],)
                result = attr(*args, **kwargs)
                log.append((name, len(out) == 1 and isinstance(out[0], np.ndarray)
                            and result is out[0]))
                return result
            return checked

    def marked_gradient(ws, X, Y, wts):
        log.append("gradient")
        return real_gradient(ws, X, Y, wts)

    cfg = TrainConfig(epochs=1, lr_schedule=((0, 0.05),), l2_lambda=1e-4, seed=2,
                      project_entries=True)
    monkeypatch.setattr(train_module, "np", OutputCheckingNumpy())
    monkeypatch.setattr(train_module, "gradient", marked_gradient)
    checked, _ = train_sgd(net, data, cfg, weight)
    monkeypatch.undo()
    marks = [i for i, entry in enumerate(log) if entry == "gradient"]
    assert len(marks) == len(data)
    # the last step's update runs into the epoch's risk evaluation, so it is left out
    for start, end in zip(marks, marks[1:]):
        step = log[start + 1 : end]
        # the gradient's 3L + 5 ufuncs (one fewer at sample weight 1.0), 6 in the update
        assert len(step) in (3 * L + 4 + 6, 3 * L + 5 + 6)
        assert [name for name, has_out in step if not has_out] == []
    assert {entry[0] for entry in log if entry != "gradient"} >= {
        "subtract", "maximum", "minimum", "heaviside", "multiply", "negative", "add"}
    plain, _ = train_sgd(net, data, cfg, weight)
    for a, b in zip(checked.weights + checked.biases, plain.weights + plain.biases):
        assert np.array_equal(a, b)


def test_one_sample_gradient_rejects_a_sample_of_the_wrong_length():
    net, x, y = one_sample_case("random", 5)
    ws = Workspace(net)
    for bad in (np.append(x, 0.5), x[:-1]):
        with pytest.raises(ValueError):
            gradient(ws, bad, y, 1.0)
    with pytest.raises(ValueError):
        gradient(ws, x, np.append(y, 0.5), 1.0)


def test_one_sample_gradient_rejects_a_target_that_would_broadcast():
    net, x, y = one_sample_case("random", 6)
    assert net.arch.out_dim == 3
    for bad in (y[:1], y[:2], y[None], np.float64(0.7)):
        with pytest.raises(ShapeError, match="out_dim 3"):
            gradient(Workspace(net), x, bad, 1.0)


def test_batch_gradient_rejects_a_target_that_would_broadcast():
    net, _, _ = one_sample_case("random", 7)
    rng = np.random.default_rng(7)
    X, Y = rng.uniform(0, 1, (3, 4)), rng.uniform(-1, 1, (3, 3))
    for bad in (Y[:, :1], Y[:1], Y[0], Y[:, :, None]):
        with pytest.raises(ShapeError, match="out_dim 3"):
            gradient(Workspace(net), X, bad, np.ones(3))
    gradient(Workspace(net), X, Y, np.ones(3))


def dense_risk(net, data, w):
    """Reference risk through the row-major dense evaluation loop."""
    A = data.X
    for i in range(net.arch.L):
        A = np.maximum(A @ net.weights[i].T - net.biases[i], 0.0)
    resid = data.Y - A @ net.weights[net.arch.L].T
    return float(np.sum(np.sum(resid * resid, axis=1) / data.d * w(data.X)) / data.n)


def test_train_curve_tracks_updates_of_a_sparse_initial_net():
    # the hidden 20x20 layer starts 5% dense, so its first evaluation runs it
    # as a sparse kernel; the curve must follow the weights SGD changes in place
    series = small_series(seed=4, n=120)
    data, test = lag_embed(series[:80], 1), lag_embed(series[80:], 1)
    arch = Architecture((1, 20, 20, 1))
    net = init_network(arch, 5)
    net = Network([net.weights[0], 0.5 * np.eye(20), net.weights[2]], net.biases, arch.L1)
    w = WeightFn()
    epochs = 3
    _, curve = train_sgd(net, data, TrainConfig(epochs=epochs, lr_schedule=((0, 0.05),),
                                                seed=6, batch_size=4), w, test_data=test)
    for e in range(epochs):
        # the same run cut after e+1 epochs ends on the weights of epoch e
        cut, _ = train_sgd(net, data, TrainConfig(epochs=e + 1, lr_schedule=((0, 0.05),),
                                                  seed=6, batch_size=4), w)
        assert curve[e].train_risk == pytest.approx(dense_risk(cut, data, w), rel=1e-12, abs=0)
        assert curve[e].test_risk == pytest.approx(dense_risk(cut, test, w), rel=1e-12, abs=0)
    assert curve[0].train_risk != pytest.approx(dense_risk(net, data, w), rel=1e-6)


def test_train_projection_keeps_entries_bounded():
    data = lag_embed(small_series(), 1)
    arch = Architecture((1, 4, 1))
    cfg = TrainConfig(epochs=4, lr_schedule=((0, 0.5),), seed=2,
                      project_entries=True, batch_size=4)
    trained, _ = train_sgd(init_network(arch, 1), data, cfg, WeightFn())
    assert max_entry(trained) <= 1.0


def test_train_linear_model_approaches_noise_floor():
    rng = np.random.default_rng(7)
    n = 800
    sd = 0.3
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = 0.5 * x[i - 1] + rng.normal(0, sd)
    data = lag_embed(x[:600, None], 1)
    test = lag_embed(x[600:, None], 1)
    arch = Architecture((1, 8, 1))
    cfg = TrainConfig(epochs=40, lr_schedule=((0, 0.05), (25, 0.01)),
                      seed=0, batch_size=1)
    trained, _ = train_sgd(init_network(arch, 0), data, cfg, WeightFn())
    floor = sd * sd
    assert empirical_risk(trained.eval_batch(test.X), test, WeightFn()) <= 1.1 * floor * 1.35


def test_training_divergence_detected():
    from edforecast.train import TrainingDiverged

    # a linear map with an oversized step oscillates with growing amplitude
    data = lag_embed(small_series(), 1)
    arch = Architecture((1, 1))
    cfg = TrainConfig(epochs=200, lr_schedule=((0, 1e3),), seed=0, batch_size=len(data))
    with pytest.raises(TrainingDiverged, match="exceeded"):
        train_sgd(init_network(arch, 0), data, cfg, WeightFn())


def test_prune_applied_through_config():
    data = lag_embed(small_series(), 1)
    arch = Architecture((1, 6, 1))
    cfg = TrainConfig(epochs=2, lr_schedule=((0, 0.01),), seed=0,
                      batch_size=4, prune_to_s=5)
    trained, _ = train_sgd(init_network(arch, 0), data, cfg, WeightFn())
    assert trained.sparsity() <= 5


def test_lr_schedule_lookup():
    cfg = TrainConfig(epochs=60, lr_schedule=((0, 0.003), (30, 0.0002)))
    assert cfg.rate_at(0) == 0.003
    assert cfg.rate_at(29) == 0.003
    assert cfg.rate_at(30) == 0.0002
    assert cfg.rate_at(59) == 0.0002


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, lr_schedule=((5, 0.1),))
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, lr_schedule=((0, 0.1), (0, 0.2)))


@pytest.mark.parametrize("kwargs", [
    {"epochs": 2, "lr_schedule": ((0, 0.5), (1.9, 0.01))},
    {"epochs": 2, "lr_schedule": ((0, 0.5), ("1", 0.01))},
    {"epochs": 2.5},
    {"epochs": "2"},
    {"epochs": 2, "batch_size": 1.5},
    {"epochs": 2, "batch_size": True},
], ids=["fraction_threshold", "string_threshold", "fraction_epochs", "string_epochs",
        "fraction_batch_size", "bool_batch_size"])
def test_train_config_refuses_a_non_integer(kwargs):
    # read as the CLI reads an integer, never truncated
    with pytest.raises(ConfigError, match="expected an integer"):
        TrainConfig(**kwargs)


def test_train_config_reads_an_integral_float_as_an_int():
    cfg = TrainConfig(epochs=3.0, lr_schedule=((0.0, 0.1), (3.0, 0.01)), batch_size=3.0)
    assert (cfg.epochs, cfg.batch_size, cfg.lr_schedule) == (3, 3, ((0, 0.1), (3, 0.01)))
    assert {type(v) for v in (cfg.epochs, cfg.batch_size, *dict(cfg.lr_schedule))} == {int}


# -- pruning ---------------------------------------------------------------


def test_prune_reaches_target_sparsity():
    rng = np.random.default_rng(11)
    arch = Architecture((3, 5, 2))
    net = init_network(arch, 4)
    for s in (0, 5, 12):
        pruned = prune_to_sparsity(net, s)
        assert pruned.sparsity() <= s
    full = prune_to_sparsity(net, 10_000)
    assert full.sparsity() == net.sparsity()


def test_prune_keeps_largest_entries():
    net = Network([np.array([[3.0, -4.0], [0.5, 0.1]])], [])
    pruned = prune_to_sparsity(net, 2)
    assert np.array_equal(pruned.weights[0], [[3.0, -4.0], [0.0, 0.0]])


# -- naive baseline and multi-step forecasts -------------------------------


def test_naive_constant_series_is_zero():
    series = np.full((50, 2), 3.14)
    data = lag_embed(series, 1)
    assert naive_predict(data, WeightFn()) == 0.0


def test_naive_iid_series_matches_analytic_variance():
    rng = np.random.default_rng(13)
    sd = 0.7
    series = rng.normal(0, sd, size=(100_000, 2))
    data = lag_embed(series, 1)
    # difference of independent values has per-coordinate variance 2 sd^2
    risk = naive_predict(data, WeightFn())
    se = 2 * sd * sd * np.sqrt(2.0 / len(data))  # rough 1-sigma of the mean
    assert abs(risk - 2 * sd * sd) < 3 * se * 2


def test_naive_uses_most_recent_lag():
    # r=2: input = (X_{i-1}, X_{i-2}) newest-first; naive must pick X_{i-1}
    series = np.array([[0.0], [1.0], [2.0], [3.0]])
    data = lag_embed(series, 2)
    # residuals: X_i - X_{i-1} = 1 for both samples; n=4, d=1
    assert naive_predict(data, WeightFn()) == pytest.approx((1.0 + 1.0) / 4.0)


def stacked_forecast(net, states, k):
    """The k horizons of multi_step_forecast stacked: (m, k, d) for an
    (m, r*d) batch."""
    return np.stack(list(multi_step_forecast(net, states, k)), axis=1)


def test_multi_step_k1_equals_eval():
    rng = np.random.default_rng(17)
    arch = Architecture((2, 4, 2))
    net = init_network(arch, 3)
    x0 = rng.uniform(0, 1, size=2)
    assert np.allclose(stacked_forecast(net, [x0], 1)[0, 0], net.eval_batch([x0])[0])


def test_multi_step_linear_matches_matrix_power():
    # linear net: f(x) = A x via positive/negative channel trick is overkill;
    # use a nonneg matrix so one hidden relu layer is exact on nonneg states
    A = np.array([[0.5, 0.2], [0.1, 0.4]])
    net = Network([A, np.eye(2)], [np.zeros(2)])
    x0 = np.array([1.0, 2.0])
    outs = stacked_forecast(net, [x0], 5)[0]
    state = x0
    for j in range(5):
        state = A @ state
        assert np.allclose(outs[j], state, atol=1e-12)


def test_multi_step_zero_net():
    net = Network([np.zeros((3, 3))], [])
    outs = stacked_forecast(net, [[1.0, 2.0, 3.0]], 4)
    assert np.all(outs == 0.0)


def test_multi_step_batch_matches_per_row_loop():
    rng = np.random.default_rng(23)
    arch = Architecture((6, 8, 5, 2))  # r=3 lags of d=2
    net = init_network(arch, 4)
    states = rng.uniform(0, 1, size=(300, 6))  # more rows than one forward block
    outs = stacked_forecast(net, states, 5)
    assert outs.shape == (300, 5, 2)
    for row, state in enumerate(states):
        assert np.max(np.abs(outs[row] - stacked_forecast(net, state[None], 5)[0])) <= 1e-12
    # the arguments are checked at the call, before any horizon is asked for;
    # a single lag state is not a batch
    for bad in (states[:, :4], states[0]):
        with pytest.raises(ValueError, match="expected"):
            multi_step_forecast(net, bad, 2)


# the sweep-cell net of the forecast benchmark: r=2 lags of d=8, L = 5
_FORECAST_NET = init_network(Architecture((16, 16, 24, 8, 24, 8, 8)), 31)
_FORECAST_STATES = np.random.default_rng(37).uniform(-1, 1, size=(600, 16))
_FORECAST_ALL = stacked_forecast(_FORECAST_NET, _FORECAST_STATES, 8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.integers(0, 599), min_size=1, max_size=600, unique=True),
       k=st.integers(1, 8))
@example(rows=[0], k=8)
@example(rows=[599], k=1)
def test_multi_step_forecast_of_a_subset_is_those_rows_of_the_whole(rows, k):
    # a row's forecast depends on that lag state alone, bitwise, at every
    # horizon: a subset, a single state among them, gives the same rows
    got = stacked_forecast(_FORECAST_NET, _FORECAST_STATES[rows], k)
    assert np.array_equal(got, _FORECAST_ALL[rows, :k])


def test_multi_step_yields_one_horizon_at_a_time():
    rng = np.random.default_rng(29)
    net = init_network(Architecture((4, 6, 2)), 5)  # r=2 lags of d=2
    states = rng.uniform(0, 1, size=(7, 4))
    steps = multi_step_forecast(net, states, 3)
    first = next(steps)
    assert first.shape == (7, 2)
    assert np.array_equal(first, net.eval_batch(states))
    assert [y.shape for y in steps] == [(7, 2), (7, 2)]


def test_multi_step_lag_rotation():
    # r=2, d=1: next state should be (forecast, previous newest)
    net = Network([np.array([[0.0, 1.0]])], [])  # predicts the older lag
    outs = stacked_forecast(net, [[5.0, 7.0]], 3)[0]
    assert outs[:, 0].tolist() == [7.0, 5.0, 7.0]
