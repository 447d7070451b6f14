"""Weighted empirical prediction risk, backpropagation and SGD training.

The empirical risk of a predictor f on a lag dataset built from a series of
length n with r lags is

    (1/n) * sum_{i=r+1..n} (1/d) |X_i - f(input_i)|_2^2 * W(input_i),

i.e. n-r summands divided by n.  Training minimizes the batch-mean version
of the same per-sample loss plus an optional L2 penalty on all parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NumericFailure, integral
from .data import LagDataset, push_lag
from .network import Architecture, Network, ShapeError


@dataclass(frozen=True)
class WeightFn:
    """Weight function on the lag-input space, with values in [0,1].

    ``constant_one`` weighs every sample equally and takes no varsigma.
    ``box_ramp`` (varsigma 0.1 unless given) is 1 on the inner box [varsigma,
    1-varsigma]^p, 0 outside [0,1]^p (p the input dimension), and ramps linearly
    in the sup-distance to the inner box in between; it is (1/varsigma)-Lipschitz.
    """

    kind: str = "constant_one"
    varsigma: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant_one", "box_ramp"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "constant_one" and self.varsigma is not None:
            raise ValueError("constant_one takes no varsigma")
        if self.kind == "box_ramp" and self.varsigma is None:
            object.__setattr__(self, "varsigma", 0.1)
        if self.kind == "box_ramp" and not (0.0 < self.varsigma < 0.5):
            raise ValueError(f"box_ramp needs 0 < varsigma < 1/2, got {self.varsigma}")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.kind == "constant_one":
            return np.ones(X.shape[0])
        lo = np.maximum(self.varsigma - X, 0.0)
        hi = np.maximum(X - (1.0 - self.varsigma), 0.0)
        dist = np.max(np.maximum(lo, hi), axis=1)
        return 1.0 - np.clip(dist / self.varsigma, 0.0, 1.0)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings.

    batch_size defaults to 1 (per-sample stochastic gradient steps): the
    benchmark learning-rate schedules are calibrated to that regime, and
    mean-gradient mini-batches at the same rates converge far slower.  An
    invalid setting, such as a fractional epoch count, raises ValueError.
    """

    epochs: int
    lr_schedule: tuple = ((0, 1e-3),)
    l2_lambda: float = 0.0
    batch_size: int = 1
    seed: int = 0
    project_entries: bool = False
    prune_to_s: int | None = None

    def __post_init__(self):
        sched = tuple((integral(e), float(r)) for e, r in self.lr_schedule)
        object.__setattr__(self, "lr_schedule", sched)
        for key in ("epochs", "batch_size"):
            object.__setattr__(self, key, integral(getattr(self, key)))
        if not sched or sched[0][0] != 0:
            raise ValueError("lr_schedule must start at epoch threshold 0")
        thresholds = [e for e, _ in sched]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("lr_schedule thresholds must be strictly increasing")
        if any(r < 0 for _, r in sched):
            raise ValueError("lr_schedule learning rates must be nonnegative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        s = self.prune_to_s
        if s is not None and (isinstance(s, bool) or not isinstance(s, int) or s < 0):
            raise ValueError(f"prune_to_s must be an integer >= 0, got {s!r}")

    def rate_at(self, epoch: int) -> float:
        rate = self.lr_schedule[0][1]
        for threshold, r in self.lr_schedule:
            if epoch >= threshold:
                rate = r
        return rate


def init_network(arch: Architecture, seed: int) -> Network:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization per layer."""
    rng = np.random.default_rng(seed)
    weights = []
    for i in range(arch.L + 1):
        bound = 1.0 / np.sqrt(arch.p[i])
        weights.append(rng.uniform(-bound, bound, size=(arch.p[i + 1], arch.p[i])))
    biases = [np.zeros(arch.p[i + 1]) for i in range(arch.L)]
    return Network(weights, biases, arch.L1)


def empirical_risk(pred: np.ndarray, data: LagDataset, w: WeightFn) -> float:
    """Weighted empirical risk of the forecasts ``pred`` of ``data.Y`` made from
    ``data.X``, one row each; a ``pred`` of another shape raises ShapeError."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    if np.shape(pred) != data.Y.shape:
        raise ShapeError(f"predictions have shape {np.shape(pred)}, expected {data.Y.shape}")
    resid = data.Y - pred
    per_sample = np.sum(resid * resid, axis=1) / data.d
    return float(np.sum(per_sample * w(data.X)) / data.n)


def naive_predict(data: LagDataset, w: WeightFn) -> float:
    """Risk of the naive forecast: each next value is the newest lag, ``data.X[:, :d]``."""
    if data.r < 1:
        raise ValueError("naive predictor needs r >= 1")
    return empirical_risk(data.X[:, : data.d], data, w)


class Workspace:
    """Buffers for ``gradient`` on one network, owned by the caller (a training
    run), not the network: the flat gradient ``g`` (weights[0..L], then
    biases[0..L-1]; ``g_w`` and ``g_b`` are its views), the hidden layers'
    pre-activations, ReLU masks and activations (one buffer for each kind),
    and 0-d constants.  A one-sample step's operands are gathered once, one
    tuple per layer in the order the step visits them (``forward``,
    ``output``, ``backward``, ``first``), each product as its left operand's
    bound ``ndarray.dot``, with ``ufuncs`` looked up when the workspace is
    made.  The step makes 6L + 7 numpy calls (6L + 6 at sample weight 1.0),
    37 at L = 5: 3L + 2 ``ndarray.dot`` products, one ``heaviside`` for
    every mask, and one ``negative`` that turns the bias section of ``g``,
    where the backward loop leaves each layer's masked signal, into bias
    gradients.
    """

    def __init__(self, net: Network):
        self.net = net
        L, W, p = net.arch.L, net.weights, net.arch.p
        hidden = sum(p[1 : L + 1])  # the hidden units, one bias each
        self.g = np.empty(sum(a.size for a in W) + hidden)
        self.g_w, self.g_b = g_w, g_b = _unflatten(self.g, net)
        self.bias_part = self.g[self.g.size - hidden :]
        self.z, self.masks, acts = np.empty((3, hidden))
        z, masks, acts = (np.split(row, np.cumsum(p[1:L])) for row in (self.z, self.masks, acts))
        self.zero, self.scale = np.array(0.0), np.array(2.0 / net.arch.out_dim)
        self.ufuncs = (np.subtract, np.maximum, np.heaviside, np.multiply, np.negative)
        self.forward = tuple(zip([W_i.dot for W_i in W[:L]], net.biases, z, acts))
        g = g_b + [np.empty(p[L + 1])]  # the signal into each layer, a hidden one in its bias slot
        self.output = (W[L].dot, g[L])
        self.backward = tuple((g[i + 1][:, None].dot, acts[i][None, :], g_w[i + 1],
                               g[i + 1].dot, W[i + 1], g_b[i], masks[i])
                              for i in range(L - 1, -1, -1))
        self.first = (g[0][:, None].dot, g_w[0])


def gradient(ws: Workspace, X: np.ndarray, Y: np.ndarray, wts: np.ndarray):
    """Exact gradient of the batch-mean weighted loss of ``ws.net``, written
    into the workspace: returns its views ``(ws.g_w, ws.g_b)``.  The loss has
    no L2 term; ``train_sgd`` applies weight decay in its flat update.

    One sample is ``X`` of shape (p0,), ``Y`` of shape (d,) and a scalar weight
    W(x); a batch is ``X`` of shape (nb, p0), ``Y`` of shape (nb, d) and
    weights of shape (nb,).  A ``Y`` of any other shape raises ShapeError, even
    one that would broadcast.  ReLU' is the Heaviside step, 0 at 0.

    One sample runs the batch-of-one path's operations in the same order (an
    outer product with one term per entry is exact), so each value is the same,
    though a zero may change sign.  Its 6L + 7 calls (see ``Workspace``) are
    ufuncs and the bound products ``A.dot(B, out)``: the C routine of
    ``np.dot`` (so the same bits) without its dispatcher.  Each passes its
    output positionally, with no keyword to parse, except ``np.maximum``,
    where numpy deprecates that.  A sample weight of exactly 1.0 skips its
    multiply.  ``train_sgd`` calls this function once per step.
    """
    net, g_w, g_b = ws.net, ws.g_w, ws.g_b
    X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y)
    if X.ndim == 1:
        out_dot, g_z = ws.output
        if Y.shape != g_z.shape:
            raise _target_error(net, Y, g_z.shape)
        subtract, maximum, heaviside, multiply, negative = ws.ufuncs
        zero, a = ws.zero, X
        for W_dot, b_i, z_i, a_next in ws.forward:
            W_dot(a, z_i)
            subtract(z_i, b_i, z_i)
            maximum(z_i, zero, out=a_next)
            a = a_next
        heaviside(ws.z, zero, ws.masks)
        out_dot(a, g_z)
        subtract(g_z, Y, g_z)
        multiply(g_z, ws.scale, g_z)
        if wts != 1.0:
            multiply(g_z, wts, g_z)
        for col_dot, row, gw_next, g_dot, W_next, g_i, mask_i in ws.backward:
            col_dot(row, gw_next)
            g_dot(W_next, g_i)
            multiply(g_i, mask_i, g_i)
        col_dot, gw_0 = ws.first
        col_dot(X[None, :], gw_0)
        negative(ws.bias_part, ws.bias_part)
        return g_w, g_b
    L, W, B = net.arch.L, net.weights, net.biases
    if len(X) == 0:
        raise ValueError("empty batch")
    if Y.shape != (len(X), net.arch.out_dim):
        raise _target_error(net, Y, (len(X), net.arch.out_dim))
    acts, pre = [X], []
    for i in range(L):
        pre.append(acts[i] @ W[i].T - B[i])
        acts.append(np.maximum(pre[i], 0.0))
    g_z = (2.0 / (net.arch.out_dim * len(X))) * (acts[L] @ W[L].T - Y) * wts[:, None]
    np.matmul(g_z.T, acts[L], out=g_w[L])
    for i in range(L - 1, -1, -1):
        g_z = (g_z @ W[i + 1]) * (pre[i] > 0.0)
        np.negative(np.sum(g_z, axis=0, out=g_b[i]), out=g_b[i])
        np.matmul(g_z.T, acts[i], out=g_w[i])
    return g_w, g_b


def _target_error(net: Network, Y: np.ndarray, want: tuple) -> ShapeError:
    return ShapeError(f"target has shape {Y.shape}, expected {want} "
                      f"for a network with out_dim {net.arch.out_dim}")


@dataclass
class EpochRecord:
    epoch: int
    train_risk: float
    test_risk: float | None = None


def _unflatten(theta: np.ndarray, net: Network):
    """Views of a flat parameter vector laid out as weights[0..L] then
    biases[0..L-1], shaped like ``net``'s arrays."""
    arrays = net.weights + net.biases
    ends = np.cumsum([a.size for a in arrays[:-1]])
    views = [v.reshape(a.shape) for v, a in zip(np.split(theta, ends), arrays)]
    return views[: net.arch.L + 1], views[net.arch.L + 1 :]


def train_sgd(net: Network, data: LagDataset, cfg: TrainConfig, w: WeightFn,
              test_data: LagDataset | None = None):
    """Mini-batch SGD with the configured learning-rate schedule.

    Deterministic for fixed (seed, config, data).  Returns the trained
    network and the per-epoch learning curve; with ``prune_to_s`` the net is
    pruned after the last epoch, whose record holds the pruned net's risks.
    Aborts with diagnostics if the train risk is not finite or exceeds 1e6
    times its initial value.
    """
    rng = np.random.default_rng(cfg.seed)
    # Flat parameters theta and the workspace's flat gradient g make a step's update a few
    # in-place whole-vector operations; each risk is taken on a fresh Network built then
    theta = np.concatenate([a.ravel() for a in net.weights + net.biases])
    weights, biases = _unflatten(theta, net)
    ws = Workspace(Network(weights, biases, net.arch.L1))
    g, decayed = ws.g, np.empty_like(theta)
    decay, lo, hi = np.array(2.0 * cfg.l2_lambda), np.array(-1.0), np.array(1.0)
    l2_lambda, project = cfg.l2_lambda, cfg.project_entries  # the update's, once per run
    multiply, add, subtract, maximum, minimum = (np.multiply, np.add, np.subtract,
                                                 np.maximum, np.minimum)

    def risks(model):
        return (empirical_risk(model.eval_batch(data.X), data, w), None if test_data is None
                else empirical_risk(model.eval_batch(test_data.X), test_data, w))

    initial = empirical_risk(Network(weights, biases, net.arch.L1).eval_batch(data.X), data, w)
    ceiling = 1e6 * max(initial, 1e-12)
    curve, n_samples, sample_wts = [], len(data), w(data.X)
    with np.errstate(over="ignore", invalid="ignore"):  # the risk check reports divergence
        for epoch in range(cfg.epochs):
            lr = np.array(cfg.rate_at(epoch))
            order = rng.permutation(n_samples)
            X, Y, wts = data.X[order], data.Y[order], sample_wts[order]
            # batch_size 1 passes row views, which gradient steps as one sample
            bs = cfg.batch_size
            batches = zip(X, Y, wts) if bs == 1 else (
                (X[s : s + bs], Y[s : s + bs], wts[s : s + bs]) for s in range(0, n_samples, bs))
            for xb, yb, wb in batches:
                gradient(ws, xb, yb, wb)
                if l2_lambda:  # weight decay: the only place L2 enters
                    multiply(theta, decay, decayed)
                    add(g, decayed, g)
                multiply(g, lr, g)
                subtract(theta, g, theta)
                if project:
                    maximum(theta, lo, out=theta)
                    minimum(theta, hi, out=theta)
            train_risk, test_risk = risks(Network(weights, biases, net.arch.L1))
            curve.append(EpochRecord(epoch=epoch, train_risk=train_risk, test_risk=test_risk))
            if not np.isfinite(train_risk) or train_risk > ceiling:
                what = (f"exceeded 1e6 x initial {initial:.3e}" if np.isfinite(train_risk)
                        else f"is not finite (initial {initial:.3e})")
                raise NumericFailure(f"train risk {train_risk:.3e} {what} at epoch {epoch} "
                                     f"(lr={lr:g}); reduce the learning rate")

    result = Network(*_unflatten(theta.copy(), net), net.arch.L1)
    if cfg.prune_to_s is not None:
        result = prune_to_sparsity(result, cfg.prune_to_s)
        if curve:  # the last epoch ends with the pruning: record the pruned net's risks
            curve[-1] = EpochRecord(curve[-1].epoch, *risks(result))
    return result, curve


def prune_to_sparsity(net: Network, s: int) -> Network:
    """The network with all but its s largest-magnitude parameters zeroed
    (``net`` itself if it has at most s parameters).  Ties are broken by
    parameter layout order, so pruning is deterministic.
    """
    if s < 0:
        raise ValueError("sparsity target must be nonnegative")
    theta = np.concatenate([a.ravel() for a in net.weights + net.biases])
    if s >= theta.size:
        return net
    keep = np.argsort(-np.abs(theta), kind="stable")[:s]
    kept = np.zeros_like(theta)
    kept[keep] = theta[keep]
    pruned = Network(*_unflatten(kept, net), net.arch.L1)
    assert pruned.sparsity() <= s
    return pruned


def multi_step_forecast(net: Network, states, k: int):
    """Iterate the one-step predictor k steps ahead, one horizon at a time.

    ``states`` is an (m, r*d) batch of lag states.  The newest forecast is
    rotated into the front of each lag state.  Returns an iterator over the
    (m, d) j-step forecasts, j = 1..k.  The arguments are checked at the call.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = net.arch.out_dim
    dr = net.arch.in_dim
    if dr % d != 0:
        raise ValueError(f"input dim {dr} is not a multiple of output dim {d}")
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != dr:
        raise ValueError(f"lag states have shape {states.shape}, expected (m, {dr})")

    def steps(states):
        for _ in range(k):
            y = net.eval_batch(states)
            yield y
            states = push_lag(states, y)
    return steps(states)

