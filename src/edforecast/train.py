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

from . import ConfigError
from .data import LagDataset, push_lag
from .network import Architecture, Network


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class WeightFn:
    """Weight function on the lag-input space, with values in [0,1].

    ``constant_one`` weighs every sample equally.  ``box_ramp`` is 1 on the
    inner box [varsigma, 1-varsigma]^p, 0 outside [0,1]^p (p the input
    dimension), and ramps linearly in the sup-distance to the inner box in
    between; it is (1/varsigma)-Lipschitz.
    """

    kind: str = "constant_one"
    varsigma: float = 0.1

    def __post_init__(self):
        if self.kind not in ("constant_one", "box_ramp"):
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if self.kind == "box_ramp" and not (0.0 < self.varsigma < 0.5):
            raise ConfigError(
                f"box_ramp needs 0 < varsigma < 1/2, got {self.varsigma}"
            )

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
    mean-gradient mini-batches at the same rates converge far slower.
    """

    epochs: int
    lr_schedule: tuple = ((0, 1e-3),)
    l2_lambda: float = 0.0
    batch_size: int = 1
    seed: int = 0
    project_entries: bool = False
    prune_to_s: int | None = None

    def __post_init__(self):
        sched = tuple((int(e), float(r)) for e, r in self.lr_schedule)
        object.__setattr__(self, "lr_schedule", sched)
        if not sched or sched[0][0] != 0:
            raise ConfigError("lr_schedule must start at epoch threshold 0")
        thresholds = [e for e, _ in sched]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError("lr_schedule thresholds must be strictly increasing")
        if any(r < 0 for _, r in sched):
            raise ConfigError("lr_schedule learning rates must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        s = self.prune_to_s
        if s is not None and (isinstance(s, bool) or not isinstance(s, int) or s < 0):
            raise ConfigError(f"prune_to_s must be an integer >= 0, got {s!r}")

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
    return Network(arch, weights, biases)


def empirical_risk(net_or_fn, data: LagDataset, w: WeightFn) -> float:
    """Weighted empirical prediction risk of a network or batch predictor."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    pred = net_or_fn.eval_batch(data.X) if isinstance(net_or_fn, Network) \
        else net_or_fn(data.X)
    resid = data.Y - pred
    per_sample = np.sum(resid * resid, axis=1) / data.d
    return float(np.sum(per_sample * w(data.X)) / data.n)


def naive_predict(data: LagDataset, w: WeightFn | None = None) -> float:
    """Risk of forecasting the next value with the most recent lag."""
    if data.r < 1:
        raise ValueError("naive predictor needs r >= 1")
    w = w or WeightFn()
    return empirical_risk(lambda X: X[:, : data.d], data, w)


def gradient(net: Network, X: np.ndarray, Y: np.ndarray, wts: np.ndarray,
             l2_lambda: float = 0.0, out=None):
    """Exact gradient of the batch-mean weighted loss plus L2 penalty.

    Takes one sample or a batch, told apart by the rank of ``X``: one sample
    is ``X`` of shape (p0,), ``Y`` of shape (d,) and a scalar weight W(x); a
    batch is ``X`` of shape (nb, p0), ``Y`` of shape (nb, d) and the rows'
    weights of shape (nb,).  Returns (weight gradients, bias gradients) in
    the network layout, written into the arrays of ``out=(g_w, g_b)`` when
    given.  ReLU'(0) is taken as 0.
    """
    L = net.arch.L
    W = net.weights
    X = np.asarray(X, dtype=np.float64)
    one = X.ndim == 1
    nb = 1 if one else X.shape[0]
    if nb == 0:
        raise ValueError("empty batch")
    acts, pre = [X], []
    for i in range(L):
        z = acts[i] @ W[i].T  # a matrix-vector product for one sample
        z -= net.biases[i]
        pre.append(z)
        acts.append(np.maximum(z, 0.0))
    g_z = ((2.0 / (net.arch.out_dim * nb)) * (acts[L] @ W[L].T - Y)
           * (wts if one else wts[:, None]))
    g_w, g_b = out or ([np.empty_like(wm) for wm in W],
                       [np.empty_like(bv) for bv in net.biases])
    if one:
        # outer products, and no sum over a batch axis
        np.multiply(g_z[:, None], acts[L], out=g_w[L])
        for i in range(L - 1, -1, -1):
            g_z = (g_z @ W[i + 1]) * (pre[i] > 0.0)
            np.negative(g_z, out=g_b[i])
            np.multiply(g_z[:, None], acts[i], out=g_w[i])
    else:
        np.matmul(g_z.T, acts[L], out=g_w[L])
        for i in range(L - 1, -1, -1):
            g_z = (g_z @ W[i + 1]) * (pre[i] > 0.0)
            np.negative(np.sum(g_z, axis=0, out=g_b[i]), out=g_b[i])
            np.matmul(g_z.T, acts[i], out=g_w[i])
    if l2_lambda:
        for g, p in zip(g_w + g_b, net.weights + net.biases):
            g += (2.0 * l2_lambda) * p
    return g_w, g_b


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
    network and the per-epoch learning curve.  Aborts with diagnostics if
    the train risk exceeds 1e6 times its initial value.
    """
    rng = np.random.default_rng(cfg.seed)
    # One parameter vector and one gradient vector, so a step's update is a
    # few whole-vector operations.  SGD updates theta in place, so ``current``
    # only feeds gradient (which reads the arrays); every risk is evaluated on
    # a fresh Network, whose kernels are built from the arrays as they are then
    theta = np.concatenate([a.ravel() for a in net.weights + net.biases])
    g = np.empty_like(theta)
    weights, biases = _unflatten(theta, net)
    g_views = _unflatten(g, net)
    current = Network(net.arch, weights, biases)

    initial = empirical_risk(Network(net.arch, weights, biases), data, w)
    ceiling = 1e6 * max(initial, 1e-12)
    curve = []
    n_samples = len(data)
    sample_wts = w(data.X)
    for epoch in range(cfg.epochs):
        lr = cfg.rate_at(epoch)
        order = rng.permutation(n_samples)
        X, Y, wts = data.X[order], data.Y[order], sample_wts[order]
        # batch_size 1 passes row views, which gradient steps as one sample
        bs = cfg.batch_size
        batches = zip(X, Y, wts) if bs == 1 else (
            (X[s : s + bs], Y[s : s + bs], wts[s : s + bs]) for s in range(0, n_samples, bs))
        for xb, yb, wb in batches:
            gradient(current, xb, yb, wb, 0.0, out=g_views)
            if cfg.l2_lambda:
                g += (2.0 * cfg.l2_lambda) * theta
            g *= lr
            theta -= g
            if cfg.project_entries:
                np.clip(theta, -1.0, 1.0, out=theta)
        snapshot = Network(net.arch, weights, biases)
        train_risk = empirical_risk(snapshot, data, w)
        test_risk = (
            empirical_risk(snapshot, test_data, w) if test_data is not None else None
        )
        curve.append(EpochRecord(epoch=epoch, train_risk=train_risk, test_risk=test_risk))
        if not np.isfinite(train_risk) or train_risk > ceiling:
            raise TrainingDiverged(
                f"train risk {train_risk:.3e} exceeded 1e6 x initial {initial:.3e} "
                f"at epoch {epoch} (lr={lr:g}); reduce the learning rate"
            )

    result = Network(net.arch, *_unflatten(theta.copy(), net))
    if cfg.prune_to_s is not None:
        result, _ = prune_to_sparsity(result, cfg.prune_to_s)
    return result, curve


def prune_to_sparsity(net: Network, s: int):
    """Zero all but the s largest-magnitude parameters.

    Returns the pruned network and the sum of squared pruned entries (an
    informational bound on the loss perturbation; no hard guarantee).
    Ties are broken by parameter layout order, so pruning is deterministic.
    """
    if s < 0:
        raise ValueError("sparsity target must be nonnegative")
    arrays = net.weights + net.biases
    theta = np.concatenate([a.ravel() for a in arrays])
    if s >= theta.size:
        return net, 0.0
    keep = np.argsort(-np.abs(theta), kind="stable")[:s]
    kept = np.zeros_like(theta)
    kept[keep] = theta[keep]
    pruned = Network(net.arch, *_unflatten(kept, net))
    pruned_sq = sum(float(np.sum((a - b) ** 2))
                    for a, b in zip(arrays, pruned.weights + pruned.biases))
    assert pruned.sparsity() <= s
    return pruned, pruned_sq


def multi_step_forecast(net: Network, x0, k: int):
    """Iterate the one-step predictor k steps ahead, one horizon at a time.

    ``x0`` is one lag state or an (m, r*d) batch of them.  The newest
    forecast is rotated into the front of each lag state.  Returns an
    iterator over the j-step forecasts, j = 1..k: a (d,) array each for a
    single state, (m, d) for a batch.  The arguments are checked at the call.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    d = net.arch.out_dim
    dr = net.arch.in_dim
    if dr % d != 0:
        raise ValueError(f"input dim {dr} is not a multiple of output dim {d}")
    x0 = np.asarray(x0, dtype=np.float64)
    states = np.atleast_2d(x0)
    if states.ndim != 2 or states.shape[1] != dr:
        raise ValueError(f"lag states have shape {states.shape}, expected (m, {dr})")

    def steps(states):
        for _ in range(k):
            y = net.eval_batch(states)
            yield y[0] if x0.ndim < 2 else y
            states = push_lag(states, y)
    return steps(states)

