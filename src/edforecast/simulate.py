"""Stationary series generation and Monte Carlo dependence diagnostics.

The generator iterates X_i = f0(X_{i-1}, ..., X_{i-r}) + eps_i with i.i.d.
Gaussian innovations, discarding a burn-in prefix; a model is its dynamics,
and each run takes its own seed.  Evolution maps are batched callables
mapping (n, d*r) lag blocks to (n, d) values, so Monte Carlo lanes run vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import NumericFailure
from .data import push_lag


class UnstableModelError(NumericFailure):
    pass


@dataclass(frozen=True)
class TimeSeriesModel:
    d: int
    r: int
    f0: Callable[[np.ndarray], np.ndarray]
    noise_sd: float
    name: str = "custom"
    spectral_radius: float | None = None

    def describe(self) -> dict:
        out = {"name": self.name, "d": self.d, "r": self.r, "noise_sd": self.noise_sd}
        if self.spectral_radius is not None:
            out["spectral_radius"] = self.spectral_radius
        return out

    def innovations(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. N(0, noise_sd^2 I_d) innovations, one per row."""
        return rng.standard_normal((n, self.d)) * self.noise_sd


def zero_model(d: int = 1, r: int = 1, noise_sd: float = 1.0) -> TimeSeriesModel:
    return TimeSeriesModel(d=d, r=r, f0=lambda X: np.zeros((X.shape[0], d)),
                           noise_sd=noise_sd, name="zero", spectral_radius=0.0)


def companion_spectral_radius(v: np.ndarray, a: np.ndarray, r: int, d: int) -> float:
    """Spectral radius of the lag-companion matrix of x -> v a x."""
    comp = np.zeros((d * r, d * r))
    comp[:d, :] = v @ a
    comp[d:, : d * (r - 1)] = np.eye(d * (r - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def linear_model(v, a, noise_sd: float = 1.0, r: int = 1,
                 name: str = "linear") -> TimeSeriesModel:
    """Rank-reduced linear evolution f0(x) = v (a x) with v: d x k, a: k x dr."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    d = v.shape[0]
    if a.shape[1] != d * r:
        raise ValueError(f"a maps dim {a.shape[1]}, expected d*r={d * r}")
    if v.shape[1] != a.shape[0]:
        raise ValueError(f"rank mismatch: v is {v.shape}, a is {a.shape}")
    rad = companion_spectral_radius(v, a, r, d)
    mat = v @ a

    def f0(X: np.ndarray) -> np.ndarray:
        return X @ mat.T

    return TimeSeriesModel(d=d, r=r, f0=f0, noise_sd=noise_sd, name=name,
                           spectral_radius=rad)


def low_d_model() -> TimeSeriesModel:
    """5-dimensional rank-1 benchmark; companion eigenvalue a.v = 0.85."""
    a = np.array([[0.5, 0.6, 0.2, 0.3, 0.5]])
    v = np.array([[0.4], [0.6], [0.5], [-0.2], [0.5]])
    return linear_model(v, a, noise_sd=0.5, r=1, name="low_d")


def high_d_model() -> TimeSeriesModel:
    """30-dimensional rank-2 benchmark with alternating +-0.05 middle block."""
    s = np.tile([0.05, -0.05], 12)
    a = np.vstack([
        np.concatenate([[0.3, 0.6, 0.5], s, [0.0, -1.0, 0.4]]),
        np.concatenate([[0.5, -0.6, 0.2], s, [0.4, 0.9, 1.0]]),
    ])
    v = np.column_stack([
        np.full(30, 0.4),
        np.tile([0.5, -0.3], 15),
    ])
    return linear_model(v, a, noise_sd=0.5, r=1, name="high_d")


def seasonal_model(d: int = 8, period: int = 24, decay: float = 0.95,
                   noise_sd: float = 0.5) -> TimeSeriesModel:
    """Quasi-periodic rank-2 model: a damped rotation in a 2-d latent plane.

    The companion eigenvalues are decay * exp(+-2*pi*i/period), giving a
    stationary series with a pronounced cycle of the given period.
    """
    rng = np.random.default_rng(12345)
    v = rng.uniform(-1.0, 1.0, size=(d, 2))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    theta = 2.0 * np.pi / period
    rot = decay * np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
    # a reconstructs the latent pair from X (pseudo-inverse of v), then rotates
    a = rot @ np.linalg.pinv(v)
    return linear_model(v, a, noise_sd=noise_sd, r=1, name="seasonal")


def generate(model: TimeSeriesModel, n: int, burn_in: int = 1000, seed: int = 0) -> np.ndarray:
    """Emit n steps of the recursion after discarding burn_in steps.

    Lags initialize at zero, and ``seed`` fixes every innovation.  If the
    path blows up (checked once per 4096 steps), raises with a
    spectral-radius diagnostic naming the first non-finite or > 1e12 step.
    """
    if n < model.r + 1:
        raise ValueError(f"n={n} must be at least r+1={model.r + 1}")
    if burn_in < 0:
        raise ValueError(f"burn_in={burn_in} must be >= 0")
    rng = np.random.default_rng(seed)
    d, r = model.d, model.r
    state = np.zeros(d * r)
    total = burn_in + n
    path = np.empty((total, d))
    noise = model.innovations(rng, total)
    chunk = 4096
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, chunk):
            for step in range(start, min(start + chunk, total)):
                path[step] = x = model.f0(state[None, :])[0] + noise[step]
                state = push_lag(state, x)
            _check_bounded(model, path[start : start + chunk], "path diverged at step", start)
    return path[burn_in:]


def _check_bounded(model: TimeSeriesModel, rows: np.ndarray, what: str, first: int = 0):
    """Raise UnstableModelError at the first row with a non-finite value or one above 1e12."""
    if (bad := ~np.isfinite(rows).all(axis=1) | (np.abs(rows).max(axis=1) > 1e12)).any():
        rad = model.spectral_radius
        note = "" if rad is None else f" (companion spectral radius {rad:.4f})"
        raise UnstableModelError(f"{what} {first + int(np.argmax(bad))}{note}")


def _advance(model: TimeSeriesModel, states: np.ndarray, steps: int,
             draw: Callable[[], np.ndarray]) -> np.ndarray:
    """Advance every lane (a row of lag states) ``steps`` steps, adding the
    innovations ``draw()`` returns at each, then check the lanes where they end."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            states = push_lag(states, model.f0(states) + draw())
    _check_bounded(model, states, "Monte Carlo run diverged in lane")
    return states


def prediction_error_mc(f: Callable[[np.ndarray], np.ndarray], model: TimeSeriesModel,
                        w: Callable[[np.ndarray], np.ndarray] | None = None,
                        n_mc: int = 10000, burn_in: int = 300, seed: int = 0):
    """Monte Carlo estimate of the expected one-step prediction error of f.

    Burns in n_mc lanes from zero to stationary lag states, advances each one
    step, and averages the weighted squared forecast error; ``seed`` fixes
    every innovation.  Returns (estimate, standard error).
    """
    if n_mc < 100:
        raise ValueError("n_mc must be at least 100")
    rng = np.random.default_rng(seed)
    draw = lambda: model.innovations(rng, n_mc)
    states = _advance(model, np.zeros((n_mc, model.d * model.r)), burn_in, draw)
    nxt = _advance(model, states, 1, draw)[:, : model.d]
    resid = nxt - f(states)
    vals = np.sum(resid * resid, axis=1) / model.d
    if w is not None:
        vals = vals * w(states)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n_mc))
    return est, se


def estimate_fdm(model: TimeSeriesModel, k: int, q: float = 2.0, n_mc: int = 10000,
                 burn_in: int = 300, seed: int = 0):
    """Coupled-path estimate of the functional dependence measure at lag k.

    Runs n_mc paths and their coupled copies as 2 n_mc lanes that share every
    innovation (``seed`` fixes them) except the one k steps back, which the
    copies draw independently; reports the largest per-coordinate q-norm of
    the resulting discrepancy and its Monte Carlo standard error.
    """
    if k < 1:
        raise ValueError("lag k must be >= 1")
    rng = np.random.default_rng(seed)
    d = model.d
    states = _advance(model, np.zeros((n_mc, d * model.r)), burn_in,
                      lambda: model.innovations(rng, n_mc))
    # the swapped step: the paths' lanes draw eps, then the copies' lanes eps*
    lanes = _advance(model, np.vstack([states, states]), 1,
                     lambda: model.innovations(rng, 2 * n_mc))
    lanes = _advance(model, lanes, k, lambda: np.tile(model.innovations(rng, n_mc), (2, 1)))
    diff = np.abs(lanes[:n_mc, :d] - lanes[n_mc:, :d]) ** q
    moments = np.mean(diff, axis=0)
    j = int(np.argmax(moments))
    m = moments[j]
    se_m = float(np.std(diff[:, j], ddof=1) / np.sqrt(n_mc))
    delta = float(m ** (1.0 / q))
    se = se_m * delta / (q * m) if m > 0 else se_m
    return delta, se
