"""Lag-embedded datasets, the lag push, and provenance-stamped CSV input/output.

A series of length n with d coordinates becomes n-r sample pairs
(input, target) where the input concatenates the r most recent lags
newest-first: input_i = (X_{i-1}, X_{i-2}, ..., X_{i-r}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Scaler:
    """Per-coordinate min-max map onto [0,1]."""

    lo: np.ndarray
    hi: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.lo) / (self.hi - self.lo)


@dataclass(frozen=True)
class LagDataset:
    """Sample pairs (lag vector, next value) plus the risk normalization n.

    X has shape (n-r, d*r), Y has shape (n-r, d).  ``n`` is the original
    series length; the empirical risk divides by n even though only n-r
    terms are summed.
    """

    X: np.ndarray
    Y: np.ndarray
    r: int
    d: int
    n: int
    scaler: Scaler | None = None

    def __len__(self) -> int:
        return self.X.shape[0]


def fit_scaler(series: np.ndarray) -> Scaler:
    lo = series.min(axis=0)
    hi = series.max(axis=0)
    degenerate = np.nonzero(hi <= lo)[0]
    if degenerate.size:
        raise ValueError(
            f"coordinate {int(degenerate[0])} is constant; min-max scale undefined"
        )
    return Scaler(lo=lo, hi=hi)


def lag_embed(series: np.ndarray, r: int, normalize: bool = False,
              scaler: Scaler | None = None) -> LagDataset:
    """Build (lag vector, next value) pairs from an (n, d) series.

    With ``normalize``, each coordinate is min-max scaled to [0,1] (a shared
    per-coordinate scaler for inputs and targets) and the scaler is recorded
    on the dataset.  Pass ``scaler`` to reuse a previously fitted one, e.g.
    to put test data on the training scale.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    n, d = series.shape
    if n <= r:
        raise ValueError(f"series length {n} too short for lag count r={r}")
    if not np.all(np.isfinite(series)):
        raise ValueError("series contains non-finite values")
    if normalize or scaler is not None:
        if scaler is None:
            scaler = fit_scaler(series)
        series = scaler.transform(series)
    m = n - r
    X = np.empty((m, d * r))
    for lag in range(1, r + 1):
        X[:, (lag - 1) * d : lag * d] = series[r - lag : n - lag]
    Y = series[r:]
    return LagDataset(X=X, Y=Y, r=r, d=d, n=n, scaler=scaler)


def push_lag(states: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rotate the newest values ``x`` into the front of newest-first lag
    states (the input layout of :func:`lag_embed`), dropping the oldest lag.

    Works on the last axis, so one state or a batch of them; with a single
    lag the new state is ``x`` itself.
    """
    d = x.shape[-1]
    if states.shape[-1] == d:
        return x
    return np.concatenate([x, states[..., :-d]], axis=-1)


def write_csv(path, header, rows, provenance: dict | None = None) -> None:
    """Write a CSV: '# key=value' provenance lines, the header, the rows.

    An int cell prints as itself, any other number as repr(float(v)) (so a
    numpy scalar prints as a plain float), and None as an empty field; with
    no timestamps, re-runs with identical configuration are byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in (provenance or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) if isinstance(v, int)
                              else repr(float(v)) for v in row) + "\n")


def save_series_csv(path, series: np.ndarray, provenance: dict | None = None) -> None:
    """Write a series as CSV with header t,x1,...,xd under the provenance
    lines of :func:`write_csv`."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    header = ["t"] + [f"x{j + 1}" for j in range(series.shape[1])]
    rows = ([t, *row] for t, row in enumerate(series.tolist(), start=1))
    write_csv(path, header, rows, provenance)


def load_series_csv(path) -> np.ndarray:
    """Read a series CSV written by :func:`save_series_csv`; a row with the
    wrong field count, a non-numeric field or a non-finite value raises
    ValueError naming its line."""
    rows, linenos = [], []
    with open(path, "r", encoding="utf-8") as fh:
        width = None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if width is None:
                header = line.split(",")
                if header[0] != "t" or len(header) < 2:
                    raise ValueError(f"{path}: unexpected series header {header!r}")
                width = len(header)
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ValueError(f"{path}: line {lineno} has {len(parts)} fields, not {width}")
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}: line {lineno} has a non-numeric field") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    series = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(series).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: line {linenos[int(np.argmin(finite))]} is not finite")
    return series
