"""Feedforward ReLU networks with a designated bottleneck layer.

A network of depth ``L`` is the map

    f(x) = W[L] relu(W[L-1] ... relu(W[0] x - b[0]) ... - b[L-1])

where ``relu(z - v) = max(z - v, 0)`` componentwise.  Weight matrix ``i``
maps width ``p[i]`` to width ``p[i+1]``; bias ``i`` shifts the activation of
hidden layer ``i+1``.  The output layer is affine-linear with no bias.

Networks are immutable values: construction validates shapes, evaluation is
pure and thread-safe.  Structural combinators (compose/parallel/deepen)
return new networks.  A weight is a dense array or scipy CSR, and so is each
layer's forward kernel, by one rule: CSR when at most 10% is nonzero, which
``parallel`` applies to every layer it builds.  ``weights`` are dense:
reading them densifies each CSR layer.  A layer of the one forward kernel is
one product with a kernel that carries the bias as a column acting on a
constant row of ones.
On a network with a CSR layer, a batch of more than one 256-row block is
split at block boundaries into one chunk per CPU the process may run on; the
calling thread runs one chunk and threads started for that call run the
others, and all of them have ended when the call returns.  Every chunk walks
its blocks through two reused buffers, writing each product in place.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ConfigError

SERIAL_FORMAT = "ednet-v1"


class ShapeError(ValueError):
    """Dimension mismatch, naming the offending layer."""


@dataclass(frozen=True)
class Architecture:
    """Layer count and width vector.

    ``L`` hidden layers, widths ``p = (p0, ..., p_{L+1})``.  ``L1`` marks the
    bottleneck position (the L1-th hidden layer).
    """

    L: int
    p: tuple
    L1: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))
        if self.L < 0:
            raise ShapeError(f"L must be nonnegative, got {self.L}")
        if len(self.p) != self.L + 2:
            raise ShapeError(
                f"width vector has length {len(self.p)}, expected L+2={self.L + 2}"
            )
        if any(v < 1 for v in self.p):
            raise ShapeError(f"widths must be >= 1, got {self.p}")
        if self.L1 is not None and not (1 <= self.L1 <= self.L):
            raise ShapeError(f"L1={self.L1} outside 1..L={self.L}")

    @property
    def in_dim(self) -> int:
        return self.p[0]

    @property
    def out_dim(self) -> int:
        return self.p[-1]


# Rows per block of the forward kernel: one block's activations stay in
# cache across all layers.
_BLOCK_ROWS = 256
# A layer with at most this fraction of nonzero entries runs as CSR.
_SPARSE_DENSITY = 0.10


class Network:
    """Immutable ReLU network; weights[i] is a (p[i+1], p[i]) matrix.

    A weight given as a scipy sparse matrix is stored as canonical CSR, any
    other as a float64 array; ``weights`` allocates each CSR layer densely.
    The first evaluation caches a kernel per layer, so the stored layers must
    not be mutated after it; build a new Network over changed arrays instead.
    """

    __slots__ = ("arch", "_w", "_csr", "biases", "_kernels")

    def __init__(self, arch: Architecture, weights, biases):
        weights = [_layer(w) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != arch.L + 1:
            raise ShapeError(f"expected {arch.L + 1} weight matrices, got {len(weights)}")
        if len(biases) != arch.L:
            raise ShapeError(f"expected {arch.L} bias vectors, got {len(biases)}")
        for i, w in enumerate(weights):
            want = (arch.p[i + 1], arch.p[i])
            if w.shape != want:
                raise ShapeError(f"weight {i} has shape {w.shape}, expected {want}")
        for i, b in enumerate(biases):
            if b.shape != (arch.p[i + 1],):
                raise ShapeError(
                    f"bias {i} has shape {b.shape}, expected ({arch.p[i + 1]},)"
                )
        object.__setattr__(self, "arch", arch)
        object.__setattr__(self, "_w", weights)
        object.__setattr__(self, "_csr", any(type(w) is not np.ndarray for w in weights))
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "_kernels", None)

    def __setattr__(self, *a):
        raise AttributeError("Network is immutable")

    @property
    def weights(self) -> list:
        return [_dense(w) for w in self._w] if self._csr else self._w

    # -- evaluation ------------------------------------------------------

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on a (n, p0) batch, returning (n, p_{L+1})."""
        return self._forward(self._batch(X, 0, "input layer"), 0, self.arch.L + 1)

    def encoder_batch(self, X: np.ndarray) -> np.ndarray:
        """Activations of the bottleneck hidden layer L1, dim p[L1]."""
        L1 = self._require_l1()
        return self._forward(self._batch(X, 0, "input layer"), 0, L1)

    def decoder_batch(self, Z: np.ndarray) -> np.ndarray:
        """Continue evaluation from bottleneck activations to the output."""
        L1 = self._require_l1()
        return self._forward(self._batch(Z, L1, f"bottleneck layer {L1}"),
                             L1, self.arch.L + 1)

    def _batch(self, X, layer: int, name: str) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.arch.p[layer]:
            raise ShapeError(
                f"{name} expects dim {self.arch.p[layer]}, got shape {X.shape}"
            )
        return X

    def _forward(self, A: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Apply layers start..stop-1 to the rows of A.

        Activations are kept transposed, (width + 1, rows), with a last row of
        ones, and walked in blocks of _BLOCK_ROWS rows.  A layer is one
        product with its kernel, which subtracts the bias through that row;
        every layer below L then takes the ReLU in place.  When a kernel is
        CSR, the rows are split at block boundaries into at most one
        contiguous chunk per CPU; the calling thread runs the first and
        threads started for this call run the others, each chunk writing its
        own rows of the result, and every thread has ended before this
        returns.  A row's
        values do not depend on the chunk it lands in: a dense block product
        is the same BLAS call, and a CSR row sums its terms in index order
        whatever the block width.
        """
        if self._kernels is None:
            object.__setattr__(self, "_kernels", self._build_kernels())
        kernels = self._kernels[start:stop]
        matvecs = None
        if any(type(K) is not np.ndarray for K in kernels):
            from scipy.sparse._sparsetools import csr_matvecs as matvecs
        n, p = A.shape[0], self.arch.p
        out = np.empty((n, p[stop]))
        args = (kernels, self.arch.L - start, matvecs, A, out)
        blocks = -(-n // _BLOCK_ROWS)
        # only CSR layers gain from chunks: scipy runs a CSR product on one
        # thread, while BLAS already spreads a large dense one over the CPUs
        # and a small dense net is bound by per-layer calls that hold the GIL
        k = min(_cpus(), blocks) if blocks > 1 and matvecs is not None else 1
        # every chunk's buffers come from this thread: memory a short-lived
        # thread allocates stays cached in its own malloc arena, and a new
        # thread may start before the last one has given its arena back
        bufs = np.empty((k, 2, (max(p[start : stop + 1]) + 1) * _BLOCK_ROWS))
        if k == 1:
            _forward_rows(*args, bufs[0], 0, n)
            return out
        from concurrent.futures import ThreadPoolExecutor

        edges = [min(n, _BLOCK_ROWS * (blocks * j // k)) for j in range(k + 1)]
        with ThreadPoolExecutor(k - 1, thread_name_prefix="edforecast-forward") as pool:
            futures = [pool.submit(_forward_rows, *args, bufs[j], edges[j], edges[j + 1])
                       for j in range(1, k)]
            _forward_rows(*args, bufs[0], edges[0], edges[1])
        for f in futures:  # leaving the block waited for every chunk
            f.result()
        return out

    def _build_kernels(self):
        """Per layer, the matrix that maps a block with its ones row to the
        next: [[W, -b], [0, 1]] below L and [W, 0] at L.  It is CSR, built from
        W's nonzeros (a CSR W's own arrays) with the bias last in each sorted
        row, when at most _SPARSE_DENSITY of W is nonzero, else a dense array."""
        kernels = []
        for i, w in enumerate(self._w):
            n, m = w.shape
            hidden = int(i < self.arch.L)
            col = -self.biases[i] if hidden else np.zeros(n)
            if _nnz(w) > _SPARSE_DENSITY * n * m:
                K = np.zeros((n + hidden, m + 1))
                K[:n, :m], K[:n, m], K[n:, m] = _dense(w), col, 1.0
            else:  # W's nonzeros row by row, then the bias and ones entries
                from scipy.sparse import csr_matrix

                r, c, v = _nonzeros(w)
                rb = np.flatnonzero(col)
                K = csr_matrix((np.concatenate([v, col[rb], np.ones(hidden)]),
                                (np.concatenate([r, rb, np.full(hidden, n)]),
                                 np.concatenate([c, np.full(rb.size + hidden, m)]))),
                               shape=(n + hidden, m + 1))
            kernels.append(K)
        return kernels

    def _require_l1(self) -> int:
        if self.arch.L1 is None:
            raise ShapeError("network has no bottleneck position L1")
        return self.arch.L1

    # -- structural queries ---------------------------------------------

    def sparsity(self) -> int:
        """Exact count of nonzero weight and bias entries."""
        return sum(_nnz(a) for a in self._w + self.biases)

    def with_l1(self, L1: int | None) -> "Network":
        return Network(Architecture(self.arch.L, self.arch.p, L1=L1), self._w, self.biases)


def _forward_rows(kernels, hidden, matvecs, A, out, bufs, r0, r1):
    """Rows r0..r1 of A through ``kernels`` into the same rows of ``out``.

    The first ``hidden`` kernels are followed by a ReLU.  The two rows of
    ``bufs``, each of (max width + 1) x _BLOCK_ROWS entries, hold a block's
    activations; each layer reads one and writes the other, a dense kernel by ``np.matmul(out=)``
    and a CSR kernel by ``matvecs`` (scipy's ``csr_matvecs``, the routine
    behind ``K @ Z``) into the zeroed buffer.  Chunk threads run this, so it
    calls no public function of the package.
    """
    for b0 in range(r0, r1, _BLOCK_ROWS):
        b1 = min(b0 + _BLOCK_ROWS, r1)
        nb = b1 - b0
        z = bufs[0, : (A.shape[1] + 1) * nb]
        Z = z.reshape(-1, nb)
        Z[:-1] = A[b0:b1].T
        Z[-1] = 1.0
        for j, K in enumerate(kernels):
            y = bufs[(j + 1) % 2, : K.shape[0] * nb]
            Y = y.reshape(-1, nb)
            if type(K) is np.ndarray:
                np.matmul(K, Z, out=Y)
            else:
                y.fill(0.0)
                matvecs(K.shape[0], K.shape[1], nb, K.indptr, K.indices, K.data, z, y)
            if j < hidden:
                np.maximum(Y, 0.0, out=Y)
            z, Z = y, Y
        out[b0:b1] = Z[: out.shape[1]].T


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def lipschitz_empirical(net: Network, X: np.ndarray, Xp: np.ndarray) -> float:
    """Max observed ratio |f(x)-f(x')|_inf / |x-x'|_inf over sample pairs.

    A lower bound on the true Lipschitz constant, which is at most the
    product of the layers' max absolute row sums (the shifted ReLU is
    1-Lipschitz).
    """
    X = np.asarray(X, dtype=np.float64)
    Xp = np.asarray(Xp, dtype=np.float64)
    num = np.max(np.abs(net.eval_batch(X) - net.eval_batch(Xp)), axis=1)
    den = np.max(np.abs(X - Xp), axis=1)
    keep = den > 0
    if not np.any(keep):
        return 0.0
    return float(np.max(num[keep] / den[keep]))


# -- builders ------------------------------------------------------------


def identity_network(dim: int) -> Network:
    """Depth-0 network computing x -> x."""
    return Network(Architecture(0, (dim, dim)), [np.eye(dim)], [])


def compose(f: Network, g: Network, interface: str = "split") -> Network:
    """Single network computing f(g(x)); depth L_f + L_g + 1.

    The extra hidden layer carries g's output across the ReLU interface.
    ``interface="split"`` (default) stores positive and negative parts in
    separate channels and is exact for every input; ``interface="relu"``
    keeps the interface width at g's output dimension and is exact exactly
    when g's outputs are nonnegative on the inputs of interest (the regime
    of all [0,1]-range constructions here).
    """
    q = g.arch.out_dim
    if f.arch.in_dim != q:
        raise ShapeError(
            f"compose: g outputs dim {q} but f expects dim {f.arch.in_dim}"
        )
    if interface == "split":
        p = g.arch.p[:-1] + (2 * q,) + f.arch.p[1:]
        weights = g._w[:-1] + [_plus_minus(g._w[-1], 0), _plus_minus(f._w[0], 1)] + f._w[1:]
        biases = g.biases + [np.zeros(2 * q)] + f.biases
    elif interface == "relu":
        p = g.arch.p[:-1] + (q,) + f.arch.p[1:]
        weights = g._w + f._w
        biases = g.biases + [np.zeros(q)] + f.biases
    else:
        raise ValueError(f"unknown interface {interface!r}")
    arch = Architecture(g.arch.L + f.arch.L + 1, p)
    return Network(arch, weights, biases)


def parallel(nets: Sequence[Network]) -> Network:
    """Stack networks side by side on a shared input.

    All nets must agree on input dimension and depth (deepen first if not);
    the output is the concatenation of the individual outputs.  Layers after
    the first are block-diagonal; every layer is CSR when at most 10% is
    nonzero, else dense.
    """
    if not nets:
        raise ShapeError("parallel of empty list")
    L = nets[0].arch.L
    d_in = nets[0].arch.in_dim
    for k, n in enumerate(nets):
        if n.arch.L != L:
            raise ShapeError(f"parallel: net {k} has depth {n.arch.L}, expected {L}")
        if n.arch.in_dim != d_in:
            raise ShapeError(
                f"parallel: net {k} has input dim {n.arch.in_dim}, expected {d_in}"
            )
    # net k's block of layer i starts at row offsets[k][i + 1] and, past the
    # shared input, at column offsets[k][i]
    offsets = np.cumsum([[0] * (L + 2)] + [n.arch.p for n in nets], axis=0).tolist()
    p = (d_in, *offsets[-1][1:])
    weights = [_assemble([(n._w[i], offsets[k][i + 1], offsets[k][i] if i else 0)
                          for k, n in enumerate(nets)], (p[i + 1], p[i]))
               for i in range(L + 1)]
    biases = [
        np.concatenate([n.biases[i] for n in nets]) for i in range(L)
    ]
    return Network(Architecture(L, p), weights, biases)


def deepen(net: Network, target_L: int) -> Network:
    """Pad with identity pass-through layers in front of the network.

    Exact on nonnegative inputs only: the pass-through is relu(x) = x.
    """
    k = target_L - net.arch.L
    if k < 0:
        raise ShapeError(
            f"deepen: target depth {target_L} below current depth {net.arch.L}"
        )
    if k == 0:
        return net
    d = net.arch.in_dim
    p = (d,) * (k + 1) + net.arch.p[1:]
    weights = [np.eye(d) for _ in range(k)] + net._w
    biases = [np.zeros(d) for _ in range(k)] + list(net.biases)
    return Network(Architecture(net.arch.L + k, p), weights, biases)


def precompose_affine(net: Network, A: np.ndarray, offset=None) -> Network:
    """Replace the input map: new net computes net(A x + offset)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[0] != net.arch.in_dim:
        raise ShapeError(
            f"precompose: matrix maps into dim {A.shape[0]}, net expects {net.arch.in_dim}"
        )
    w0 = _dense(net._w[0])
    weights = [w0 @ A] + net._w[1:]
    biases = list(net.biases)
    if offset is not None:
        offset = np.asarray(offset, dtype=np.float64)
        shift = w0 @ offset
        if net.arch.L == 0:
            if np.any(shift != 0.0):
                raise ShapeError("depth-0 network cannot absorb an input offset")
        else:
            biases[0] = biases[0] - shift
    arch = Architecture(net.arch.L, (A.shape[1],) + net.arch.p[1:], L1=net.arch.L1)
    return Network(arch, weights, biases)


def postcompose_affine(net: Network, C: np.ndarray) -> Network:
    """Replace the output map: new net computes C @ net(x)."""
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    if C.shape[1] != net.arch.out_dim:
        raise ShapeError(
            f"postcompose: matrix expects dim {C.shape[1]}, net outputs {net.arch.out_dim}"
        )
    weights = net._w[:-1] + [C @ _dense(net._w[-1])]
    arch = Architecture(net.arch.L, net.arch.p[:-1] + (C.shape[0],), L1=net.arch.L1)
    return Network(arch, weights, net.biases)


def _layer(w):
    """A float64 array, or a canonical CSR copy of a scipy sparse matrix."""
    if not hasattr(w, "tocsr"):
        return np.asarray(w, dtype=np.float64)
    w = w.tocsr().astype(np.float64)
    w.sum_duplicates()
    w.eliminate_zeros()
    return w


def _dense(w) -> np.ndarray:
    return w if type(w) is np.ndarray else w.toarray()


def _nnz(a) -> int:
    return int(np.count_nonzero(a)) if type(a) is np.ndarray else a.nnz


def _nonzeros(w):
    """Rows, columns and values of the nonzero entries of w, row by row."""
    if type(w) is np.ndarray:
        r, c = np.nonzero(w)
        return r, c, w[r, c]
    return np.repeat(np.arange(w.shape[0]), np.diff(w.indptr)), w.indices, w.data


def _plus_minus(w, axis: int):
    """[w; -w] on axis 0 or [w, -w] on axis 1, CSR when w is."""
    if type(w) is np.ndarray:
        return np.concatenate([w, -w], axis=axis)
    from scipy.sparse import hstack, vstack

    return (vstack, hstack)[axis]([w, -w], format="csr")


def _assemble(blocks, shape):
    """The ``shape`` matrix holding each (matrix, row offset, column offset)
    of ``blocks`` at its offsets, from their nonzeros: CSR when at most
    _SPARSE_DENSITY of it is nonzero, else dense."""
    parts = [(r + r0, c + c0, v) for m, r0, c0 in blocks for r, c, v in [_nonzeros(m)]]
    r, c, v = (np.concatenate(a) for a in zip(*parts))
    if v.size > _SPARSE_DENSITY * shape[0] * shape[1]:
        K = np.zeros(shape)
        K[r, c] = v
        return K
    from scipy.sparse import csr_matrix

    return csr_matrix((v, (r, c)), shape=shape)


# -- serialization -------------------------------------------------------


def to_dict(net: Network) -> dict:
    arch = {"L": net.arch.L, "L1": net.arch.L1, "p": list(net.arch.p)}
    return {
        "format": SERIAL_FORMAT,
        "arch": arch,
        "weights": [_dense(w).tolist() for w in net._w],
        "biases": [b.tolist() for b in net.biases],
    }


def from_dict(doc: dict) -> Network:
    """The network a :func:`to_dict` document describes; a malformed
    document raises ConfigError naming what is wrong."""
    if doc.get("format") != SERIAL_FORMAT:
        raise ConfigError(f"unsupported network format {doc.get('format')!r}")
    try:
        a = doc["arch"]
        arch = Architecture(int(a["L"]), tuple(a["p"]), L1=a.get("L1"))
        net = Network(arch, doc["weights"], doc["biases"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"network document: {exc!r}") from None
    for kind, arrays in (("weight", net.weights), ("bias", net.biases)):
        for i, arr in enumerate(arrays):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{kind} {i} has non-finite entries")
    return net


def save_json(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # dumps runs the C encoder, dump does not
        fh.write(json.dumps(to_dict(net)) + "\n")


def load_json(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return from_dict(doc)
