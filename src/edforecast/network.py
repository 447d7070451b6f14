"""Feedforward ReLU networks with a designated bottleneck layer.

A network of depth ``L`` is the map

    f(x) = W[L] relu(W[L-1] ... relu(W[0] x - b[0]) ... - b[L-1])

where ``relu(z - v) = max(z - v, 0)`` componentwise.  Weight matrix ``i``
maps width ``p[i]`` to width ``p[i+1]``; bias ``i`` shifts the activation of
hidden layer ``i+1``.  The output layer is affine-linear with no bias.

Networks are immutable values: construction validates shapes, evaluation is
pure and thread-safe.  Structural combinators (compose/parallel/deepen)
return new networks.  A weight is a dense array or groups, each one dense
block B repeated over k copies: ``parallel`` lays a run of equal nets out
unit-major, so a group is ``B ⊗ I_k``, one product on a ``(B.shape[1],
k*rows)`` view of the activations, or a copy or multiply when B is 1 x 1.
``precompose_affine`` keeps its map A as a factor, so a run of its copies
B @ A_i is ``B ⊗ I_k`` after the stacked A_i: a certificate's layer after
``compose``'s interface costs work linear in its copies.  Other layers are
dense.  On a network with a grouped layer, a batch is split into one chunk
per CPU.
"""

from __future__ import annotations

import json
import os
from functools import partial
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import integral

SERIAL_FORMAT = "ednet-v1"


class ShapeError(ValueError):
    """Dimension mismatch, naming the offending layer."""


@dataclass(frozen=True)
class Architecture:
    """Width vector and bottleneck position.

    Widths ``p = (p0, ..., p_{L+1})`` fix the depth, ``L = len(p) - 2``
    hidden layers.  ``L1`` marks the bottleneck position (the L1-th hidden
    layer).
    """

    p: tuple
    L1: int | None = None

    def __post_init__(self):
        def whole(v):  # an int (as a weight's shape gives) as it is, else as the CLI reads one
            return v if type(v) is int else integral(v, ShapeError)
        object.__setattr__(self, "p", tuple(map(whole, self.p)))
        object.__setattr__(self, "L1", None if self.L1 is None else whole(self.L1))
        if self.L < 0:
            raise ShapeError(f"width vector {self.p} needs at least 2 widths")
        if any(v < 1 for v in self.p):
            raise ShapeError(f"widths must be >= 1, got {self.p}")
        if self.L1 is not None and not (1 <= self.L1 <= self.L):
            raise ShapeError(f"L1={self.L1} outside 1..L={self.L}")

    @property
    def L(self) -> int:
        return len(self.p) - 2

    @property
    def in_dim(self) -> int:
        return self.p[0]

    @property
    def out_dim(self) -> int:
        return self.p[-1]


# Rows per block of the forward kernel on a dense-only range, and the most
# entries of a grouped range's buffer (1 MiB): taller blocks slowed `certify`,
# and a group's product B ⊗ I_k then does at most 2^17 times B's smaller side
# in multiply-adds.  OpenBLAS runs up to 100^3 on the calling thread, and for
# more wakes threads that spin on the CPUs the kernel's chunks need.
_BLOCK_ROWS, _BLOCK_ENTRIES = 256, 2**17


class _Groups(NamedTuple):
    """A weight as groups (B, k, r0, c0), each ``B ⊗ I_k``: copy i's unit j is
    row r0 + j*k + i, its input l column c0 + l*k + i.  The groups' rows are
    disjoint and cover the weight's.  With ``pre`` (an array or groups) the
    groups' inputs are the rows of ``pre`` times the input; with ``fold`` q
    the weight is [W, -W] for that W, each half q columns wide."""

    shape: tuple
    groups: tuple
    pre: object = None
    fold: int = 0


class Network:
    """Immutable ReLU network; weights[i] is a (p[i+1], p[i]) float64 array,
    allocated anew for a grouped layer; ``arch`` holds the widths p the layers
    chain through, read from the weights, and the bottleneck position ``L1``.
    The first evaluation caches a kernel per layer, so the stored layers must
    not be mutated after it; build a new Network over changed arrays instead."""

    __slots__ = ("arch", "_w", "_grouped", "biases", "_kernels")

    def __init__(self, weights, biases, L1: int | None = None):
        weights = [w if type(w) is _Groups else np.asarray(w, dtype=np.float64)
                   for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(biases) != len(weights) - 1:
            raise ShapeError(f"{len(biases)} biases for {len(weights)} weights, expected one fewer")
        p = [None]  # p[i], weight i's input width, is weight i-1's rows
        for i, w in enumerate(weights):
            if len(w.shape) != 2 or p[i] not in (None, w.shape[1]):
                cols = "" if p[i] is None else f" with {p[i]} columns, weight {i - 1}'s rows"
                raise ShapeError(f"weight {i} has shape {w.shape}, expected a matrix{cols}")
            if i < len(biases) and biases[i].shape != w.shape[:1]:
                raise ShapeError(f"bias {i} has shape {biases[i].shape}, expected {w.shape[:1]}")
            p[i:] = w.shape[::-1]
        object.__setattr__(self, "arch", Architecture(tuple(p), L1))
        object.__setattr__(self, "_w", weights)
        object.__setattr__(self, "_grouped", any(type(w) is _Groups for w in weights))
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "_kernels", None)

    def __setattr__(self, *a):
        raise AttributeError("Network is immutable")

    @property
    def weights(self) -> list:
        return [_dense(w) for w in self._w] if self._grouped else self._w

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
        """Apply layers start..stop-1 to the rows of A, in blocks of one height
        that the network and the range fix.  When a layer is grouped, the rows
        are split at block boundaries into at most one chunk per CPU; the
        calling thread runs the first and threads started for this call the
        others, and all have ended when this returns.  A row's output is the
        same whatever batch it is in, wherever it sits there, and in however many chunks."""
        if self._kernels is None:
            object.__setattr__(self, "_kernels", self._build_kernels())
        kernels = self._kernels[start:stop]
        n, p = A.shape[0], self.arch.p
        out = np.empty((n, p[stop]))
        rows = max([p[start] + 1] + [o + len(B) * g for *_, ops in kernels for B, g, o, *_ in ops])
        # a dense-only net runs on one thread: BLAS spreads a large dense
        # product itself, and a small dense net is bound by calls holding the GIL,
        # as is a chunk thread, so a grouped range runs the tallest power of two
        # from 8 to 1,024 rows whose buffer holds at most _BLOCK_ENTRIES entries
        grouped = any(type(w) is _Groups for w in self._w[start:stop])
        nb = (1 << min(10, max(3, (_BLOCK_ENTRIES // rows).bit_length() - 1)) if grouped
              else _BLOCK_ROWS)
        blocks = -(-n // nb)
        k = min(_cpus(), blocks) if blocks > 1 and grouped else 1
        args = (kernels, self.arch.L - start, A, out, nb)
        # every chunk's buffers come from this thread: memory a short-lived
        # thread allocates stays cached in its own malloc arena, and a new
        # thread may start before the last one has given its arena back.  They
        # start on a page: products on views not 64-byte aligned took up to 60% longer
        raw = np.empty(k * 2 * rows * nb + 512)
        bufs = raw[-raw.ctypes.data % 4096 // 8 :][: k * 2 * rows * nb].reshape(k, 2, -1)
        if k == 1:
            _forward_rows(*args, bufs[0], 0, n)
            return out
        from concurrent.futures import ThreadPoolExecutor

        edges = [min(n, nb * (blocks * j // k)) for j in range(k + 1)]
        with ThreadPoolExecutor(k - 1, thread_name_prefix="edforecast-forward") as pool:
            futures = [pool.submit(_forward_rows, *args, bufs[j], edges[j], edges[j + 1])
                       for j in range(1, k)]
            _forward_rows(*args, bufs[0], edges[0], edges[1])
        for f in futures:  # leaving the block waited for every chunk
            f.result()
        return out

    def _build_kernels(self):
        """Per layer, (rows written, fold, ops).  An op (B, k, r0, c0, shifts,
        into) multiplies the view from row c0 of the input buffer into row r0
        of the output buffer, then subtracts each (row, bias) of shifts;
        ``into`` writes a layer's input map into the input buffer past its
        ones row instead.  A dense W is one op, [[W, -b], [0, 1]] below L and
        [W, 0] at L; a grouped W one per group, blocks s * I as [[s]], and
        below L [1] from the ones row to the ones row.  [W, -W] with fold q
        runs W on rows q.. of the input after rows 0..q-1 are subtracted."""
        kernels = []
        for i, w in enumerate(self._w):
            (n, m), hidden = w.shape, int(i < self.arch.L)
            if type(w) is np.ndarray:
                K = np.zeros((n + hidden, m + 1))
                K[:n, :-1] = w
                if hidden:
                    K[:n, -1], K[n, -1] = -self.biases[i], 1.0
                fold, pre, groups, b = 0, (), ((K, 1, 0, 0),), np.zeros(0)
            else:
                # the ones row has no bias; a [1] merged with it may span it
                b = np.append(self.biases[i], 0.0) if hidden else np.zeros(n)
                fold, at = w.fold, w.fold if w.pre is None else m + 1
                pre = () if w.pre is None else _scalars(
                    [(B, k, m + 1 + r0, fold + c0) for B, k, r0, c0 in _groups(w.pre)])
                groups = _scalars([(B, k, r0, at + c0) for B, k, r0, c0 in w.groups]
                                  + [(np.ones((1, 1)), 1, n, m)] * hidden)
            kernels.append((n + hidden, fold, tuple(
                (np.ascontiguousarray(B), k, r0, c0,
                 tuple((r0 + j * k, float(col[0]) if np.all(col == col[0]) else col[:, None])
                       for j, col in enumerate(c[r0 : r0 + B.shape[0] * k].reshape(-1, k))
                       if col.any()), into)
                for part, c, into in ((pre, np.zeros(0), True), (groups, b, False))
                for B, k, r0, c0 in part)))
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
        return Network(self._w, self.biases, L1)


def _forward_rows(kernels, hidden, A, out, nb, bufs, r0, r1):
    """Rows r0..r1 of A through ``kernels`` in ``nb``-row blocks into the same rows
    of ``out``.  Chunk threads run this, so it calls no public function of the package."""
    n = A.shape[0]
    Z, steps, Y = _plan(kernels, hidden, A.shape[1], bufs, nb)
    for b0 in range(r0, r1, nb):  # a short last block ends at A's last row
        w0, e = max(0, min(b0, n - nb)), min(b0 + nb, r1)
        Z[:-1, : n - w0] = A[w0 : w0 + nb].T
        Z[:-1, n - w0 :], Z[-1] = 0.0, 1.0  # an A shorter than a block is padded with zero rows
        for f, args in steps:
            f(*args)
        out[b0:e] = Y[: out.shape[1], b0 - w0 : e - w0].T


def _plan(kernels, hidden, width, bufs, nb):
    """The input view, the calls ``f(*args)`` and the output view that take an
    ``nb``-row block through ``kernels``, transposed with a last row of ones, each
    layer from one row of ``bufs`` into the other; the first ``hidden`` layers end
    with a ReLU.  An op is one product over its k * nb columns, or, for a 1 x 1
    block, a copy or a multiply: a BLAS call takes several times as long."""
    z = bufs[0]
    Z0 = Z = z[: (width + 1) * nb].reshape(-1, nb)
    steps = []
    for j, (rows, fold, ops) in enumerate(kernels):
        if fold:
            steps.append((np.subtract, (Z[:fold], Z[fold : 2 * fold], Z[fold : 2 * fold])))
        y = bufs[(j + 1) % 2]
        Y = y[: rows * nb].reshape(-1, nb)
        for B, k, o, i, shifts, into in ops:
            (r, c), w = B.shape, k * nb
            Zv = z[i * nb : i * nb + c * w].reshape(c, w)
            Yv = (z if into else y)[o * nb : o * nb + r * w].reshape(r, w)
            if B.shape == (1, 1):
                steps.append((np.copyto, (Yv, Zv)) if B[0, 0] == 1.0
                             else (np.multiply, (Zv, float(B[0, 0]), Yv)))
            else:
                steps.append((np.matmul, (B, Zv, Yv)))
            for s, bias in shifts:
                v = y[s * nb : s * nb + w].reshape(k, nb)
                steps.append((np.subtract, (v, bias, v)))
        if j < hidden:
            steps.append((partial(np.maximum, out=Y), (Y, 0.0)))
        z, Z = y, Y
    return Z0, steps, Z


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
    F = net.eval_batch(np.vstack([X, Xp]))  # one split evaluation of both
    num = np.max(np.abs(F[: len(X)] - F[len(X) :]), axis=1)
    den = np.max(np.abs(X - Xp), axis=1)
    keep = den > 0
    if not np.any(keep):
        return 0.0
    return float(np.max(num[keep] / den[keep]))


# -- builders ------------------------------------------------------------


def identity_network(dim: int) -> Network:
    """Depth-0 network computing x -> x."""
    return Network([np.eye(dim)], [])


def compose(f: Network, g: Network, interface: str = "split") -> Network:
    """Single network computing f(g(x)) by g's layers, then f's: depth L_f + L_g + 1.

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
        weights = g._w[:-1] + [_plus_minus(g._w[-1], 0), _plus_minus(f._w[0], 1)] + f._w[1:]
        biases = g.biases + [np.zeros(2 * q)] + f.biases
    elif interface == "relu":
        weights = g._w + f._w
        biases = g.biases + [np.zeros(q)] + f.biases
    else:
        raise ValueError(f"unknown interface {interface!r}")
    return Network(weights, biases)


def parallel(nets: Sequence[Network]) -> Network:
    """Stack networks side by side on a shared input.

    All nets must agree on input dimension and depth (deepen first if not),
    the result's depth; its widths are theirs summed, its output theirs
    concatenated.  A run of neighbouring nets with equal layers after the
    first (and one output each, if more than one) lays its hidden units out
    unit-major, so each layer holds a group per run, or its one dense block.
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
    runs, last = [], None
    for n in nets:
        key = [n.arch.p] + [[(B.shape, B.tobytes(), *g) for B, *g in _groups(w)]
                            for w in n._w[1:]]
        if key == last and n.arch.out_dim == 1:
            runs[-1].append(n)
        else:
            runs.append([n])
        last = key
    # run j's units of layer i start at starts[j][i]; the output layer keeps
    # the concatenation order, as a run of several nets has one output each
    starts = np.cumsum([[0] * (L + 2)] + [[len(r) * v for v in r[0].arch.p] for r in runs],
                       axis=0).tolist()
    p = (d_in, *starts[-1][1:])
    weights = [_first_layer([[n._w[0] for n in r] for r in runs], [s[1] for s in starts],
                            (p[1], d_in))]
    for i in range(1, L + 1):
        groups = tuple((B, g * len(r), starts[j][i + 1] + r0 * len(r), starts[j][i] + c0 * len(r))
                       for j, r in enumerate(runs) for B, g, r0, c0 in _groups(r[0]._w[i]))
        one = len(groups) == 1 and groups[0][1] == 1
        weights.append(groups[0][0] if one else _Groups((p[i + 1], p[i]), groups))
    biases = [np.concatenate([_interleave([n.biases[i] for n in r]) for r in runs])
              for i in range(L)]
    return Network(weights, biases)


def deepen(net: Network, target_L: int) -> Network:
    """Pad with identity layers of the input width in front, to depth ``target_L``.

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
    return Network([np.eye(d) for _ in range(k)] + net._w,
                   [np.zeros(d) for _ in range(k)] + net.biases)


def precompose_affine(net: Network, A: np.ndarray, offset=None) -> Network:
    """Replace the input map: new net computes net(A x + offset)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[0] != net.arch.in_dim:
        raise ShapeError(
            f"precompose: matrix maps into dim {A.shape[0]}, net expects {net.arch.in_dim}"
        )
    w0 = _dense(net._w[0])
    weights = [_Groups((len(w0), A.shape[1]), ((w0, 1, 0, 0),), A)] + net._w[1:]
    biases = list(net.biases)
    if offset is not None:
        offset = np.asarray(offset, dtype=np.float64)
        shift = w0 @ offset
        if net.arch.L == 0:
            if np.any(shift != 0.0):
                raise ShapeError("depth-0 network cannot absorb an input offset")
        else:
            biases[0] = biases[0] - shift
    return Network(weights, biases, net.arch.L1)


def postcompose_affine(net: Network, C: np.ndarray) -> Network:
    """Replace the output map: new net computes C @ net(x)."""
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    if C.shape[1] != net.arch.out_dim:
        raise ShapeError(
            f"postcompose: matrix expects dim {C.shape[1]}, net outputs {net.arch.out_dim}"
        )
    return Network(net._w[:-1] + [C @ _dense(net._w[-1])], net.biases, net.arch.L1)


def _dense(w) -> np.ndarray:
    if type(w) is np.ndarray:
        return w
    out = np.zeros((w.shape[0], w.shape[1] - w.fold))
    pre = None if w.pre is None else _dense(w.pre)
    for B, k, r0, c0 in w.groups:
        (r, c), i = B.shape, np.arange(k)
        if pre is None:
            out[r0 : r0 + r * k, c0 : c0 + c * k].reshape(r, k, c, k)[:, i, :, i] = B
        else:  # B @ A_i copy by copy: one product of the whole would wake BLAS threads
            A = pre[c0 : c0 + c * k].reshape(c, k, -1).transpose(1, 0, 2)
            out[r0 : r0 + r * k].reshape(r, k, -1)[:] = (B @ A).transpose(1, 0, 2)
    return np.concatenate([out, -out], axis=1) if w.fold else out


def _groups(w) -> tuple:
    """The groups of w: one dense block over one copy unless w is plain groups."""
    plain = type(w) is _Groups and w.pre is None and not w.fold
    return w.groups if plain else ((_dense(w), 1, 0, 0),)


def _scalars(groups) -> tuple:
    """``groups`` with each block s * I over k copies as [[s]] over its rows,
    and scalar groups of one s that meet corner to corner merged."""
    out = []
    for B, k, r0, c0 in groups:
        if len(B) == B.shape[1] and np.array_equal(B, B[0, 0] * np.eye(len(B))):
            B, k = B[:1, :1], k * len(B)
            A, a, ar, ac = out[-1] if out else (B, 0, -1, -1)
            if A.shape == (1, 1) and A[0, 0] == B[0, 0] and (r0, c0) == (ar + a, ac + a):
                B, k, r0, c0 = A, a + k, ar, ac
                out.pop()
        out.append((B, k, r0, c0))
    return tuple(out)


def _first_layer(runs, starts, shape):
    """``parallel``'s first layer: the runs' first layers stacked, or groups
    on an input map when a run is ``precompose_affine`` copies B @ A_i of
    one B: B ⊗ I_k on its stacked A_i, [1] on another run's stacked rows.
    The map holds each unit's rows as one block of their nonzero columns."""
    blocks = [_product(ws) for ws in runs]
    if all(B is None for B in blocks):
        return np.concatenate([_interleave([_dense(w) for w in ws]) for ws in runs])
    outer, pre, r = [], [], 0
    for ws, B, at in zip(runs, blocks, starts):
        V = _interleave([_dense(w if B is None else w.pre) for w in ws])
        outer.append((np.ones((1, 1)), len(V), at, r) if B is None else (B, len(ws), at, r))
        for U in np.split(V, 1 if B is None else len(V) // len(ws)):
            nz = np.flatnonzero(U.any(axis=0))
            c, e = (nz[0], nz[-1] + 1) if nz.size else (0, 1)
            pre.append((U[:, c:e].copy(), 1, r, c))
            r += len(U)
    return _Groups(shape, tuple(outer), _Groups((r, shape[1]), tuple(pre)))


def _product(ws):
    """B when ws are two or more ``precompose_affine`` copies B @ A_i of one B."""
    B = ws[0].groups[0][0] if type(ws[0]) is _Groups else None
    if len(ws) > 1 and all(type(w) is _Groups and type(w.pre) is np.ndarray
                           and np.array_equal(w.groups[0][0], B) for w in ws):
        return B


def _interleave(arrays) -> np.ndarray:
    """Equal-shape arrays stacked unit-major: row j of array i goes to row
    j * len(arrays) + i."""
    return np.stack(arrays, axis=1).reshape(-1, *arrays[0].shape[1:])


def _nnz(a) -> int:
    return sum(k * int(np.count_nonzero(B)) for B, k, _, _ in _groups(a))


def _plus_minus(w, axis: int):
    """[w; -w] on axis 0, grouped when w is, or [w, -w] on axis 1, a fold
    when w is grouped and not yet folded."""
    if axis == 0 and type(w) is _Groups:
        n = w.shape[0]
        return w._replace(shape=(2 * n, w.shape[1]), groups=w.groups + tuple(
            (-B, k, r0 + n, c0) for B, k, r0, c0 in w.groups))
    if type(w) is _Groups and not w.fold:
        return w._replace(shape=(w.shape[0], 2 * w.shape[1]), fold=w.shape[1])
    w = _dense(w)
    return np.concatenate([w, -w], axis=axis)


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
    document raises ValueError naming what is wrong."""
    if not isinstance(doc, dict):
        raise ValueError(f"network document: expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != SERIAL_FORMAT:
        raise ValueError(f"unsupported network format {doc.get('format')!r}")
    try:
        a = doc["arch"]  # read as the CLI reads an integer, then checked against the weights
        L, p = integral(a["L"], ShapeError), tuple(integral(v, ShapeError) for v in a["p"])
        net = Network(doc["weights"], doc["biases"], a.get("L1"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"network document: {exc!r}") from None
    if (L, p) != (net.arch.L, net.arch.p):
        raise ValueError(f"network document: arch has L={L}, p={list(p)}, but its weights "
                          f"give L={net.arch.L}, p={list(net.arch.p)}")
    for kind, arrays in (("weight", net.weights), ("bias", net.biases)):
        for i, arr in enumerate(arrays):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{kind} {i} has non-finite entries")
    return net


def save_json(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # dumps runs the C encoder, dump does not
        fh.write(json.dumps(to_dict(net)) + "\n")


def load_json(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    return from_dict(doc)
