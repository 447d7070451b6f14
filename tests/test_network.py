"""Network representation, evaluation, and structural combinators."""

import concurrent.futures
import json
import math
import os
import select
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from edforecast import ConfigError, approx, network
from edforecast.approx import (
    ApproxPlan,
    HolderFunction,
    StageSpec,
    _as_batch,
    build_approximator,
    build_encoder_decoder,
    catalog,
)
from edforecast.network import (
    Architecture,
    Network,
    ShapeError,
    compose,
    deepen,
    from_dict,
    identity_network,
    lipschitz_empirical,
    load_json,
    parallel,
    postcompose_affine,
    save_json,
    to_dict,
)


def straight_line_eval(weights, biases, x):
    """Independent oracle: the layered recursion written out directly."""
    a = np.asarray(x, dtype=float)
    for w, b in zip(weights[:-1], biases):
        a = np.maximum(w @ a - b, 0.0)
    return weights[-1] @ a


def lipschitz_upper(net):
    """Oracle: the product of the layers' induced infinity norms (max absolute
    row sums), an upper bound on sup |f(x)-f(x')|_inf / |x-x'|_inf because
    the shifted ReLU is 1-Lipschitz."""
    return math.prod(float(np.max(np.abs(w).sum(axis=1))) for w in net.weights)


def random_net(rng, p, L1=None):
    arch = Architecture(len(p) - 2, tuple(p), L1=L1)
    weights = [rng.uniform(-1, 1, size=(p[i + 1], p[i])) for i in range(len(p) - 1)]
    biases = [rng.uniform(-1, 1, size=p[i + 1]) for i in range(len(p) - 2)]
    return Network(arch, weights, biases)


def test_eval_identity():
    net = identity_network(3)
    assert np.array_equal(net.eval_batch([[1.0, -2.0, 3.0]]), [[1.0, -2.0, 3.0]])


def test_eval_relu_definition():
    arch = Architecture(1, (1, 1, 1))
    net = Network(arch, [np.array([[1.0]]), np.array([[1.0]])], [np.array([0.0])])
    assert np.array_equal(net.eval_batch([[-2.0], [3.0]]), [[0.0], [3.0]])


def test_eval_matches_straight_line_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        depth = rng.integers(0, 4)
        p = [int(v) for v in rng.integers(1, 5, size=depth + 2)]
        net = random_net(rng, p)
        x = rng.uniform(-2, 2, size=p[0])
        ref = straight_line_eval(net.weights, net.biases, x)
        assert np.max(np.abs(net.eval_batch([x])[0] - ref)) <= 1e-12


def test_eval_dimension_mismatch_names_layer():
    net = identity_network(3)
    with pytest.raises(ShapeError, match="input layer"):
        net.eval_batch([[1.0, 2.0]])


def test_encoder_is_bottleneck_activation():
    rng = np.random.default_rng(7)
    net = random_net(rng, (2, 3, 2), L1=1)
    x = rng.uniform(-1, 1, size=2)
    # oracle truncated at hidden layer L1
    a = np.maximum(net.weights[0] @ x - net.biases[0], 0.0)
    assert np.allclose(net.encoder_batch([x]), [a], atol=1e-12)
    assert net.encoder_batch([x]).shape == (1, net.arch.p[1])


def test_encoder_identity_propagation():
    arch = Architecture(2, (3, 3, 3, 3), L1=1)
    eye = np.eye(3)
    net = Network(arch, [eye, eye, eye], [np.zeros(3), np.zeros(3)])
    x = np.array([0.2, 0.0, 0.9])
    assert np.allclose(net.encoder_batch([x]), [x])


def test_encoder_decoder_composition_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_net(rng, (3, 4, 2, 4, 3), L1=2)
        X = rng.uniform(-1, 1, size=(10, 3))
        z = net.encoder_batch(X)
        assert np.allclose(net.decoder_batch(z), net.eval_batch(X), atol=1e-12)


def test_encoder_requires_l1():
    net = identity_network(2)
    with pytest.raises(ShapeError, match="L1"):
        net.encoder_batch([[0.0, 0.0]])


def test_sparsity_counts():
    assert identity_network(4).sparsity() == 4
    arch = Architecture(1, (2, 2, 2))
    zero = Network(arch, [np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros(2)])
    assert zero.sparsity() == 0


def test_sparsity_matches_entry_scan():
    rng = np.random.default_rng(3)
    net = random_net(rng, (3, 5, 2))
    # sparsify randomly, then count by brute-force scan
    weights = [np.where(rng.uniform(size=w.shape) < 0.5, 0.0, w) for w in net.weights]
    biases = [np.where(rng.uniform(size=b.shape) < 0.5, 0.0, b) for b in net.biases]
    net = Network(net.arch, weights, biases)
    count = 0
    for m in weights:
        for row in m:
            for v in row:
                count += v != 0.0
    for b in biases:
        for v in b:
            count += v != 0.0
    assert net.sparsity() == count


def test_lipschitz_upper_examples():
    assert lipschitz_upper(identity_network(5)) == 1.0
    arch = Architecture(0, (2, 2))
    net = Network(arch, [np.array([[2.0, 0.0], [0.0, 3.0]])], [])
    assert lipschitz_upper(net) == 3.0


def test_lipschitz_empirical_below_upper():
    rng = np.random.default_rng(13)
    for _ in range(5):
        net = random_net(rng, (3, 6, 4, 2))
        X = rng.uniform(-1, 1, size=(10000, 3))
        Xp = rng.uniform(-1, 1, size=(10000, 3))
        assert lipschitz_empirical(net, X, Xp) <= lipschitz_upper(net) + 1e-12


def test_lipschitz_upper_finite_for_clipped_deep_net():
    rng = np.random.default_rng(5)
    p = (4,) + (8,) * 64 + (4,)
    weights = [np.clip(rng.uniform(-1, 1, size=(p[i + 1], p[i])), -1, 1)
               for i in range(len(p) - 1)]
    biases = [np.zeros(p[i + 1]) for i in range(len(p) - 2)]
    net = Network(Architecture(64, p), weights, biases)
    bound = lipschitz_upper(net)
    assert np.isfinite(bound)
    assert bound <= float(np.prod([float(w) for w in p[1:]]))


def test_compose_matches_chained_eval():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_net(rng, (3, 4, 2))
        f = random_net(rng, (2, 5, 1))
        h = compose(f, g)
        assert h.arch.L == f.arch.L + g.arch.L + 1
        X = rng.uniform(-2, 2, size=(50, 3))
        ref = f.eval_batch(g.eval_batch(X))
        assert np.max(np.abs(h.eval_batch(X) - ref)) <= 1e-12


def test_compose_identity_left():
    rng = np.random.default_rng(19)
    g = random_net(rng, (2, 3, 2))
    h = compose(identity_network(2), g)
    X = rng.uniform(-1, 1, size=(100, 2))
    assert np.allclose(h.eval_batch(X), g.eval_batch(X), atol=1e-12)


def test_compose_sparsity_accounting():
    rng = np.random.default_rng(23)
    g = random_net(rng, (3, 4, 2))
    f = random_net(rng, (2, 5, 1))
    h = compose(f, g)
    # exact entry scan: interface duplicates g's last and f's first matrices
    expected = (
        sum(int(np.count_nonzero(m)) for m in g.weights[:-1])
        + 2 * int(np.count_nonzero(g.weights[-1]))
        + 2 * int(np.count_nonzero(f.weights[0]))
        + sum(int(np.count_nonzero(m)) for m in f.weights[1:])
        + sum(int(np.count_nonzero(b)) for b in g.biases + f.biases)
    )
    assert h.sparsity() == expected
    assert h.sparsity() <= 2 * (f.sparsity() + g.sparsity())


def test_compose_dimension_mismatch():
    g = identity_network(2)
    f = identity_network(3)
    with pytest.raises(ShapeError, match="compose"):
        compose(f, g)


def test_relu_interface_exact_on_nonneg_range():
    rng = np.random.default_rng(29)
    g = random_net(rng, (2, 3, 2))
    f = random_net(rng, (2, 3, 1))
    h = compose(f, g, interface="relu")
    X = rng.uniform(0, 1, size=(200, 2))
    gx = g.eval_batch(X)
    keep = np.all(gx >= 0, axis=1)
    ref = f.eval_batch(gx[keep])
    assert np.max(np.abs(h.eval_batch(X[keep]) - ref)) <= 1e-12


def test_parallel_pair_of_scalars():
    rng = np.random.default_rng(31)
    a = random_net(rng, (2, 3, 1))
    b = random_net(rng, (2, 4, 1))
    both = parallel([a, b])
    X = rng.uniform(-1, 1, size=(50, 2))
    ref = np.hstack([a.eval_batch(X), b.eval_batch(X)])
    assert np.max(np.abs(both.eval_batch(X) - ref)) <= 1e-12


def test_deepen_identity_on_grid():
    net = identity_network(2)
    deeper = deepen(net, 3)
    assert deeper.arch.L == 3
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7)), -1).reshape(-1, 2)
    assert np.max(np.abs(deeper.eval_batch(grid) - grid)) == 0.0


def test_deepen_then_compose_matches_direct():
    rng = np.random.default_rng(37)
    g = random_net(rng, (2, 3, 2))
    # force nonnegative outputs so the pass-through padding in deepen(f, .)
    # sees the range it is exact on
    g = Network(g.arch, g.weights[:-1] + [np.abs(g.weights[-1])], g.biases)
    f = random_net(rng, (2, 3, 1))
    direct = compose(f, g)
    padded = compose(deepen(f, 4), g)
    X = rng.uniform(0, 1, size=(100, 2))
    assert np.max(np.abs(direct.eval_batch(X) - padded.eval_batch(X))) <= 1e-12


def test_deepen_below_depth_rejected():
    with pytest.raises(ShapeError):
        deepen(random_net(np.random.default_rng(0), (2, 3, 2)), 0)


def test_class_membership_and_monotone_sparsity():
    rng = np.random.default_rng(41)
    net = random_net(rng, (3, 4, 2), L1=1)
    s_budget = net.sparsity()

    def in_class(n):  # entries at most 1 and at most s_budget nonzeros
        return (max(np.max(np.abs(a)) for a in n.weights + n.biases) <= 1.0
                and n.sparsity() <= s_budget)

    assert in_class(net)
    # zeroing any entry never violates a satisfied sparsity constraint
    weights = [w.copy() for w in net.weights]
    weights[0][0, 0] = 0.0
    smaller = Network(net.arch, weights, net.biases)
    assert in_class(smaller) and smaller.sparsity() == s_budget - 1


def test_serialization_bit_exact_roundtrip():
    rng = np.random.default_rng(43)
    net = random_net(rng, (3, 5, 2), L1=1)
    doc = json.loads(json.dumps(to_dict(net)))
    back = from_dict(doc)
    for a, b in zip(net.weights, back.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, back.biases):
        assert np.array_equal(a, b)
    assert back.arch == net.arch


def test_serialization_file_roundtrip(tmp_path):
    rng = np.random.default_rng(47)
    net = random_net(rng, (2, 3, 1))
    path = tmp_path / "net.json"
    save_json(net, path)
    again = load_json(path)
    for a, b in zip(net.weights, again.weights):
        assert np.array_equal(a, b)
    # re-serialization is byte-identical
    path2 = tmp_path / "net2.json"
    save_json(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_architecture_validation():
    with pytest.raises(ShapeError):
        Architecture(1, (2, 2))
    with pytest.raises(ShapeError):
        Architecture(1, (2, 0, 2))
    with pytest.raises(ShapeError):
        Architecture(1, (2, 3, 2), L1=2)


# -- forward kernel against the dense per-layer loop it replaced -------------


def dense_forward(net, A, start, stop):
    """Oracle: the row-major dense loop, layers start..stop-1."""
    A = np.asarray(A, dtype=float)
    for i in range(start, stop):
        if i < net.arch.L:
            A = np.maximum(A @ net.weights[i].T - net.biases[i], 0.0)
        else:
            A = A @ net.weights[i].T
    return A


def assert_matches_dense(got, ref):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def two_pass_forward(net, A, start, stop):
    """Oracle: the block kernel before the bias fold.  Each layer is the
    product with W (CSR when at most 10% nonzero), then ``-= b``, then the
    ReLU, on transposed 256-row blocks."""
    from scipy.sparse import csr_matrix

    kernels = [csr_matrix(w) if np.count_nonzero(w) <= 0.1 * w.size else w
               for w in net.weights]
    A = np.asarray(A, dtype=float)
    out = np.empty((A.shape[0], net.arch.p[stop]))
    for r0 in range(0, A.shape[0], 256):
        Z = np.ascontiguousarray(A[r0 : r0 + 256].T)
        for i in range(start, stop):
            Z = kernels[i] @ Z
            if i < net.arch.L:
                Z -= net.biases[i][:, None]
                np.maximum(Z, 0.0, out=Z)
        out[r0 : r0 + 256] = Z.T
    return out


def has_grouped_layer(net):
    return any(type(w) is network._Groups for w in net._w)


def block_rows(fn, A):
    """The rows per block of the forward kernel in ``fn``, an evaluation of a
    network on inputs like A: the height it hands ``_forward_rows`` on A's first row."""
    heights, rows = [], network._forward_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_forward_rows", lambda *args: heights.append(args[4]) or rows(*args))
        fn(A[:1])
    return heights[0]


# (target, N, m): the certificate sizes of the benchmark's certify workload
CERT_PLANS = {"zero": (10, 6), "linear": (10, 6), "product2": (23, 8), "sinsum": (25, 12)}


@pytest.fixture(scope="module")
def cert_nets():
    nets = {}
    for name, hf in catalog().items():
        N, m = CERT_PLANS[name]
        nets[name] = build_approximator(hf, ApproxPlan(N=N, m=m))[0]
    return nets


@pytest.mark.parametrize("target", sorted(CERT_PLANS))
def test_forward_kernel_matches_dense_on_certificate_nets(cert_nets, target):
    net = cert_nets[target]
    assert has_grouped_layer(net)
    X = np.random.default_rng(53).uniform(0, 1, size=(4000, net.arch.in_dim))
    assert_matches_dense(net.eval_batch(X), dense_forward(net, X, 0, net.arch.L + 1))
    assert all(type(w) is np.ndarray for w in net.weights)


@pytest.mark.parametrize("target,N,m", [("product2", 49, 10), ("sinsum", 25, 12)])
def test_grouped_kernel_matches_the_two_pass_loop(chunked, target, N, m):
    # the grouped products, bias subtractions and ones rows against the CSR
    # loop of products and bias subtractions; every split gives the same bits
    net = build_approximator(catalog()[target], ApproxPlan(N=N, m=m))[0]
    X = np.random.default_rng(61).uniform(0, 1, size=(4000, net.arch.in_dim))
    chunked(1)
    got = net.eval_batch(X)
    assert_matches_dense(got, two_pass_forward(net, X, 0, net.arch.L + 1))
    for k in (2, 3):
        chunked(k)
        assert np.array_equal(net.eval_batch(X), got)
    for i, (rows, fold, ops) in enumerate(net._kernels):
        assert rows == net.arch.p[i + 1] + (i < net.arch.L)
        assert all(B.flags.c_contiguous for B, *_ in ops)


def test_folded_kernel_layout_on_dense_net_with_biases():
    net = random_net(np.random.default_rng(71), (3, 20, 8, 2))
    assert all(np.all(b != 0) for b in net.biases)
    net.eval_batch(np.zeros((1, 3)))
    # a dense network's layer is one uncapped op into the output, with no fold
    assert all(len(ops) == 1 and ops[0][5:] == (None, False) and fold == 0
               for _, fold, ops in net._kernels)
    K0, K1, K2 = (ops[0][0] for *_, ops in net._kernels)
    assert np.array_equal(K0, np.block([[net.weights[0], -net.biases[0][:, None]],
                                        [np.zeros((1, 3)), np.ones((1, 1))]]))
    assert np.array_equal(K1[-1], np.eye(1, 21, 20)[0])
    assert np.array_equal(K2, np.hstack([net.weights[2], np.zeros((2, 1))]))


def _kernel_nets(cert_nets):
    rng = np.random.default_rng(59)
    depth0 = Network(Architecture(0, (3, 4)), [rng.uniform(-1, 1, size=(4, 3))], [])
    return {"certificate": cert_nets["product2"],
            "dense": random_net(rng, (3, 20, 8, 20, 3), L1=2), "depth0": depth0}


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 4000])
@pytest.mark.parametrize("kind", ["certificate", "dense", "depth0"])
def test_forward_kernel_block_edges(cert_nets, kind, rows):
    net = _kernel_nets(cert_nets)[kind]
    X = np.random.default_rng(rows).uniform(0, 1, size=(rows, net.arch.in_dim))
    out = net.eval_batch(X)
    assert out.shape == (rows, net.arch.out_dim)
    assert_matches_dense(out, dense_forward(net, X, 0, net.arch.L + 1))
    if net.arch.L1 is not None:
        # the encoder drops the ones row at its end, the decoder adds it back
        L1 = net.arch.L1
        z = net.encoder_batch(X)
        assert_matches_dense(z, dense_forward(net, X, 0, L1))
        assert_matches_dense(net.decoder_batch(z), dense_forward(net, z, L1, net.arch.L + 1))
    assert all(type(w) is np.ndarray for w in net.weights)


def test_block_height_follows_the_network():
    # a dense net runs 256-row blocks; a certificate the most rows, a power of
    # two from 256 to 1,024, whose activation buffers hold at most 2^17 entries
    rng = np.random.default_rng(101)
    dense = random_net(rng, (16, 24, 8, 24, 16), L1=2)
    X = rng.uniform(0, 1, size=(1, 16))
    assert [block_rows(fn, A) for fn, A in ((dense.eval_batch, X), (dense.encoder_batch, X),
                                            (dense.decoder_batch, dense.encoder_batch(X)))] == [256] * 3
    heights = {}
    for name, N, m in (("linear", 10, 6), ("product2", 23, 8), ("sinsum", 25, 12), ("product2", 49, 10)):
        net = build_approximator(catalog()[name], ApproxPlan(N=N, m=m))[0]
        heights[name, N] = block_rows(net.eval_batch, np.zeros((1, net.arch.in_dim)))
    assert heights == {("linear", 10): 1024, ("product2", 23): 1024, ("sinsum", 25): 512,
                       ("product2", 49): 256}


@pytest.fixture
def chunked(monkeypatch):
    """``chunked(k)`` makes every later evaluation see k CPUs, so it splits
    its rows into at most k chunks, and returns the list of the chunks since
    submitted to threads, as (first row, end row); ``chunked(1)`` runs every
    row on the calling thread."""
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[-2:])
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)

    def use(k):
        monkeypatch.setattr(network, "_cpus", lambda: k)
        submitted.clear()
        return submitted

    return use


def folded_forward(net, A, start, stop, nb):
    """Oracle: the bias-folded block loop on one thread, each layer a fresh
    ``K @ Z`` array with K = [[W, -b], [0, 1]] (below L) built from the dense
    ``weights``, as the forward kernel ran before its buffers and chunks, on
    blocks of ``nb`` rows as it runs them now."""
    kernels = []
    for i, w in enumerate(net.weights):
        hidden = int(i < net.arch.L)
        K = np.zeros((w.shape[0] + hidden, w.shape[1] + 1))
        K[: w.shape[0], :-1] = w
        if hidden:
            K[: w.shape[0], -1], K[-1, -1] = -net.biases[i], 1.0
        kernels.append(K)
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    out = np.empty((n, net.arch.p[stop]))
    for r0 in range(0, n, nb):
        # every block is nb rows: a short last one is the window ending at
        # A's last row, and an A shorter than that is padded with zero rows
        w0 = max(0, min(r0, n - nb))
        Z = np.ones((net.arch.p[start] + 1, nb))
        Z[:-1] = 0.0
        Z[:-1, : min(n, nb)] = A[w0 : w0 + nb].T
        for i in range(start, stop):
            Z = kernels[i] @ Z
            if i < net.arch.L:
                np.maximum(Z, 0.0, out=Z)
        e = min(r0 + nb, n)
        out[r0:e] = Z[: net.arch.p[stop], r0 - w0 : e - w0].T
    return out


@pytest.mark.parametrize("rows", [511, 512, 513, 767, 4000, "nb-1", "nb", "nb+1", "2nb+1"])
@pytest.mark.parametrize("kind", ["certificate", "dense", "depth0"])
def test_forward_kernel_chunks_are_bit_identical(cert_nets, chunked, kind, rows):
    # a row's values do not depend on the chunk it lands in, so every split
    # gives the bits of one chunk.  A dense net also gives the bits of the
    # single-thread folded loop; a certificate net's grouped layers run other
    # products than that loop's dense ones, so there, as against the two-pass
    # oracle everywhere, the dense tolerance holds.  Only a net with a
    # grouped layer is split, and only a batch of more than one block; a
    # dense-only one runs on the calling thread.  Batch sizes are fixed, or
    # taken from the net's block height nb.
    net = _kernel_nets(cert_nets)[kind]
    if kind == "certificate":  # a bottleneck, so the encoder and decoder split too
        net = net.with_l1(net.arch.L // 2)
    nb = block_rows(net.eval_batch, np.zeros((1, net.arch.in_dim)))
    rows = {"nb-1": nb - 1, "nb": nb, "nb+1": nb + 1, "2nb+1": 2 * nb + 1}.get(rows, rows)
    X = np.random.default_rng(rows).uniform(0, 1, size=(rows, net.arch.in_dim))
    calls = [(net.eval_batch, X, 0, net.arch.L + 1)]
    if net.arch.L1 is not None:
        L1 = net.arch.L1
        z = two_pass_forward(net, X, 0, L1)
        calls += [(net.encoder_batch, X, 0, L1), (net.decoder_batch, z, L1, net.arch.L + 1)]
    chunked(1)
    serial = [fn(A) for fn, A, _, _ in calls]
    for got, (fn, A, start, stop) in zip(serial, calls):
        folded = folded_forward(net, A, start, stop, block_rows(fn, A))
        if kind == "certificate":
            assert_matches_dense(got, folded)
        else:
            assert np.array_equal(got, folded)
        assert_matches_dense(got, two_pass_forward(net, A, start, stop))
    for k in (2, 3, 16):
        submitted = chunked(k)
        for (fn, A, _, _), ref in zip(calls, serial):
            assert np.array_equal(fn(A), ref)
        assert (len(submitted) > 0) == (kind == "certificate" and rows > nb)


@pytest.mark.parametrize("kind", ["dense", "depth0", "product2", "sinsum", "encoder", "decoder"])
def test_row_output_depends_on_that_row_alone(cert_nets, chunked, kind):
    # every block runs nb rows, a short one as a window or zero-padded, so a
    # row gets the same bits alone, at a random position among other rows,
    # and in one, two or three chunks.  Batches of one and two rows, the
    # block edges and four random sizes below 4 nb draw from 1,000 rows; a
    # batch larger than that takes every row before it repeats one
    rng = np.random.default_rng(89)
    cert = cert_nets["sinsum" if kind == "sinsum" else "product2"]  # with a bottleneck
    net = {"dense": random_net(rng, (16, 16, 24, 8, 24, 8, 8)),
           "depth0": _kernel_nets(cert_nets)["depth0"]}.get(kind, cert.with_l1(cert.arch.L // 2))
    fn = {"encoder": net.encoder_batch, "decoder": net.decoder_batch}.get(kind, net.eval_batch)
    pool = rng.uniform(0, 1, size=(1000, net.arch.in_dim))
    if kind == "decoder":
        pool = net.encoder_batch(pool)
    nb = block_rows(fn, pool)
    sizes = [1, 2, nb - 1, nb, nb + 1, 2 * nb - 1, 2 * nb + 1] + [
        int(v) for v in np.random.default_rng(83).integers(3, 4 * nb, size=4)]
    chunked(1)
    alone = np.vstack([fn(pool[i : i + 1]) for i in range(len(pool))])
    for k in (1, 2, 3):
        submitted = chunked(k)
        for size in sizes:
            rows = np.resize(rng.permutation(len(pool)), size)
            assert np.array_equal(fn(pool[rows]), alone[rows]), (k, size)
        assert (len(submitted) > 0) == (k > 1 and has_grouped_layer(net))


def test_no_chunk_thread_outlives_an_evaluation(cert_nets, monkeypatch):
    # a split evaluation starts its chunk threads and has joined them all
    # when it returns, whichever of the three entry points it came through
    net = cert_nets["product2"]
    net = net.with_l1(net.arch.L // 2)
    X = np.zeros((1, net.arch.in_dim))
    # enough rows for three blocks on every layer range
    nb = max(block_rows(fn, A) for fn, A in ((net.eval_batch, X), (net.encoder_batch, X),
                                             (net.decoder_batch, net.encoder_batch(X))))
    X = np.random.default_rng(97).uniform(0, 1, size=(2 * nb + 1, net.arch.in_dim))
    Z = net.encoder_batch(X)
    rows, ran = network._forward_rows, []

    def recording(*args):
        ran.append(threading.current_thread())
        return rows(*args)

    monkeypatch.setattr(network, "_forward_rows", recording)
    monkeypatch.setattr(network, "_cpus", lambda: 3)
    for fn, A in ((net.eval_batch, X), (net.encoder_batch, X), (net.decoder_batch, Z)):
        before = threading.active_count()
        ran.clear()
        fn(A)
        # three chunks, two of them handed to threads; a thread that is done
        # with one chunk may take the next
        assert len(ran) == 3 and threading.current_thread() in ran and len(set(ran)) > 1
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in ran if t is not threading.current_thread())


def test_grouped_products_stay_below_the_blas_thread_size(cert_nets):
    # OpenBLAS runs a product of at most 10^6 multiply-adds on the calling
    # thread; a larger one in a chunk thread would wake threads of its own
    net = cert_nets["sinsum"]
    nb = block_rows(net.eval_batch, np.zeros((1, net.arch.in_dim)))
    _, steps, _ = network._plan(net._kernels, net.arch.L, net.arch.in_dim, np.empty((2, 10**6)), nb)
    products = [(args[0].shape, args[1].shape) for f, args in steps if f is np.matmul]
    assert all(r * c * w <= network._PRODUCT_MACS for (r, c), (_, w) in products)
    # compose's split interface [W, -W] is stored as a fold of the head's
    # factored layer, and runs as W on the halves' difference
    m = CERT_PLANS["sinsum"][1]
    assert [i for i, k in enumerate(net._kernels) if k[1]] == [net.arch.L - (m + 2)]
    w = net._w[net.arch.L - (m + 2)]
    assert type(w) is network._Groups and w.pre is not None and 2 * w.fold == w.shape[1]


@pytest.mark.parametrize("target", sorted(CERT_PLANS))
def test_no_blas_call_for_a_1x1_block(cert_nets, target):
    # the ones-row carries and scalar pass-throughs are copies or multiplies
    net = cert_nets[target]
    nb = block_rows(net.eval_batch, np.zeros((1, net.arch.in_dim)))
    _, steps, _ = network._plan(net._kernels, net.arch.L, net.arch.in_dim, np.empty((2, 10**6)), nb)
    assert not any(f is np.matmul and args[0].shape == (1, 1) for f, args in steps)
    assert any(f is np.copyto for f, _ in steps)


def test_certificate_kernel_work_grows_linearly_in_n():
    # multiply-adds per row of sinsum m=12: the layer after compose's
    # interface, which a dense product made grow with N^2, is factored
    macs = {}
    for N in (25, 100, 200):
        net = build_approximator(catalog()["sinsum"], ApproxPlan(N=N, m=12))[0]
        macs[N] = sum(B.size * k for *_, ops in net._kernels for B, k, *_ in ops)
    assert macs[25] < macs[100] < macs[200] <= 1.5 * 200 / 25 * macs[25]


def dense_parallel(nets):
    """Oracle: ``parallel`` as it assembled every layer densely, in the
    concatenation order of the nets' units."""
    L = nets[0].arch.L
    weights = [np.vstack([n.weights[0] for n in nets])]
    for i in range(1, L + 1):
        w = np.zeros((sum(n.arch.p[i + 1] for n in nets), sum(n.arch.p[i] for n in nets)))
        r = c = 0
        for n in nets:
            w[r : r + n.arch.p[i + 1], c : c + n.arch.p[i]] = n.weights[i]
            r, c = r + n.arch.p[i + 1], c + n.arch.p[i]
        weights.append(w)
    biases = [np.concatenate([n.biases[i] for n in nets]) for i in range(L)]
    p = (nets[0].arch.in_dim,) + tuple(sum(n.arch.p[i] for n in nets) for i in range(1, L + 2))
    return Network(Architecture(L, p), weights, biases)


def unordered(w):
    """The rows of w, each sorted, in sorted order: equal for matrices that
    differ by a permutation of rows, one of columns, or both."""
    rows = np.sort(w, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("target,N,m", sorted((name, *plan) for name, plan in CERT_PLANS.items())
                         + [("product2", 49, 10)])
def test_grouped_assembly_matches_the_dense_one(monkeypatch, target, N, m):
    # the same certificate with dense layers in concatenation order: the
    # grouped one holds the same entries with its hidden units permuted, and
    # every layer is grouped but the first and the output layer
    hf, plan = catalog()[target], ApproxPlan(N=N, m=m)
    net = build_approximator(hf, plan)[0]
    monkeypatch.setattr(approx, "parallel", dense_parallel)
    dense = build_approximator(hf, plan)[0]
    assert not has_grouped_layer(dense)
    assert [i for i, w in enumerate(net._w) if type(w) is np.ndarray] == [0, net.arch.L]
    # the layer after the interface: [W, -W] folded, with W the P mult copies'
    # first block over the copies' input maps (Taylor coefficients times the
    # monomials, then each copy's hat), and a [1] for the constant one
    head, P = net._w[net.arch.L - (m + 2)], (plan.grid_resolution(hf.t) + 1) ** hf.t
    assert 2 * head.fold == head.shape[1] and head.pre.shape == (2 * P + 1, head.fold)
    assert [(B.shape, k) for B, k, _, _ in head.groups] == [((7, 2), P), ((1, 1), 1)]
    (RA, *_), (I, *_), _ = head.pre.groups  # beta = 2: the t monomials of degree one
    assert RA.shape == (P, hf.t) and np.array_equal(I, np.eye(P))
    assert net.arch == dense.arch and net.sparsity() == dense.sparsity()
    for w, ref in zip(net.weights + net.biases, dense.weights + dense.biases):
        assert type(w) is np.ndarray and w.shape == ref.shape
        w, ref = np.atleast_2d(w), np.atleast_2d(ref)
        assert np.array_equal(unordered(w), unordered(ref))
        assert np.array_equal(unordered(w.T), unordered(ref.T))
    X = np.random.default_rng(67).uniform(0, 1, size=(300, net.arch.in_dim))
    assert_matches_dense(net.eval_batch(X), dense_forward(dense, X, 0, net.arch.L + 1))
    if (target, N) == ("product2", 49):  # 49 copies of each mult stage, a carrier
        assert [(B.shape, k) for B, k, _, _ in net._w[20].groups] == [((7, 7), 49), ((1, 1), 1)]


def test_parallel_stores_repeated_blocks_as_groups():
    rng = np.random.default_rng(87)
    a = random_net(rng, (3, 4, 2, 1))
    a = Network(a.arch, [a.weights[0], np.where(a.weights[1] > 0, a.weights[1], 0.0),
                         a.weights[2]], a.biases)
    b, wide = random_net(rng, (3, 2, 3, 1)), random_net(rng, (3, 4, 2, 2))
    nets = [a, a, a, b, a, a, wide, wide]
    net = parallel(nets)
    ref = dense_parallel(nets)
    # runs of equal nets with one output each: a x3, b, a x2, then wide twice
    runs = [(a, 3), (b, 1), (a, 2), (wide, 1), (wide, 1)]
    for i in (1, 2):
        shapes = [(n.weights[i].shape, k) for n, k in runs]
        assert [(B.shape, k) for B, k, _, _ in net._w[i].groups] == shapes
    assert type(net._w[0]) is np.ndarray
    # hidden unit u of copy c of a run at s sits at s + u * k + c; the
    # output keeps the concatenation order
    order = [np.arange(net.arch.p[0])]
    for h in (1, 2):
        pos, at = [], 0
        for n, k in runs:
            w = n.arch.p[h]
            pos += [at + c * w + u for u in range(w) for c in range(k)]
            at += w * k
        order.append(np.array(pos))
    order.append(np.arange(net.arch.p[3]))
    for i in range(3):
        assert np.array_equal(net.weights[i], ref.weights[i][order[i + 1]][:, order[i]])
    for i in range(2):
        assert np.array_equal(net.biases[i], ref.biases[i][order[i + 1]])
    # nonzeros counted, not the stored block entries
    assert net.sparsity() == ref.sparsity() == sum(
        int(np.count_nonzero(x)) for x in net.weights + net.biases)
    X = rng.uniform(-1, 1, size=(50, 3))
    assert_matches_dense(net.eval_batch(X), np.hstack([n.eval_batch(X) for n in nets]))
    # nested: the copies of a grouped net flatten into one group
    pair = postcompose_affine(parallel([a, a]), np.ones((1, 2)))
    twice = parallel([pair, pair])
    assert [(B.shape, k) for B, k, _, _ in twice._w[1].groups] == [((2, 4), 4)]
    assert_matches_dense(twice.eval_batch(X), np.hstack([pair.eval_batch(X)] * 2))


def test_concurrent_first_evaluations_match_a_serial_one(cert_nets):
    # user threads race to build the kernel cache of a fresh network, and
    # each splits its batch over chunk threads of its own; each must get the
    # serial bits
    base = cert_nets["product2"]
    X = np.random.default_rng(79).uniform(0, 1, size=(1500, base.arch.in_dim))
    ref = base.eval_batch(X)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            net = Network(base.arch, base._w, base.biases)  # a fresh kernel cache
            barrier = threading.Barrier(4)
            results = [None] * 4

            def work(i):
                barrier.wait(timeout=30)
                results[i] = net.eval_batch(X)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for got in results:
                assert got is not None and np.array_equal(got, ref)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_evaluates_on_its_own_pool(cert_nets):
    # a forked child has none of its parent's threads; it starts its own
    # chunk threads, and one that handed chunks to a parent's thread would
    # wait forever
    net = cert_nets["product2"]
    X = np.random.default_rng(83).uniform(0, 1, size=(1500, net.arch.in_dim))
    ref = net.eval_batch(X)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report, and leave without running the parent's cleanup
        try:
            os.write(w, b"1" if np.array_equal(net.eval_batch(X), ref) else b"0")
        finally:
            os._exit(0)
    os.close(w)
    ready = []
    try:
        ready, _, _ = select.select([r], [], [], 60)
        answer = os.read(r, 1) if ready else b""
    finally:
        os.close(r)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert answer == b"1"


def test_forward_kernel_encoder_decoder_on_assembled_net():
    ident = HolderFunction(
        t=1, beta=2.0, K=2.0, name="ident", f=_as_batch(lambda X: X[:, 0]),
        partials={(1,): _as_batch(lambda X: np.ones(X.shape[0]))},
    )
    stage = StageSpec(in_dim=2, components=((ident, (0,)), (ident, (1,))))
    net, _ = build_encoder_decoder(stage, stage, stage, ApproxPlan(N=10, m=10),
                                   L1_target=35, L_target=55)
    assert has_grouped_layer(net)
    L1 = net.arch.L1
    for rows in (0, 1, 255, 256, 257, 4000):
        X = np.random.default_rng(rows).uniform(0, 1, size=(rows, 2))
        z = net.encoder_batch(X)
        assert_matches_dense(z, dense_forward(net, X, 0, L1))
        assert_matches_dense(net.decoder_batch(z),
                             dense_forward(net, z, L1, net.arch.L + 1))
    assert all(type(w) is np.ndarray for w in net.weights)


def test_save_json_writes_the_document_and_a_newline(tmp_path):
    net = random_net(np.random.default_rng(89), (3, 4, 2), L1=1)
    path = tmp_path / "net.json"
    save_json(net, path)
    assert path.read_text(encoding="utf-8") == json.dumps(to_dict(net)) + "\n"


def test_from_dict_rejects_non_finite_entries():
    net = random_net(np.random.default_rng(67), (2, 3, 4, 1))
    doc = to_dict(net)
    doc["weights"][2][0][1] = float("nan")
    with pytest.raises(ValueError, match="weight 2 has non-finite entries"):
        from_dict(json.loads(json.dumps(doc)))
    doc = to_dict(net)
    doc["biases"][1][3] = float("-inf")
    with pytest.raises(ValueError, match="bias 1 has non-finite entries"):
        from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("key, value", [
    ("L", 1.5), ("L", "1"), ("L1", True), ("p", [2, 3.7, 2]), ("p", [2, "3", 2]),
])
def test_from_dict_rejects_a_non_integer_arch_entry(key, value):
    # L, L1 and the widths are read as the CLI reads an integer: refused,
    # never truncated; an integral float such as 3.0 reads as 3
    doc = to_dict(random_net(np.random.default_rng(73), (2, 3, 2)))
    assert doc["arch"] == {"L": 1, "L1": None, "p": [2, 3, 2]}
    with pytest.raises(ConfigError, match="network document: ShapeError"):
        from_dict({**doc, "arch": {**doc["arch"], key: value}})
    with pytest.raises(ShapeError, match="expected an integer"):
        Architecture(**{**doc["arch"], key: value})
    whole = from_dict({**doc, "arch": {"L": 1.0, "L1": 1.0, "p": [2.0, 3.0, 2.0]}}).arch
    assert whole == Architecture(1, (2, 3, 2), L1=1) and type(whole.L) is int
