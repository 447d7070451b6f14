"""Network representation, evaluation, and structural combinators."""

import json
import os
import select
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from edforecast import network
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
    is_in_class,
    lipschitz_empirical,
    load_json,
    parallel,
    save_json,
    to_dict,
)


def straight_line_eval(weights, biases, x):
    """Independent oracle: the layered recursion written out directly."""
    a = np.asarray(x, dtype=float)
    for w, b in zip(weights[:-1], biases):
        a = np.maximum(w @ a - b, 0.0)
    return weights[-1] @ a


def random_net(rng, p, L1=None):
    arch = Architecture(len(p) - 2, tuple(p), L1=L1)
    weights = [rng.uniform(-1, 1, size=(p[i + 1], p[i])) for i in range(len(p) - 1)]
    biases = [rng.uniform(-1, 1, size=p[i + 1]) for i in range(len(p) - 2)]
    return Network(arch, weights, biases)


def test_eval_identity():
    net = identity_network(3)
    assert np.array_equal(net.eval([1.0, -2.0, 3.0]), [1.0, -2.0, 3.0])


def test_eval_relu_definition():
    arch = Architecture(1, (1, 1, 1))
    net = Network(arch, [np.array([[1.0]]), np.array([[1.0]])], [np.array([0.0])])
    assert net.eval([-2.0])[0] == 0.0
    assert net.eval([3.0])[0] == 3.0


def test_eval_matches_straight_line_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        depth = rng.integers(0, 4)
        p = [int(v) for v in rng.integers(1, 5, size=depth + 2)]
        net = random_net(rng, p)
        x = rng.uniform(-2, 2, size=p[0])
        ref = straight_line_eval(net.weights, net.biases, x)
        assert np.max(np.abs(net.eval(x) - ref)) <= 1e-12


def test_eval_dimension_mismatch_names_layer():
    net = identity_network(3)
    with pytest.raises(ShapeError, match="input layer"):
        net.eval([1.0, 2.0])


def test_encoder_is_bottleneck_activation():
    rng = np.random.default_rng(7)
    net = random_net(rng, (2, 3, 2), L1=1)
    x = rng.uniform(-1, 1, size=2)
    # oracle truncated at hidden layer L1
    a = np.maximum(net.weights[0] @ x - net.biases[0], 0.0)
    assert np.allclose(net.eval_encoder(x), a, atol=1e-12)
    assert net.eval_encoder(x).shape == (net.arch.p[1],)


def test_encoder_identity_propagation():
    arch = Architecture(2, (3, 3, 3, 3), L1=1)
    eye = np.eye(3)
    net = Network(arch, [eye, eye, eye], [np.zeros(3), np.zeros(3)])
    x = np.array([0.2, 0.0, 0.9])
    assert np.allclose(net.eval_encoder(x), x)


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
        net.eval_encoder([0.0, 0.0])


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
    assert identity_network(5).lipschitz_upper() == 1.0
    arch = Architecture(0, (2, 2))
    net = Network(arch, [np.array([[2.0, 0.0], [0.0, 3.0]])], [])
    assert net.lipschitz_upper() == 3.0


def test_lipschitz_empirical_below_upper():
    rng = np.random.default_rng(13)
    for _ in range(5):
        net = random_net(rng, (3, 6, 4, 2))
        X = rng.uniform(-1, 1, size=(10000, 3))
        Xp = rng.uniform(-1, 1, size=(10000, 3))
        assert lipschitz_empirical(net, X, Xp) <= net.lipschitz_upper() + 1e-12


def test_lipschitz_upper_finite_for_clipped_deep_net():
    rng = np.random.default_rng(5)
    p = (4,) + (8,) * 64 + (4,)
    weights = [np.clip(rng.uniform(-1, 1, size=(p[i + 1], p[i])), -1, 1)
               for i in range(len(p) - 1)]
    biases = [np.zeros(p[i + 1]) for i in range(len(p) - 2)]
    net = Network(Architecture(64, p), weights, biases)
    bound = net.lipschitz_upper()
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
    arch, s_budget = Architecture(1, (3, 4, 2), L1=1), net.sparsity()
    report = is_in_class(net, arch, s_budget=s_budget)
    assert report["sparsity_ok"] and report["entries_ok"]
    # zeroing any entry never violates a satisfied sparsity constraint
    weights = [w.copy() for w in net.weights]
    weights[0][0, 0] = 0.0
    smaller = Network(net.arch, weights, net.biases)
    assert is_in_class(smaller, arch, s_budget=s_budget)["sparsity_ok"]


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


def has_sparse_layer(net):
    from scipy.sparse import issparse

    net.eval_batch(np.zeros((1, net.arch.in_dim)))
    return any(issparse(k) for k in net._kernels)


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
    assert has_sparse_layer(net)
    X = np.random.default_rng(53).uniform(0, 1, size=(4000, net.arch.in_dim))
    assert_matches_dense(net.eval_batch(X), dense_forward(net, X, 0, net.arch.L + 1))
    assert all(type(w) is np.ndarray for w in net.weights)


@pytest.mark.parametrize("target,N,m", [("product2", 49, 10), ("sinsum", 25, 12)])
def test_folded_kernel_is_bit_identical_to_two_pass_loop(target, N, m):
    # a CSR layer sums W's terms in column order and then the bias, exactly
    # as the product followed by the subtraction did
    from scipy.sparse import issparse

    net = build_approximator(catalog()[target], ApproxPlan(N=N, m=m))[0]
    X = np.random.default_rng(61).uniform(0, 1, size=(4000, net.arch.in_dim))
    assert np.array_equal(net.eval_batch(X), two_pass_forward(net, X, 0, net.arch.L + 1))
    for i, k in enumerate(net._kernels):
        rows = net.arch.p[i + 1] + (i < net.arch.L)
        assert k.shape == (rows, net.arch.p[i] + 1)
        assert not issparse(k) or k.has_sorted_indices


def test_folded_kernel_layout_on_dense_net_with_biases():
    net = random_net(np.random.default_rng(71), (3, 20, 8, 2))
    assert all(np.all(b != 0) for b in net.biases)
    net.eval_batch(np.zeros((1, 3)))
    K0, K1, K2 = net._kernels
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


class CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def chunked(monkeypatch):
    """``chunked(k)`` makes every later evaluation split its rows into at
    most k chunks, k - 1 of them on the pool it returns, which counts them;
    ``chunked(1)`` runs every row on the calling thread."""
    pools = []

    def use(k):
        pool = CountingPool(k - 1) if k > 1 else None
        if pool is not None:
            pools.append(pool)
        monkeypatch.setattr(network, "_POOL", (k, pool))
        return pool

    yield use
    for pool in pools:
        pool.shutdown()


def folded_forward(net, A, start, stop):
    """Oracle: the bias-folded block loop on one thread, each layer a fresh
    ``K @ Z`` array, as the forward kernel ran before its buffers and chunks."""
    has_sparse_layer(net)
    A = np.asarray(A, dtype=float)
    out = np.empty((A.shape[0], net.arch.p[stop]))
    for r0 in range(0, A.shape[0], 256):
        block = A[r0 : r0 + 256]
        Z = np.ones((net.arch.p[start] + 1, block.shape[0]))
        Z[:-1] = block.T
        for i in range(start, stop):
            Z = net._kernels[i] @ Z
            if i < net.arch.L:
                np.maximum(Z, 0.0, out=Z)
        out[r0 : r0 + 256] = Z[: net.arch.p[stop]].T
    return out


@pytest.mark.parametrize("rows", [511, 512, 513, 767, 4000])
@pytest.mark.parametrize("kind", ["certificate", "dense", "depth0"])
def test_forward_kernel_chunks_are_bit_identical(cert_nets, chunked, kind, rows):
    # a row's values do not depend on the chunk it lands in, so every split
    # gives the bits of one chunk and of the single-thread loop; a certificate
    # net also gives the two-pass oracle's bits.  A dense kernel on a
    # one-column block (row 513) is a matrix-vector product, which may sum the
    # folded bias in another order than the two passes, so there the two-pass
    # oracle is met within the dense tolerance.  Only a net with a CSR layer
    # is split; a dense-only one runs on the calling thread.
    net = _kernel_nets(cert_nets)[kind]
    if kind == "certificate":  # a bottleneck, so the encoder and decoder split too
        net = net.with_l1(net.arch.L // 2)
    X = np.random.default_rng(rows).uniform(0, 1, size=(rows, net.arch.in_dim))
    calls = [(net.eval_batch, X, 0, net.arch.L + 1)]
    if net.arch.L1 is not None:
        L1 = net.arch.L1
        z = two_pass_forward(net, X, 0, L1)
        calls += [(net.encoder_batch, X, 0, L1), (net.decoder_batch, z, L1, net.arch.L + 1)]
    chunked(1)
    serial = [fn(A) for fn, A, _, _ in calls]
    for got, (_, A, start, stop) in zip(serial, calls):
        assert np.array_equal(got, folded_forward(net, A, start, stop))
        ref = two_pass_forward(net, A, start, stop)
        if kind == "certificate":
            assert np.array_equal(got, ref)
        else:
            assert_matches_dense(got, ref)
    for k in (2, 3, 16):
        pool = chunked(k)
        for (fn, A, _, _), ref in zip(calls, serial):
            assert np.array_equal(fn(A), ref)
        assert (pool.submitted > 0) == (kind == "certificate")


def test_csr_matvecs_call_matches_the_scipy_product(cert_nets):
    # the forward kernel calls scipy's private routine behind K @ Z directly;
    # a scipy that changes it must fail here, not drift the results
    from scipy.sparse import issparse
    from scipy.sparse._sparsetools import csr_matvecs

    net = cert_nets["sinsum"]
    has_sparse_layer(net)
    rng = np.random.default_rng(73)
    for K in (k for k in net._kernels if issparse(k)):
        for nb in (1, 7, 256):
            Z = rng.uniform(-1, 1, size=(K.shape[1], nb))
            y = np.zeros(K.shape[0] * nb)
            csr_matvecs(K.shape[0], K.shape[1], nb, K.indptr, K.indices, K.data,
                        Z.ravel(), y)
            assert np.array_equal(y.reshape(-1, nb), K @ Z)


def test_concurrent_first_evaluations_match_a_serial_one(cert_nets):
    # user threads race to build the kernel cache of a fresh network and
    # share the chunk pool; each must get the serial bits
    base = cert_nets["product2"]
    X = np.random.default_rng(79).uniform(0, 1, size=(1500, base.arch.in_dim))
    ref = base.eval_batch(X)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            net = Network(base.arch, base.weights, base.biases)
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
    # the parent's pool threads do not exist in a forked child; a child that
    # submitted to that pool would wait forever
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
    assert has_sparse_layer(net)
    L1 = net.arch.L1
    for rows in (0, 1, 255, 256, 257, 4000):
        X = np.random.default_rng(rows).uniform(0, 1, size=(rows, 2))
        z = net.encoder_batch(X)
        assert_matches_dense(z, dense_forward(net, X, 0, L1))
        assert_matches_dense(net.decoder_batch(z),
                             dense_forward(net, z, L1, net.arch.L + 1))
    assert all(type(w) is np.ndarray for w in net.weights)


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
