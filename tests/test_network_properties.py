"""Property tests: the network algebra and the JSON round-trip keep function
values on random small networks and inputs."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from edforecast.network import (
    Architecture,
    Network,
    compose,
    deepen,
    from_dict,
    parallel,
    postcompose_affine,
    precompose_affine,
    to_dict,
)

TOL = 1e-12
# a fixed example sequence and no example database: the suite stays reproducible
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(1, 4)
depths = st.integers(0, 3)


def random_net(rng, in_dim: int, out_dim: int, L: int) -> Network:
    p = (in_dim,) + tuple(int(v) for v in rng.integers(1, 6, size=L)) + (out_dim,)
    weights = [rng.uniform(-1.0, 1.0, size=(p[i + 1], p[i])) for i in range(L + 1)]
    biases = [rng.uniform(-0.5, 0.5, size=p[i + 1]) for i in range(L)]
    return Network(Architecture(L, p), weights, biases)


def inputs(rng, dim: int, low: float = -2.0) -> np.ndarray:
    return rng.uniform(low, 2.0, size=(int(rng.integers(1, 20)), dim))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL)


@PROPERTY
@given(seed=seeds, d_in=dims, q=dims, d_out=dims, L_f=depths, L_g=depths)
def test_compose_split_is_exact_everywhere(seed, d_in, q, d_out, L_f, L_g):
    rng = np.random.default_rng(seed)
    f, g = random_net(rng, q, d_out, L_f), random_net(rng, d_in, q, L_g)
    X = inputs(rng, d_in)
    assert_close(compose(f, g).eval_batch(X), f.eval_batch(g.eval_batch(X)))


@PROPERTY
@given(seed=seeds, d_in=dims, q=dims, d_out=dims, L_f=depths, L_g=st.integers(1, 3))
def test_compose_relu_is_exact_on_nonnegative_interface(seed, d_in, q, d_out, L_f, L_g):
    rng = np.random.default_rng(seed)
    f, g = random_net(rng, q, d_out, L_f), random_net(rng, d_in, q, L_g)
    # a nonnegative output map over ReLU activations: g(x) >= 0 for every x
    g = Network(g.arch, g.weights[:-1] + [np.abs(g.weights[-1])], g.biases)
    X = inputs(rng, d_in)
    assert_close(compose(f, g, interface="relu").eval_batch(X),
                 f.eval_batch(g.eval_batch(X)))


@PROPERTY
@given(seed=seeds, d_in=dims, L=depths, outs=st.lists(dims, min_size=1, max_size=3))
def test_parallel_stacks_outputs(seed, d_in, L, outs):
    rng = np.random.default_rng(seed)
    nets = [random_net(rng, d_in, d_out, L) for d_out in outs]
    X = inputs(rng, d_in)
    assert_close(parallel(nets).eval_batch(X), np.hstack([n.eval_batch(X) for n in nets]))


@PROPERTY
@given(seed=seeds, d_in=dims, d_out=dims, L=depths, extra=st.integers(0, 3))
def test_deepen_is_exact_on_nonnegative_inputs(seed, d_in, d_out, L, extra):
    rng = np.random.default_rng(seed)
    net = random_net(rng, d_in, d_out, L)
    X = inputs(rng, d_in, low=0.0)
    deep = deepen(net, L + extra)
    assert deep.arch.L == L + extra
    assert_close(deep.eval_batch(X), net.eval_batch(X))


@PROPERTY
@given(seed=seeds, d_in=dims, d_new=dims, d_out=dims, L=depths, k=dims)
def test_pre_and_postcompose_affine(seed, d_in, d_new, d_out, L, k):
    rng = np.random.default_rng(seed)
    net = random_net(rng, d_in, d_out, L)
    A = rng.uniform(-1.0, 1.0, size=(d_in, d_new))
    # a depth-0 network has no bias to absorb an input offset
    offset = rng.uniform(-1.0, 1.0, size=d_in) if L > 0 else None
    C = rng.uniform(-1.0, 1.0, size=(k, d_out))
    X = inputs(rng, d_new)
    shifted = X @ A.T + (0.0 if offset is None else offset)
    assert_close(precompose_affine(net, A, offset).eval_batch(X), net.eval_batch(shifted))
    Y = inputs(rng, d_in)
    assert_close(postcompose_affine(net, C).eval_batch(Y), net.eval_batch(Y) @ C.T)


@PROPERTY
@given(seed=seeds, d_in=dims, d_out=dims, L=depths)
def test_dict_roundtrip_through_json(seed, d_in, d_out, L):
    rng = np.random.default_rng(seed)
    net = random_net(rng, d_in, d_out, L).with_l1(1 if L > 0 else None)
    back = from_dict(json.loads(json.dumps(to_dict(net))))
    assert back.arch == net.arch
    X = inputs(rng, d_in)
    assert_close(back.eval_batch(X), net.eval_batch(X))


def grouped_net(rng, d: int, L: int) -> Network:
    """A random d -> d net built by ``parallel`` from d sparse d -> 1 nets,
    all but the last of them equal, so that each layer after the first holds
    one block repeated over copies, when d > 1."""
    def one():
        net = random_net(rng, d, 1, L)
        keep = rng.uniform(0.02, 1.0)
        weights = [np.where(rng.uniform(size=w.shape) < keep, w, 0.0) for w in net.weights]
        return Network(net.arch, weights, net.biases)

    return parallel([one()] * (d - 1) + [one()])


@PROPERTY
@given(seed=seeds, d=dims, L=depths)
def test_combinators_on_grouped_layers_match_them_on_the_dense_views(seed, d, L):
    rng = np.random.default_rng(seed)
    grouped = [grouped_net(rng, d, L) for _ in range(3)]
    views = [Network(n.arch, n.weights, n.biases) for n in grouped]
    A = rng.uniform(-1.0, 1.0, size=(d, d + 1))
    offset = rng.uniform(-1.0, 1.0, size=d) if L > 0 else None
    C = rng.uniform(-1.0, 1.0, size=(2, d))
    builds = {
        "compose": lambda nets: compose(nets[0], nets[1]),
        "compose_relu": lambda nets: compose(nets[0], nets[1], interface="relu"),
        "parallel": parallel,
        "deepen": lambda nets: deepen(nets[0], L + 2),
        "precompose": lambda nets: precompose_affine(nets[0], A, offset),
        "postcompose": lambda nets: postcompose_affine(nets[0], C),
        "with_l1": lambda nets: nets[0].with_l1(1 if L > 0 else None),
    }
    for name, build in builds.items():
        got, want = build(grouped), build(views)
        assert got.arch == want.arch, name
        if L > 0 and d > 1 and name in ("compose", "compose_relu", "deepen", "with_l1"):
            assert got._grouped, name  # the grouped layers are passed on as groups
        assert len(got.weights) == len(want.weights)
        for w, ref in zip(got.weights, want.weights):
            assert type(w) is np.ndarray and np.array_equal(w, ref), name
        X = inputs(rng, got.arch.in_dim)
        assert_close(got.eval_batch(X), want.eval_batch(X))
        assert got.sparsity() == want.sparsity(), name
        assert to_dict(got) == to_dict(want), name
