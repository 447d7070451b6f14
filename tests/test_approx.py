"""Constructive approximation gadgets and certified builds."""

import math

import numpy as np
import pytest

from edforecast.approx import (
    ApproxPlan,
    HolderFunction,
    PlanError,
    StageSpec,
    _as_batch,
    _eval_grid,
    b_constant,
    build_approximator,
    build_encoder_decoder,
    catalog,
    depth_budget,
    hat_net,
    mult_net,
    multi_indices,
    multiprod_net,
    size_budget,
    taylor_monomial_coeffs,
    validate_holder,
)
from edforecast.network import identity_network


# independent oracle for the sawtooth recursion
def tooth(k, x):
    return min(x / 2.0, 2.0 ** (1 - 2 * k) - x / 2.0)


def ramp_chain(k, x):
    for j in range(1, k + 1):
        x = tooth(j, x)
    return x


def mult_formula(x, y, m):
    u = (x - y + 1.0) / 2.0
    w = (x + y) / 2.0
    s = sum(ramp_chain(k, u) - ramp_chain(k, w) for k in range(1, m + 2))
    return max(s + w - 0.25, 0.0)


# -- mult gadget -------------------------------------------------------------


def test_mult_net_is_the_formula():
    rng = np.random.default_rng(0)
    for m in (1, 3, 10):
        net = mult_net(m)
        pts = rng.uniform(0, 1, size=(300, 2))
        out = net.eval_batch(pts)[:, 0]
        ref = np.array([mult_formula(x, y, m) for x, y in pts])
        assert np.max(np.abs(out - ref)) <= 1e-12


def test_mult_hand_examples():
    net = mult_net(10)
    assert abs(net.eval_batch([[1.0, 1.0]])[0, 0] - 1.0) <= 2.0 ** -10
    v = net.eval_batch([[0.0, 0.0]])[0, 0]
    assert 0.0 <= v <= 2.0 ** -10
    net3 = mult_net(3)
    assert net3.eval_batch([[0.5, 0.5]])[0, 0] == pytest.approx(mult_formula(0.5, 0.5, 3), abs=1e-12)


@pytest.mark.parametrize("m", [3, 6, 10])
def test_mult_lattice_bound(m):
    net = mult_net(m)
    ax = np.linspace(0, 1, 201)
    X, Y = np.meshgrid(ax, ax)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    out = net.eval_batch(pts)[:, 0]
    err = np.max(np.abs(out - pts[:, 0] * pts[:, 1]))
    assert err <= 2.0 ** -m


def test_mult_rejects_bad_m():
    with pytest.raises(PlanError):
        mult_net(0)


# -- multiprod ---------------------------------------------------------------


def test_multiprod_t1_is_identity():
    net = multiprod_net(5, 1)
    xs = np.linspace(0, 1, 11)[:, None]
    assert np.array_equal(net.eval_batch(xs), xs)


def test_multiprod_hand_point():
    net = multiprod_net(10, 3)
    val = net.eval_batch([[0.5, 0.5, 0.5]])[0, 0]
    assert abs(val - 0.125) <= 9 * 2.0 ** -10


@pytest.mark.parametrize("t,m", [(2, 4), (2, 8), (3, 4), (3, 8), (4, 4), (4, 8)])
def test_multiprod_lattice_bound(t, m):
    net = multiprod_net(m, t)
    per_axis = {2: 41, 3: 15, 4: 11}[t]
    axes = [np.linspace(0, 1, per_axis)] * t
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=1)
    out = net.eval_batch(pts)[:, 0]
    err = np.max(np.abs(out - np.prod(pts, axis=1)))
    assert err <= t * t * 2.0 ** -m


# -- hats --------------------------------------------------------------------


def test_hat_peak_value():
    t, M, m = 2, 3, 8
    center = np.array([1 / 3, 2 / 3])
    net = hat_net(center, M, m, t, multiprod_net(m, t))
    peak = net.eval_batch([center])[0, 0]
    assert abs(peak - (1.0 / M) ** t) <= t * t * 2.0 ** -m


def test_hat_vanishes_outside_ball():
    t, M, m = 2, 3, 8
    center = np.array([1 / 3, 1 / 3])
    net = hat_net(center, M, m, t, multiprod_net(m, t))
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(500, t))
    outside = np.max(np.abs(pts - center), axis=1) >= 1.0 / M
    vals = net.eval_batch(pts[outside])[:, 0]
    assert np.max(np.abs(vals)) <= t * t * 2.0 ** -m


def test_hat_t1_exact_tent():
    M = 4
    net = hat_net([0.5], M, 6, 1, multiprod_net(6, 1))
    assert net.eval_batch([[0.5]])[0, 0] == pytest.approx(1.0 / M, abs=1e-15)
    assert net.eval_batch([[0.5 + 1 / (2 * M)]])[0, 0] == pytest.approx(1 / (2 * M), abs=1e-15)
    assert net.eval_batch([[0.5 - 1 / (2 * M)]])[0, 0] == pytest.approx(1 / (2 * M), abs=1e-15)
    assert net.eval_batch([[0.80]])[0, 0] == 0.0


def test_hat_rejects_off_grid_center():
    with pytest.raises(PlanError):
        hat_net([0.21], 4, 6, 1, multiprod_net(6, 1))


# -- Taylor coefficients -------------------------------------------------------


def test_multi_indices_degree():
    assert multi_indices(2, 2.0) == [(0, 0), (0, 1), (1, 0)]
    assert multi_indices(1, 2.5) == [(0,), (1,), (2,)]


def test_taylor_coeffs_reproduce_polynomial():
    # f(x, y) = 0.3 + 0.5 x - 0.2 y is its own degree-1 Taylor expansion
    hf = HolderFunction(
        t=2, beta=2.0, K=2.0, name="affine",
        f=_as_batch(lambda X: 0.3 + 0.5 * X[:, 0] - 0.2 * X[:, 1]),
        partials={
            (1, 0): _as_batch(lambda X: np.full(X.shape[0], 0.5)),
            (0, 1): _as_batch(lambda X: np.full(X.shape[0], -0.2)),
        },
    )
    for a in ([0.0, 0.0], [0.5, 0.25], [1.0, 1.0]):
        coeffs = taylor_monomial_coeffs(hf, a)
        assert coeffs[(0, 0)] == pytest.approx(0.3, abs=1e-12)
        assert coeffs[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert coeffs[(0, 1)] == pytest.approx(-0.2, abs=1e-12)


def test_taylor_coeff_magnitudes_within_b():
    cat = catalog()
    hf = cat["product2"]
    B = b_constant(hf.K, hf.t)
    for a in ([0.0, 1.0], [1 / 3, 2 / 3]):
        coeffs = taylor_monomial_coeffs(hf, a)
        assert sum(abs(c) for c in coeffs.values()) <= B / 2


# -- full builds ---------------------------------------------------------------


def test_plan_validation_message_cites_requirement():
    cat = catalog()
    with pytest.raises(PlanError, match=r"\(beta\+1\)\^t"):
        build_approximator(cat["product2"], ApproxPlan(N=5, m=6))


def test_holder_bound_violation_rejected():
    liar = HolderFunction(
        t=1, beta=2.0, K=0.1, name="liar",
        f=_as_batch(lambda X: np.full(X.shape[0], 5.0)),
        partials={(1,): _as_batch(lambda X: np.zeros(X.shape[0]))},
    )
    with pytest.raises(PlanError, match="radius"):
        build_approximator(liar, ApproxPlan(N=9, m=4))


def test_build_zero_function_exact():
    cat = catalog()
    net, cert = build_approximator(cat["zero"], ApproxPlan(N=10, m=6))
    assert cert["measured_sup"] <= 1e-9
    assert cert["measured_sup"] <= cert["sup_bound"]


def test_build_linear_certificate():
    cat = catalog()
    net, cert = build_approximator(cat["linear"], ApproxPlan(N=10, m=8))
    assert cert["measured_sup"] <= cert["sup_bound"]
    assert cert["measured_lip"] <= cert["lip_bound"]
    assert cert["depth"] <= cert["depth_bound"]
    assert cert["sparsity"] <= cert["sparsity_bound"]
    # tent interpolation of the identity is tight up to mult error
    assert cert["measured_sup"] <= 1e-2


def test_build_product2_certificate_and_budgets():
    cat = catalog()
    net, cert = build_approximator(cat["product2"], ApproxPlan(N=23, m=8))
    assert cert["measured_sup"] <= cert["sup_bound"]
    assert cert["measured_lip"] <= cert["lip_bound"]
    assert cert["depth"] <= depth_budget(8, 2, 2.0)
    assert cert["sparsity"] <= size_budget(23, 8, 2, 2.0)
    assert cert["M"] == 3 and cert["B"] == b_constant(2.0, 2)


def test_validate_holder_fd_diagnostic():
    cat = catalog()
    report = validate_holder(cat["sinsum"])
    assert report["bound_ok"]
    assert report["fd_ok"]
    assert report["fd_max_err"] <= 1e-3


def test_eval_grid_samples_uniformly_over_the_cap():
    # a lattice of 11^3 = 1331 points over a cap of 500 becomes a seeded
    # uniform sample of 500 points in [0,1]^3
    pts, spec = _eval_grid(3, 11, 500, seed=4)
    assert spec == {"kind": "uniform_sample", "points": 500,
                    "note": "lattice of 1331 points exceeded the cap"}
    assert pts.shape == (500, 3)
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    assert np.array_equal(_eval_grid(3, 11, 500, seed=4)[0], pts)
    assert not np.array_equal(_eval_grid(3, 11, 500, seed=5)[0], pts)
    # at the cap the lattice itself is evaluated
    lattice, spec = _eval_grid(3, 11, 1331)
    assert spec == {"kind": "lattice", "per_axis": 11, "points": 1331}
    assert lattice.shape == (1331, 3)


# -- encoder-decoder assembly ---------------------------------------------------


def _affine_holder(c0, c1, name):
    return HolderFunction(
        t=1, beta=2.0, K=2.0, name=name,
        f=_as_batch(lambda X: c0 + c1 * X[:, 0]),
        partials={(1,): _as_batch(lambda X: np.full(X.shape[0], c1))},
    )


def test_encoder_decoder_identityish_stages():
    ident = _affine_holder(0.0, 1.0, "ident")
    enc0 = StageSpec(in_dim=2, components=((ident, (0,)), (ident, (1,))))
    enc1 = StageSpec(in_dim=2, components=((ident, (0,)), (ident, (1,))))
    dec = StageSpec(in_dim=2, components=((ident, (0,)), (ident, (1,))))
    plan = ApproxPlan(N=10, m=10)
    net, cert = build_encoder_decoder(enc0, enc1, dec, plan, L1_target=35, L_target=55)
    assert cert["measured_sup"] <= cert["combined_bound"]
    assert net.arch.L1 == 35
    assert net.arch.p[35] == 2


def test_encoder_decoder_additive_example():
    # compress two coordinates through their mean, then re-expand
    g1 = HolderFunction(
        t=1, beta=2.0, K=2.0, name="g1",
        f=_as_batch(lambda X: 0.5 * X[:, 0] ** 2),
        partials={(1,): _as_batch(lambda X: X[:, 0])},
    )
    g2 = _affine_holder(0.0, 0.5, "g2")
    mean2 = HolderFunction(
        t=2, beta=2.0, K=2.0, name="mean2",
        f=_as_batch(lambda X: 0.5 * (X[:, 0] + X[:, 1])),
        partials={
            (1, 0): _as_batch(lambda X: np.full(X.shape[0], 0.5)),
            (0, 1): _as_batch(lambda X: np.full(X.shape[0], 0.5)),
        },
    )
    dec1 = _affine_holder(0.0, 0.5, "dec1")
    dec2 = _affine_holder(0.1, 0.8, "dec2")
    enc0 = StageSpec(in_dim=2, components=((g1, (0,)), (g2, (1,))))
    enc1 = StageSpec(in_dim=2, components=((mean2, (0, 1)),))
    dec = StageSpec(in_dim=1, components=((dec1, (0,)), (dec2, (0,))))
    plans = (ApproxPlan(N=10, m=10), ApproxPlan(N=23, m=10), ApproxPlan(N=10, m=10))
    net, cert = build_encoder_decoder(enc0, enc1, dec, plans,
                                      L1_target=50, L_target=70)
    assert cert["measured_sup"] <= cert["combined_bound"]
    # structural inspection: the bottleneck layer has the compressed width
    assert net.arch.p[net.arch.L1] == 1
    assert net.arch.L == 70
    # encoder output approximates the true compression
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(50, 2))
    z_true = 0.5 * (0.5 * X[:, 0] ** 2 + 0.5 * X[:, 1])
    z_net = net.encoder_batch(X)[:, 0]
    assert np.max(np.abs(z_net - z_true)) <= cert["stage_bounds"][0] + cert["stage_bounds"][1]


def test_encoder_decoder_depth_errors():
    ident = _affine_holder(0.0, 1.0, "ident")
    enc0 = StageSpec(in_dim=1, components=((ident, (0,)),))
    enc1 = StageSpec(in_dim=1, components=((ident, (0,)),))
    dec = StageSpec(in_dim=1, components=((ident, (0,)),))
    plan = ApproxPlan(N=10, m=10)
    with pytest.raises(PlanError, match="L1_target"):
        build_encoder_decoder(enc0, enc1, dec, plan, L1_target=2, L_target=80)
    with pytest.raises(PlanError, match="L_target"):
        build_encoder_decoder(enc0, enc1, dec, plan, L1_target=40, L_target=41)


def test_stage_chain_mismatch():
    ident = _affine_holder(0.0, 1.0, "ident")
    enc0 = StageSpec(in_dim=2, components=((ident, (0,)),))
    enc1 = StageSpec(in_dim=2, components=((ident, (0,)),))
    dec = StageSpec(in_dim=1, components=((ident, (0,)),))
    with pytest.raises(PlanError, match="chain"):
        build_encoder_decoder(enc0, enc1, dec, ApproxPlan(N=10, m=8), 30, 60)
