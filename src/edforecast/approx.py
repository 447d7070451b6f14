"""Constructive ReLU approximation with certified error bounds.

The building blocks mirror the classic sawtooth construction:

* ``mult_net(m)`` computes, exactly as a network,

      mult_m(x, y) = ( sum_{k=1..m+1} [R^k((x-y+1)/2) - R^k((x+y)/2)]
                       + (x+y)/2 - 1/4 )_+

  with R^k = T^k o ... o T^1 and T^k(z) = min(z/2, 2^(1-2k) - z/2);
  it satisfies |mult_m(x,y) - x y| <= 2^-m on [0,1]^2.
* ``multiprod_net(m, t)`` multiplies t factors through a binary tree of
  mult gadgets padded with constant ones; error <= t^2 2^-m.
* ``hat_net`` localizes around a grid point via tent functions
  I_c(z) = (1/M - |z - c|)_+ multiplied together.
* ``build_approximator`` assembles local Taylor polynomials, hats and a
  final affine rescale into one network approximating a smooth function,
  and returns a certificate with the provable sup-norm/Lipschitz/size
  bounds next to measured values.

Builders are pure; verification is vectorized over evaluation grids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ConfigError
from .network import (
    Network,
    compose,
    deepen,
    identity_network,
    lipschitz_empirical,
    parallel,
    postcompose_affine,
    precompose_affine,
)

HOLDER_POINTS, FD_STEP = 256, 1e-6  # validate_holder's sample size and difference step
# build_approximator's largest evaluation lattice (a larger one is replaced by a
# seeded uniform sample of this many points) and its sample pairs of each kind
GRID_CAP, PAIR_SAMPLES = 1_000_000, 4000


class PlanError(ConfigError):
    """A plan or stage layout that cannot build the requested network."""


@dataclass(frozen=True)
class HolderFunction:
    """A smooth target bundled with its analytic partial derivatives.

    ``f`` and every entry of ``partials`` are batched callables mapping an
    (n, t) array of points in [0,1]^t to an (n,) array.  ``partials`` must
    cover every multi-index of order 1 <= |alpha| < beta; order zero is
    ``f`` itself.  ``K`` is the declared smoothness radius: |f| <= K on the
    domain, and the local Taylor coefficients scale with K.
    """

    t: int
    beta: float
    K: float
    f: Callable[[np.ndarray], np.ndarray]
    partials: dict
    name: str = "custom"

    def __post_init__(self):
        if self.t < 1 or self.beta < 1 or self.K <= 0:
            raise ValueError("need t >= 1, beta >= 1, K > 0")
        needed = [a for a in multi_indices(self.t, self.beta) if sum(a) > 0]
        missing = [a for a in needed if tuple(a) not in self.partials]
        if missing:
            raise ValueError(f"missing partial derivatives for {missing}")

    def partial_at(self, alpha, a) -> float:
        a = np.asarray(a, dtype=np.float64).reshape(1, -1)
        if sum(alpha) == 0:
            return float(self.f(a)[0])
        return float(self.partials[tuple(alpha)](a)[0])


def multi_indices(t: int, beta: float):
    """All multi-indices gamma in N_0^t with |gamma| < beta."""
    kmax = math.ceil(beta) - 1
    out = [g for g in itertools.product(range(kmax + 1), repeat=t) if sum(g) <= kmax]
    return sorted(out)


def validate_holder(hf: HolderFunction) -> dict:
    """Spot-check |f| <= K on HOLDER_POINTS seed-0 uniform points and first
    partials by central differences of step FD_STEP.

    The derivative comparison is diagnostic only (1e-3 tolerance on interior
    points); the bound check is authoritative for the sampled points.
    """
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(HOLDER_POINTS, hf.t))
    vals = np.asarray(hf.f(pts), dtype=np.float64)
    max_abs = float(np.max(np.abs(vals)))
    report = {"max_abs_f": max_abs, "bound_ok": max_abs <= hf.K * (1 + 1e-12)}
    inner = pts.clip(2 * FD_STEP, 1 - 2 * FD_STEP)
    fd_ok = True
    worst = 0.0
    for j in range(hf.t):
        alpha = tuple(1 if i == j else 0 for i in range(hf.t))
        if alpha not in hf.partials:
            continue
        hi = inner.copy()
        lo = inner.copy()
        hi[:, j] += FD_STEP
        lo[:, j] -= FD_STEP
        fd = (np.asarray(hf.f(hi)) - np.asarray(hf.f(lo))) / (2 * FD_STEP)
        exact = np.asarray(hf.partials[alpha](inner))
        err = float(np.max(np.abs(fd - exact)))
        worst = max(worst, err)
        fd_ok = fd_ok and err <= 1e-3 * max(1.0, hf.K)
    report["fd_max_err"] = worst
    report["fd_ok"] = fd_ok
    return report


@dataclass(frozen=True)
class ApproxPlan:
    """Size parameters (N, m) of the constructive approximation.

    For a target with t arguments, the derived grid resolution M is the
    largest integer with (M+1)^t <= N, and the coefficient normalizer is
    B = ceil(2 K e^t).
    """

    N: int
    m: int

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise PlanError(f"need N >= 1 and m >= 1, got N={self.N}, m={self.m}")

    def grid_resolution(self, t: int) -> int:
        M = max(1, int(round(self.N ** (1.0 / t))) + 2)
        while (M + 1) ** t > self.N:
            M -= 1
        if M < 1:
            raise PlanError(f"N={self.N} too small for a grid in dimension t={t}")
        return M

    def validate_for(self, hf: HolderFunction) -> None:
        need = max((hf.beta + 1.0) ** hf.t, (hf.K + 1.0) * math.e ** hf.t)
        if self.N < need:
            raise PlanError(
                f"N={self.N} below the size requirement "
                f"max((beta+1)^t, (K+1) e^t) = {need:.6g} "
                f"for beta={hf.beta}, K={hf.K}, t={hf.t}"
            )


def b_constant(K: float, t: int) -> int:
    return math.ceil(2.0 * K * math.e ** t)


# -- elementary gadgets ----------------------------------------------------


def _selector(indices, dim: int) -> np.ndarray:
    """Matrix whose row k picks coordinate indices[k] of a dim-vector."""
    return np.eye(dim)[list(indices)]


def mult_net(m: int) -> Network:
    """Explicit network computing mult_m on two inputs; m+2 hidden layers.

    Hidden state per stage: the sawtooth excess/pass/accumulator triple for
    each of the two arguments plus one carried copy of (x+y)/2.  One hidden
    layer advances one T^k stage because the affine part of the next layer
    reconstitutes T^k(z) = z/2 - relu(z - 2^(1-2k)) from the stored pair.
    """
    if m < 1:
        raise PlanError("m must be >= 1")
    width = 7
    idx = {"h_u": 0, "p_u": 1, "a_u": 2, "h_w": 3, "p_w": 4, "a_w": 5, "wk": 6}
    c = [2.0 ** (1 - 2 * k) for k in range(1, m + 2)]

    w0 = np.zeros((width, 2))
    b0 = np.zeros(width)
    w0[idx["h_u"]] = (0.5, -0.5)
    b0[idx["h_u"]] = c[0] - 0.5
    w0[idx["p_u"]] = (0.5, -0.5)
    b0[idx["p_u"]] = -0.5
    w0[idx["h_w"]] = (0.5, 0.5)
    b0[idx["h_w"]] = c[0]
    w0[idx["p_w"]] = (0.5, 0.5)
    w0[idx["wk"]] = (0.5, 0.5)
    weights = [w0]
    biases = [b0]

    for k in range(2, m + 2):
        w = np.zeros((width, width))
        b = np.zeros(width)
        for side in ("u", "w"):
            h, p, a = idx[f"h_{side}"], idx[f"p_{side}"], idx[f"a_{side}"]
            # previous sawtooth value: r = p/2 - h
            w[h, p], w[h, h] = 0.5, -1.0
            b[h] = c[k - 1]
            w[p, p], w[p, h] = 0.5, -1.0
            w[a, p], w[a, h], w[a, a] = 0.5, -1.0, 1.0
        w[idx["wk"], idx["wk"]] = 1.0
        weights.append(w)
        biases.append(b)

    w_last = np.zeros((1, width))
    for sign, side in ((1.0, "u"), (-1.0, "w")):
        w_last[0, idx[f"a_{side}"]] = sign
        w_last[0, idx[f"p_{side}"]] = 0.5 * sign
        w_last[0, idx[f"h_{side}"]] = -sign
    w_last[0, idx["wk"]] = 1.0
    weights.append(w_last)
    biases.append(np.array([0.25]))
    weights.append(np.array([[1.0]]))
    return Network(weights, biases)


def multiprod_net(m: int, t: int) -> Network:
    """Product of t factors via a binary tree of mult gadgets.

    The identity for t = 1; otherwise inputs are padded with constant ones
    up to the next power of two, wired as bias-only units.
    """
    if t < 1:
        raise PlanError("t must be >= 1")
    if t == 1:
        return identity_network(1)
    q = math.ceil(math.log2(t))
    full = 2 ** q
    stages = []
    if full != t:
        w0 = np.eye(full, t)
        bias = np.zeros(full)
        bias[t:] = -1.0
        stages.append(Network([w0, np.eye(full)], [bias]))
    width, mult = full, mult_net(m)
    while width > 1:
        stages.append(parallel([precompose_affine(mult, _selector([2 * i, 2 * i + 1], width))
                                for i in range(width // 2)]))
        width //= 2
    net = stages[0]
    for stage in stages[1:]:
        net = compose(stage, net)
    return net


def hat_net(center, M: int, m: int, t: int, prod: Network) -> Network:
    """Localized bump around a grid point: the product of per-coordinate
    tents I_c(z) = (1/M - |z - c|)_+; vanishes (up to t^2 2^-m) outside the
    sup-ball of radius 1/M.  ``prod`` is ``multiprod_net(m, t)``, which
    multiplies the tents when t > 1."""
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    if center.shape[0] != t:
        raise PlanError(f"center has dim {center.shape[0]}, expected t={t}")
    scaled = center * M
    if (np.any(np.abs(scaled - np.round(scaled)) > 1e-9)
            or np.any(center < -1e-12) or np.any(center > 1.0 + 1e-12)):
        raise PlanError(f"center {center} is not on the 1/{M} grid in [0,1]^{t}")
    w0 = np.zeros((2 * t, t))
    b0 = np.zeros(2 * t)
    for j in range(t):
        w0[2 * j, j] = 1.0
        b0[2 * j] = center[j]
        w0[2 * j + 1, j] = -1.0
        b0[2 * j + 1] = -center[j]
    w1 = np.zeros((t, 2 * t))
    b1 = np.full(t, -1.0 / M)
    for j in range(t):
        w1[j, 2 * j] = -1.0
        w1[j, 2 * j + 1] = -1.0
    tents = Network([w0, w1, np.eye(t)], [b0, b1])
    if t == 1:
        return tents
    return compose(prod, tents)


def _constant_one_net(in_dim: int, L: int) -> Network:
    """Depth-L network emitting the constant 1 regardless of its input."""
    weights = [np.zeros((1, in_dim))] + [np.eye(1) for _ in range(L)]
    biases = [np.array([-1.0])] + [np.zeros(1) for _ in range(L - 1)]
    return Network(weights, biases)


# -- Taylor patches --------------------------------------------------------


def taylor_monomial_coeffs(hf: HolderFunction, a) -> dict:
    """Coefficients c_gamma(a) of the local Taylor polynomial of hf at a,
    re-expanded in the raw monomial basis y^gamma."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    gammas = multi_indices(hf.t, hf.beta)
    coeffs = {g: 0.0 for g in gammas}
    for alpha in gammas:
        dval = hf.partial_at(alpha, a)
        if dval == 0.0:
            continue
        fact = 1.0
        for aj in alpha:
            fact *= math.factorial(aj)
        base = dval / fact
        for gamma in itertools.product(*(range(aj + 1) for aj in alpha)):
            factor = 1.0
            for gj, aj, av in zip(gamma, alpha, a):
                factor *= math.comb(aj, gj) * (-av) ** (aj - gj)
            coeffs[tuple(gamma)] += base * factor
    return coeffs


def _lattice(axis: np.ndarray, t: int) -> np.ndarray:
    """All points of axis^t as rows, the last coordinate varying fastest."""
    mesh = np.meshgrid(*([axis] * t), indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1)


def _eval_grid(t: int, per_axis: int, cap: int, seed: int = 0):
    total = per_axis ** t
    if total <= cap:
        pts = _lattice(np.linspace(0.0, 1.0, per_axis), t)
        spec = {"kind": "lattice", "per_axis": per_axis, "points": total}
    else:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(cap, t))
        spec = {"kind": "uniform_sample", "points": cap,
                "note": f"lattice of {total} points exceeded the cap"}
    return pts, spec


def sup_error_bound(N: int, m: int, t: int, beta: float, K: float) -> float:
    return ((2 * K + 1) * (1 + t ** 2 + beta ** 2) * 6 ** t * N * 2.0 ** (-m)
            + K * 3.0 ** beta * N ** (-beta / t))


def lipschitz_bound(N: int, m: int, t: int, beta: float, K: float, F: float) -> float:
    return 2 * beta * F * (K + 1) * math.e ** t \
        * (24 * t ** 6 * 2 ** t * N * 2.0 ** (-m) + 3 * t)


def depth_budget(m: int, t: int, beta: float) -> int:
    return 8 + (m + 5) * (1 + math.ceil(math.log2(max(t, beta))))


def size_budget(N: int, m: int, t: int, beta: float) -> float:
    return 141 * (t + beta + 1) ** (3 + t) * N * (m + 6)


def build_approximator(hf: HolderFunction, plan: ApproxPlan,
                       f_bound: float | None = None, seed: int = 0):
    """Assemble the network approximant of ``hf`` and verify its bounds.

    The network sums, over all grid cells, the approximate product of a
    normalized local Taylor value and a localized hat, then rescales.  The
    returned certificate reports the certified sup-norm and Lipschitz
    bounds together with values measured on an evaluation grid of at most
    GRID_CAP points and on PAIR_SAMPLES sample pairs of each kind, plus the
    depth/size budgets.
    """
    plan.validate_for(hf)
    t, beta, K = hf.t, hf.beta, hf.K
    N, m = plan.N, plan.m
    M = plan.grid_resolution(t)
    B = b_constant(K, t)
    holder_report = validate_holder(hf)
    if not holder_report["bound_ok"]:
        raise PlanError(
            f"|{hf.name}| exceeds its declared radius K={K}: "
            f"sampled max {holder_report['max_abs_f']:.6g}"
        )

    centers = _lattice(np.arange(M + 1) / M, t)
    gammas = multi_indices(t, beta)
    gam_pos = [g for g in gammas if sum(g) > 0]
    zero_gamma = tuple(0 for _ in range(t))

    prods = {k: multiprod_net(m, k) for k in {sum(g) for g in gam_pos} | {t}}  # each built once
    monomials = []
    for g in gam_pos:
        reps = [j for j in range(t) for _ in range(g[j])]
        monomials.append(precompose_affine(prods[len(reps)], _selector(reps, t)))
    hats = [hat_net(c, M, m, t, prods[t]) for c in centers]

    subs = monomials + hats
    trunk_depth = max(s.arch.L for s in subs)
    trunk = parallel([deepen(s, trunk_depth) for s in subs])
    G, P = len(monomials), len(centers)

    proto = mult_net(m)
    copies = []
    for l, center in enumerate(centers):
        coeffs = taylor_monomial_coeffs(hf, center)
        row_a = np.zeros(G + P)
        for gi, g in enumerate(gam_pos):
            row_a[gi] = coeffs[g] / B
        const_a = coeffs[zero_gamma] / B + 0.5
        row_b = np.zeros(G + P)
        row_b[G + l] = 1.0
        copies.append(precompose_affine(
            proto, np.vstack([row_a, row_b]), offset=np.array([const_a, 0.0])
        ))
    head = parallel(copies + [_constant_one_net(G + P, proto.arch.L)])
    scale = float(B) * float(M) ** t
    out_row = np.concatenate([np.full(P, scale), [-B / 2.0]])[None, :]
    head = postcompose_affine(head, out_row)
    net = compose(head, trunk)

    pts, grid_spec = _eval_grid(t, 10 * M + 1, GRID_CAP, seed=seed)
    approx_vals = net.eval_batch(pts)[:, 0]
    true_vals = np.asarray(hf.f(pts), dtype=np.float64)
    measured_sup = float(np.max(np.abs(approx_vals - true_vals)))

    rng = np.random.default_rng(seed + 1)
    X = rng.uniform(0.0, 1.0, size=(PAIR_SAMPLES, t))
    Xp = np.clip(X + rng.uniform(-0.5 / M, 0.5 / M, size=X.shape), 0.0, 1.0)
    Xq = rng.uniform(0.0, 1.0, size=(PAIR_SAMPLES, t))
    measured_lip = max(lipschitz_empirical(net, X, Xp),
                       lipschitz_empirical(net, X, Xq))

    F = f_bound if f_bound is not None else K
    certificate = {
        "target": hf.name,
        "t": t, "beta": beta, "K": K, "N": N, "m": m, "M": M, "B": B,
        "sup_bound": sup_error_bound(N, m, t, beta, K),
        "measured_sup": measured_sup,
        "lip_bound": lipschitz_bound(N, m, t, beta, K, F),
        "measured_lip": measured_lip,
        "depth": net.arch.L,
        "depth_bound": depth_budget(m, t, beta),
        "sparsity": net.sparsity(),
        "sparsity_bound": size_budget(N, m, t, beta),
        "grid_spec": grid_spec,
        "holder_check": holder_report,
    }
    return net, certificate


# -- encoder-decoder assembly ----------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    """One stage of the compress/expand factorization.

    Each component is a pair (HolderFunction, argument indices): the
    component reads only those coordinates of the stage input.  The stage
    output stacks the component values.
    """

    in_dim: int
    components: tuple

    def __post_init__(self):
        for hf, args in self.components:
            if len(args) != hf.t:
                raise PlanError(
                    f"component {hf.name} has t={hf.t} but {len(args)} argument indices"
                )
            if any(not 0 <= a < self.in_dim for a in args):
                raise PlanError(f"argument indices {args} outside 0..{self.in_dim - 1}")

    @property
    def out_dim(self) -> int:
        return len(self.components)


def build_stage(stage: StageSpec, plan: ApproxPlan, f_bound=None, seed=0):
    nets, certs = [], []
    for hf, args in stage.components:
        net, cert = build_approximator(hf, plan, f_bound=f_bound, seed=seed)
        nets.append(precompose_affine(net, _selector(args, stage.in_dim)))
        certs.append(cert)
    depth = max(n.arch.L for n in nets)
    return parallel([deepen(n, depth) for n in nets]), certs


def build_encoder_decoder(enc0: StageSpec, enc1: StageSpec, dec: StageSpec,
                          plans, L1_target: int, L_target: int,
                          f_bound=None, eval_points: int = 4096, seed: int = 0):
    """Compose stage approximators with the bottleneck at layer L1_target.

    ``plans`` is one ApproxPlan shared by all stages or a triple
    (plan_enc0, plan_enc1, plan_dec).  The two encoder stages are fused and
    padded so that the compressed representation sits exactly at hidden
    layer L1_target with width equal to the middle stage's output; identity
    padding behind the bottleneck stretches total depth to L_target.
    """
    if isinstance(plans, ApproxPlan):
        plans = (plans, plans, plans)
    plan0, plan1, plan_dec = plans
    if enc1.in_dim != enc0.out_dim:
        raise PlanError(
            f"stage chain broken: enc0 emits {enc0.out_dim}, enc1 expects {enc1.in_dim}"
        )
    if dec.in_dim != enc1.out_dim:
        raise PlanError(
            f"stage chain broken: enc1 emits {enc1.out_dim}, dec expects {dec.in_dim}"
        )
    d_tilde = enc1.out_dim

    net0, certs0 = build_stage(enc0, plan0, f_bound=f_bound, seed=seed)
    net1, certs1 = build_stage(enc1, plan1, f_bound=f_bound, seed=seed)
    net_dec, certs_dec = build_stage(dec, plan_dec, f_bound=f_bound, seed=seed)

    encoder = compose(net1, net0)
    if L1_target < encoder.arch.L + 1:
        raise PlanError(
            f"L1_target={L1_target} too small: encoder stages need depth "
            f"{encoder.arch.L + 1}"
        )
    if L_target - L1_target < net_dec.arch.L:
        raise PlanError(
            f"L_target={L_target} too small: decoder stage needs depth "
            f"{net_dec.arch.L} behind the bottleneck at {L1_target}"
        )
    encoder = deepen(encoder, L1_target - 1)
    net_dec = deepen(net_dec, L_target - L1_target)
    assembled = compose(net_dec, encoder, interface="relu").with_l1(L1_target)
    assert assembled.arch.L == L_target
    assert assembled.arch.p[L1_target] == d_tilde

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(eval_points, enc0.in_dim))

    def truth(X):
        z0 = np.stack([np.asarray(hf.f(X[:, list(args)])) for hf, args in enc0.components], axis=1)
        z1 = np.stack([np.asarray(hf.f(z0[:, list(args)])) for hf, args in enc1.components], axis=1)
        return np.stack([np.asarray(hf.f(z1[:, list(args)])) for hf, args in dec.components], axis=1)

    measured = float(np.max(np.abs(assembled.eval_batch(pts) - truth(pts))))
    stage_bounds = [
        max(c["sup_bound"] for c in certs)
        for certs in (certs0, certs1, certs_dec)
    ]
    certificate = {
        "stage_bounds": stage_bounds,
        "combined_bound": float(sum(stage_bounds)),
        "measured_sup": measured,
        "bottleneck_layer": L1_target,
        "bottleneck_width": d_tilde,
        "depth": assembled.arch.L,
        "sparsity": assembled.sparsity(),
        "stage_certificates": {"enc0": certs0, "enc1": certs1, "dec": certs_dec},
        "eval_points": eval_points,
    }
    return assembled, certificate


# -- analytic catalog ------------------------------------------------------


def _as_batch(fn):
    def wrapped(X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return fn(X)
    return wrapped


def catalog() -> dict:
    """Built-in targets with analytic partials for certification runs."""
    zero = HolderFunction(
        t=1, beta=2.0, K=1.0, name="zero",
        f=_as_batch(lambda X: np.zeros(X.shape[0])),
        partials={(1,): _as_batch(lambda X: np.zeros(X.shape[0]))},
    )
    linear = HolderFunction(
        t=1, beta=2.0, K=2.0, name="linear",
        f=_as_batch(lambda X: X[:, 0]),
        partials={(1,): _as_batch(lambda X: np.ones(X.shape[0]))},
    )
    product2 = HolderFunction(
        t=2, beta=2.0, K=2.0, name="product2",
        f=_as_batch(lambda X: X[:, 0] * X[:, 1]),
        partials={
            (1, 0): _as_batch(lambda X: X[:, 1]),
            (0, 1): _as_batch(lambda X: X[:, 0]),
        },
    )
    sinsum = HolderFunction(
        t=2, beta=2.0, K=2.0, name="sinsum",
        f=_as_batch(lambda X: 0.5 * np.sin(X[:, 0] + X[:, 1])),
        partials={
            (1, 0): _as_batch(lambda X: 0.5 * np.cos(X[:, 0] + X[:, 1])),
            (0, 1): _as_batch(lambda X: 0.5 * np.cos(X[:, 0] + X[:, 1])),
        },
    )
    return {f.name: f for f in (zero, linear, product2, sinsum)}
