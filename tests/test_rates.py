"""Dependence-rate calculus: conjugates, Lambda functions, entropy, N-selection."""

import math

import numpy as np
import pytest

from edforecast import NumericFailure
from edforecast.rates import (
    DependenceSpec,
    SmoothnessProfile,
    _first_index,
    _hurwitz_zeta,
    _psi_ceil_inverse,
    beta_dep,
    oracle_bound,
    c_alpha,
    choose_N,
    conjugate,
    envelope_shape,
    entropy_bound,
    fdm_exponential,
    fdm_polynomial,
    functional_delta,
    independent,
    lambda_dep,
    lambda_mix,
    mixing_exponential,
    mixing_polynomial,
    phi_exponential,
    predicted_rate,
    rate_envelope,
    rate_function,
    v_tilde,
)


# -- conjugate calculus -----------------------------------------------------


def ternary_conjugate(phi, y, tol=1e-12):
    # the former conjugate: a 1e-12 ternary search for the maximizer of y z - phi(z)
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while phi(2.0 * hi) - phi(hi) < y * hi:
        hi *= 2.0
    hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if y * m1 - phi(m1) < y * m2 - phi(m2):
            lo = m1
        else:
            hi = m2
    z = 0.5 * (lo + hi)
    return max(0.0, y * z - phi(z))


def increasing_inverse(fn, target, tol=1e-12):
    # the former psi^{-1}: a 1e-12 bisection on the continuous argument
    hi = 1.0
    while fn(hi) < target:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_mix_oracle(rho, x):
    # ceil(psi^{-1}(1/x)) x through the two nested numeric solvers above
    phi, _ = phi_exponential(rho)
    psi = lambda z: ternary_conjugate(phi, z) * z
    return math.ceil(increasing_inverse(psi, 1.0 / x)) * x


def test_conjugate_matches_polynomial_closed_form():
    for alpha in (1.5, 2.0, 3.0):
        expo = alpha / (alpha - 1.0)
        phi = lambda z: z ** expo
        dphi = lambda z: expo * z ** (expo - 1.0)
        for y in (0.1, 1.0, 7.3):
            closed = c_alpha(alpha) * y ** alpha
            num = conjugate(phi, dphi, y)
            assert abs(num - closed) <= 1e-9 * max(1.0, closed)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.99])
def test_conjugate_matches_ternary_search(rho):
    phi, dphi = phi_exponential(rho)
    for y in (1e-3, 0.5, 1.0, 3.0, 17.0, 250.0):
        assert conjugate(phi, dphi, y) == pytest.approx(ternary_conjugate(phi, y),
                                                        rel=1e-12)


# the rates benchmark's lambda grids: 3 points from 10^-e to 0.5 for each of
# its four grid lower ends, and the x of its oracle bound at n = 10^5
BENCH_XS = [float(x) for e in (5.0, 5.25, 5.5, 5.75)
            for x in np.logspace(math.log10(10.0 ** -e), math.log10(0.5), 3)]
BENCH_XS.append(18 * math.log(100_000) ** 3 / 100_000)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.99])
def test_lambda_mix_exponential_matches_nested_solvers(rho):
    spec = mixing_exponential(rho)
    xs = [float(x) for x in np.logspace(-9, 0, 60)] + BENCH_XS + [2.0, 10.0]
    for x in xs:
        assert lambda_mix(spec, x) == lambda_mix_oracle(rho, x)


def test_lambda_mix_hand_value_alpha2():
    # psi(z) = z^3/4, psi^{-1}(1) = 4^(1/3) ~ 1.587, ceil -> 2, Lambda(1) = 2
    spec = mixing_polynomial(2.0)
    assert lambda_mix(spec, 1.0) == 2.0


def test_lambda_mix_independent_is_identity():
    spec = independent()
    for x in np.logspace(-6, 1, 7):
        assert lambda_mix(spec, x) == x


@pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
def test_polynomial_envelope_pointwise(alpha):
    # Lambda(x) <= 2 C_alpha^{-1/(alpha+1)} (x^{alpha/(alpha+1)} or x)
    spec = mixing_polynomial(alpha)
    for x in np.logspace(-8, 2, 80):
        assert lambda_mix(spec, x) <= rate_envelope(spec, x) * (1 + 1e-9)


@pytest.mark.parametrize("rho", [0.3, 0.7, 0.9])
def test_exponential_envelope_pointwise(rho):
    spec = mixing_exponential(rho)
    for x in np.logspace(-6, 1, 40):
        assert lambda_mix(spec, x) <= rate_envelope(spec, x) * (1 + 1e-9)


def test_numeric_psi_inverse_agrees_with_polynomial_route():
    # the integer search of the exponential branch, run on the polynomial
    # phi, lands on the ceiling of the closed-form inverse
    alpha = 2.0
    expo = alpha / (alpha - 1.0)
    phi = lambda z: z ** expo
    dphi = lambda z: expo * z ** (expo - 1.0)
    for x in (0.03, 0.4, 2.0, 5.0, 10.0):
        closed = (1.0 / (x * c_alpha(alpha))) ** (1.0 / (alpha + 1.0))
        assert _psi_ceil_inverse(phi, dphi, 1.0 / x) == math.ceil(closed)


# -- functional dependence --------------------------------------------------


def test_lambda_dep_independent_identity():
    spec = independent()
    for x in np.logspace(-8, 1, 19):
        assert abs(lambda_dep(spec, x) - x) <= 1e-9 * max(1.0, x)


def test_v_tilde_matches_direct_sum():
    spec = fdm_exponential(0.5, kappa=2.0)
    for z in (1e-6, 0.01, 0.5, 4.0):
        direct = math.sqrt(z) + sum(
            min(math.sqrt(z), 2.0 * 0.5 ** j) for j in range(200)
        )
        assert v_tilde(spec, z) == pytest.approx(direct, rel=1e-12)


def test_v_tilde_polynomial_matches_direct_sum():
    spec = fdm_polynomial(2.0, kappa=2.0)
    j = np.arange(10 ** 6, dtype=float)
    rest = 2.0 * (10 ** 6 + 0.5) ** -1.0  # midpoint-rule tail beyond 10^6
    for z in (1e-6, 0.01, 0.5, 4.0):
        s = math.sqrt(z)
        direct = s + float(np.minimum(s, 2.0 * (j + 1.0) ** -2.0).sum()) + rest
        assert v_tilde(spec, z) == pytest.approx(direct, rel=1e-12)


def _brute_polynomial_tail(alpha, q):
    # 10,000 terms from q, then the midpoint-rule integral of the remainder
    head = sum((j + 1.0) ** -alpha for j in range(q, q + 10000))
    return head + (q + 10000 + 0.5) ** (1.0 - alpha) / (alpha - 1.0)


ZETA_ALPHAS = (1.1, 1.5, 2.0, 4.0, 20.0)
ZETA_QS = (0, 1, 37, 10 ** 5, 10 ** 9)


def test_hurwitz_zeta_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for alpha in ZETA_ALPHAS:
        for q in ZETA_QS:
            ref = float(special.zeta(alpha, q + 1.0))
            assert abs(_hurwitz_zeta(alpha, q + 1.0) - ref) <= 1e-13 * ref


def test_lambda_dep_at_an_alpha_whose_zeta_tail_underflows():
    # from alpha ~ 1.4e154, x^-alpha underflows to 0 and the tail's rising
    # factorial overflows; Delta is still 1 at j = 0 and 0 after, as at 1e100
    assert lambda_dep(fdm_polynomial(1e200), 0.01) == lambda_dep(fdm_polynomial(1e100), 0.01)


def test_polynomial_tail_matches_brute_force_sum():
    for alpha in ZETA_ALPHAS:
        spec = fdm_polynomial(alpha, kappa=3.0)
        for q in ZETA_QS:
            brute = 3.0 * _brute_polynomial_tail(alpha, q)
            assert beta_dep(spec, q) == pytest.approx(brute, rel=1e-9)


def _lambda_dep_200_steps(spec, x):
    # lambda_dep with its bisection always run for the full 200 steps
    sqx = math.sqrt(x)

    def excess(y):
        return v_tilde(spec, sqx * y) - y

    lo = 0.5 * sqx
    hi = max(1.0, 2.0 * lo)
    while excess(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return sqx * hi


def test_lambda_dep_early_stop_is_exact():
    # lambda_dep's one walker against a bisection on fresh v_tilde calls,
    # down to x = 1e-30 where j* sits far from 0: polynomial Delta at three
    # decay speeds, exponential Delta at three scales, and a tail-less Delta
    # that runs beta_dep's generic walk
    specs = [independent(), fdm_polynomial(2.0), fdm_polynomial(1.5), fdm_exponential(0.5),
             *(fdm_polynomial(a, kappa=3.0) for a in (1.1, 2.0, 5.0)),
             *(fdm_exponential(0.1, kappa=k) for k in (0.2, 0.5, 0.9)),
             functional_delta(lambda j: 0.5 ** j)]
    for spec in specs:
        for x in np.logspace(-30, 1, 40):
            assert lambda_dep(spec, float(x)) == _lambda_dep_200_steps(spec, float(x))


def _counting(spec):
    # the spec with its Delta and tail wrapped to count their calls
    counts = {"delta": 0, "tail": 0}

    def delta(j):
        counts["delta"] += 1
        return spec.delta(j)

    def tail(q):
        counts["tail"] += 1
        return spec.delta_tail(q)

    return DependenceSpec(kind=spec.kind, alpha=spec.alpha, rho=spec.rho,
                          delta=delta, delta_tail=tail), counts


def test_lambda_dep_reuses_its_search_within_one_call():
    # alpha = 2 at three x spanning the rates benchmark's grids, each with the
    # Delta count of a bisection that searched j* from 0 and took the tail at
    # every step
    for x, fresh_deltas in ((1.78e-6, 385), (2.37e-3, 163), (0.5, 57)):
        spec, counts = _counting(fdm_polynomial(2.0))
        lambda_dep(spec, x)
        assert counts["tail"] <= 5
        assert counts["delta"] <= fresh_deltas / 2
    # j* far from 0: the gallop makes no more Delta calls than the fresh searches' 1,765
    spec, counts = _counting(fdm_polynomial(1.1))
    lambda_dep(spec, 1e-20)
    assert counts["delta"] <= 1765
    # nothing is kept from one call to the next
    first = dict(counts)
    lambda_dep(spec, 1e-20)
    assert counts == {name: 2 * n for name, n in first.items()}


def test_lambda_dep_converges_at_tiny_x():
    # the bisection runs until it converges, however many halvings that takes:
    # the value stays on the envelope shape x log(1/x)^2 far below x = 1e-8
    spec = fdm_exponential(0.5)
    for x in (1e-100, 1e-200):
        lam = lambda_dep(spec, x)
        assert 0.1 < lam / rate_envelope(spec, x) < 10.0
        assert v_tilde(spec, lam) <= lam / math.sqrt(x) * (1 + 1e-9)


def test_lambda_dep_envelope_shapes_bounded():
    # constants are not explicit; fit the smallest one and check the shape:
    # the ratio Lambda/envelope stays within a bounded band over the grid
    for spec in (fdm_polynomial(2.0), fdm_polynomial(1.5), fdm_exponential(0.5)):
        ratios = np.array([
            lambda_dep(spec, x) / rate_envelope(spec, x)
            for x in np.logspace(-8, 1, 40)
        ])
        fitted = float(ratios.max())
        assert np.isfinite(fitted) and fitted < 100.0
        assert ratios.min() > 0.0
        assert fitted / ratios.min() < 50.0


def test_lambda_dep_fixed_point_property():
    # returned value Lambda = sqrt(x) ybar satisfies V(Lambda) <= ybar
    for spec in (fdm_polynomial(2.0), fdm_exponential(0.7)):
        for x in (1e-4, 0.1, 2.0):
            lam = lambda_dep(spec, x)
            ybar = lam / math.sqrt(x)
            assert v_tilde(spec, lam) <= ybar * (1 + 1e-9)


def test_beta_dep_requires_summable_sequence():
    bad = functional_delta(lambda j: 1.0 / (j + 1.0))
    with pytest.raises(NumericFailure):
        beta_dep(bad, 1)


def _beta_dep_walk(delta, q):
    # beta_dep's generic walk without the up-front divergence check
    total = 0.0
    for j in range(q, q + 10_000_000):
        term = float(delta(j))
        total += term
        if term < 1e-15 * max(total, 1e-300):
            return total
    raise NumericFailure("no stop")


def test_beta_dep_convergent_walks_unchanged():
    sequences = (
        lambda j: 2.0 ** -j,
        lambda j: max(0.0, 1.0 - j / 40.0),  # reaches exactly 0 at j = 40
        lambda j: 3.0 * (j + 1.0) ** -4,
        lambda j: 1.0 if j < 50_000 else 3e-11,  # the walk stops on the plateau
    )
    for delta in sequences:
        spec = functional_delta(delta)
        for q in (0, 1, 7, 39, 40):
            assert beta_dep(spec, q) == _beta_dep_walk(delta, q)


# -- block length selector, an oracle for the mixing rate function ----------


def beta_mix(spec, k):
    """The mixing sequence beta(k) a mixing spec stands for."""
    if spec.kind == "independent":
        return 0.0 if k >= 1 else 1.0
    if spec.kind == "mixing_polynomial":
        return min(1.0, (k + 1.0) ** (-(spec.alpha + 1.0)))
    return min(1.0, spec.rho ** k)


def q_star(beta_fn, x):
    """Smallest block length q with beta(q) <= q x."""
    return _first_index(lambda q: float(beta_fn(q)) <= q * x, 1, 2 ** 32,
                        "no block length below 2^32 satisfies beta(q) <= q x")


def block_rate_constant(spec, horizon=200_000):
    """C = sum_k (phi*(k+1) - phi*(k)) beta(k) under polynomial mixing."""
    ca = c_alpha(spec.alpha)
    total = 0.0
    for k in range(horizon):
        term = ca * ((k + 1.0) ** spec.alpha - float(k) ** spec.alpha) * beta_mix(spec, k)
        total += term
        if k > 10 and term < 1e-14 * total:
            break
    return total


def test_q_star_hand_scan():
    beta = lambda q: 0.5 ** q
    # 0.5 > 0.1, 0.25 > 0.2, 0.125 <= 0.3
    assert q_star(beta, 0.1) == 3


def test_q_star_immediate():
    beta = lambda q: 0.5 ** q
    assert q_star(beta, 0.5) == 1
    assert q_star(beta, 0.9) == 1


def test_first_index_is_the_same_from_every_hint():
    # galloping up or down from any hint lands on the first true index, never below start
    for start in (0, 1, 5):
        for first in range(start, 70):
            for hint in range(0, 80):
                got = _first_index(lambda i: i >= first, start, 2 ** 10, "unreached", hint=hint)
                assert got == first
    with pytest.raises(NumericFailure, match="unreached"):
        _first_index(lambda i: False, 0, 2 ** 10, "unreached", hint=600)


def test_q_star_piecewise_monotone():
    # q*(x) x increases within stretches of constant q*; at block-length
    # jumps it can drop (e.g. beta(q)=0.5^q near x=1/2), so global
    # monotonicity holds segment by segment only
    beta = lambda q: 0.5 ** q
    xs = np.linspace(0.01, 1.0, 300)
    vals = [(q_star(beta, x), q_star(beta, x) * x) for x in xs]
    for (q1, v1), (q2, v2) in zip(vals, vals[1:]):
        if q1 == q2:
            assert v2 >= v1 - 1e-15


def test_q_star_matches_linear_scan_on_random_monotone_sequences():
    rng = np.random.default_rng(5)
    for _ in range(300):
        # a non-increasing beta with plateaus, zero past its support
        steps = rng.exponential(size=int(rng.integers(1, 400)))
        steps[rng.random(steps.size) < 0.3] = 0.0
        vals = np.cumsum(steps[::-1])[::-1] * rng.uniform(0.01, 5.0)
        beta = lambda q: float(vals[q]) if q < vals.size else 0.0
        x = 10.0 ** rng.uniform(-4.0, 1.0)
        scan = next(q for q in range(1, vals.size + 1) if beta(q) <= q * x)
        assert q_star(beta, x) == scan


def test_q_star_no_decay_raises():
    with pytest.raises(NumericFailure):
        q_star(lambda q: 1e9, 1e-9)


def test_q_star_times_x_below_lambda():
    # q*(x) x <= 2 C Lambda(x) with C the conjugate-increment series
    spec = mixing_polynomial(2.0)
    C = block_rate_constant(spec)
    assert np.isfinite(C) and C > 0
    for x in np.logspace(-6, 0, 40):
        assert q_star(lambda q: beta_mix(spec, q), x) * x <= 2 * C * lambda_mix(spec, x) * (1 + 1e-9)


def test_beta_mix_sequences():
    pol = mixing_polynomial(2.0)
    assert beta_mix(pol, 0) == 1.0
    assert beta_mix(pol, 1) == pytest.approx(2.0 ** -3)
    exp = mixing_exponential(0.5)
    assert beta_mix(exp, 3) == pytest.approx(0.125)
    ind = independent()
    assert beta_mix(ind, 0) == 1.0 and beta_mix(ind, 5) == 0.0


# -- entropy bound -----------------------------------------------------------


def test_entropy_bound_hand_value():
    # L=1, p=(1,1,1), s=1, delta=1: 2 log(2^7 * 2) = 2 log 256
    val = entropy_bound(1, None, (1, 1, 1), 1, 1.0)
    assert val == pytest.approx(2 * math.log(256.0), rel=1e-12)


def test_entropy_bound_monotonicity():
    base = entropy_bound(3, 1, (4, 8, 8, 8, 4), 20, 0.1)
    assert entropy_bound(3, 1, (4, 8, 8, 8, 4), 20, 0.05) > base
    assert entropy_bound(3, 1, (4, 8, 8, 8, 4), 40, 0.1) > base


def test_entropy_bound_no_overflow_and_bigint_oracle():
    import random

    rnd = random.Random(7)
    for _ in range(20):
        L = rnd.randint(1, 12)
        s = rnd.randint(1, 10 ** 4)
        p0 = rnd.randint(1, 64)
        pl = rnd.randint(1, 64)
        denom = rnd.choice([1, 8, 1000, 10 ** 6])
        delta = 1.0 / denom
        p = (p0,) + (8,) * L + (pl,)
        val = entropy_bound(L, None, p, s, delta)
        assert np.isfinite(val)
        # arbitrary-precision oracle: exact big-integer argument of the log
        arg_num = 2 ** (2 * L + 5) * denom * (L + 1) * p0 ** 2 * pl ** 2 * s ** (2 * L)
        oracle = (s + 1) * math.log(arg_num)
        assert abs(val - oracle) <= 1e-9 * abs(oracle)


def test_entropy_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        entropy_bound(1, None, (1, 1, 1), 1, 0.0)
    with pytest.raises(ValueError):
        entropy_bound(1, None, (1, 1, 1), 1, 1.5)
    with pytest.raises(ValueError):
        entropy_bound(1, None, (1, 1, 1), 0, 0.5)


# -- N selection and oracle bound --------------------------------------------


def test_choose_n_hand_value():
    # A=1, alpha=2, n=10^4: exponent (2/3)/(8/3) = 1/4 -> N = 10
    prof = SmoothnessProfile.isotropic(1.0, 1)
    assert choose_N(10_000, 2.0, prof) == 10


def test_choose_n_decreases_with_smoothness():
    n, alpha = 10 ** 5, 2.0
    values = [
        choose_N(n, alpha, SmoothnessProfile.isotropic(beta, 1))
        for beta in (1.0, 2.0, 4.0, 8.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_reduced_dimension_selector_matches_choose_n():
    # the compressed-dimension specialization: only A = beta / d_tilde counts
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        for beta, d_tilde in ((1.0, 1), (2.0, 3), (1.5, 2)):
            prof = SmoothnessProfile.isotropic(beta, d_tilde)
            smoother = SmoothnessProfile(beta, d_tilde, 4 * beta, d_tilde, 4 * beta, d_tilde)
            assert prof.A == beta / d_tilde
            assert choose_N(n, 2.0, smoother) == choose_N(n, 2.0, prof)


def test_oracle_bound_independent_formula():
    prof = SmoothnessProfile.isotropic(1.0, 1)
    n, N = 10_000, 10
    expect = N * math.log(n) ** 3 / n + N ** -2.0
    assert oracle_bound(independent(), n, N, prof) == pytest.approx(expect, rel=1e-12)


def ref_mix_envelope(spec, x):
    # the mixing envelopes written out kind by kind, the reference that the one
    # (c, q, l) formula must match bit for bit
    if spec.kind == "mixing_polynomial":
        al = spec.alpha
        const = 2.0 * c_alpha(al) ** (-1.0 / (al + 1.0))
        return const * max(x ** (al / (al + 1.0)), x)
    if spec.kind == "mixing_exponential":
        a = (spec.rho + 1.0) / (2.0 * spec.rho)
        c_rho = max(4.0 + 2.0 / math.log(a), 2.0 * (1.0 + math.e / (a - 1.0)))
        return c_rho * max(1.0, math.log(1.0 / x)) * x
    if spec.kind == "independent":
        return x
    raise ValueError(f"mix_envelope undefined for kind {spec.kind!r}")


def ref_dep_envelope(spec, x):
    # the functional-dependence envelopes, the shape read off whichever of
    # alpha and rho the spec holds
    if spec.kind == "independent":
        return x
    if spec.alpha is not None:
        al = spec.alpha
        return max(x ** (al / (al + 1.0)), x)
    if spec.rho is not None:
        return x * max(1.0, math.log(1.0 / x)) ** 2
    raise ValueError("envelope shape needs a polynomial or exponential spec")


ENVELOPE_SPECS = [
    (independent(), ref_mix_envelope),
    *((mixing_polynomial(al), ref_mix_envelope) for al in (1.5, 2.0, 4.0)),
    *((mixing_exponential(rho), ref_mix_envelope) for rho in (0.3, 0.5, 0.9)),
    *((fdm_polynomial(al), ref_dep_envelope) for al in (1.5, 2.0)),
    *((fdm_exponential(rho), ref_dep_envelope) for rho in (0.5, 0.7)),
]


@pytest.mark.parametrize("spec, ref", ENVELOPE_SPECS,
                         ids=[f"{s.kind}-{s.alpha or s.rho}" for s, _ in ENVELOPE_SPECS])
def test_rate_envelope_matches_the_kind_by_kind_envelopes_bit_for_bit(spec, ref):
    # c, then the log power, then max(x^q, x): that product order keeps every bit
    for x in [float(x) for x in np.logspace(-300, 3, 4000)] + BENCH_XS:
        assert rate_envelope(spec, x) == ref(spec, x)


@pytest.mark.parametrize("spec", [
    independent(), mixing_polynomial(2.0), mixing_polynomial(4.0),
    mixing_exponential(0.5), mixing_exponential(0.9), fdm_polynomial(1.5),
    fdm_polynomial(2.0), fdm_exponential(0.5), fdm_exponential(0.9),
], ids=lambda v: f"{v.kind}-{v.alpha or v.rho}")
def test_envelope_shape_is_the_solvers_slope(spec):
    # the kind's q is the log-log slope of Lambda(x) / max(1, log(1/x))^l far
    # below x = 1; on [1e-12, 1e-8] lower-order log terms still move it by 0.021
    _, q, l = envelope_shape(spec)

    def log_shape(x):
        return math.log(rate_function(spec, x) / max(1.0, math.log(1.0 / x)) ** l)

    slope = (log_shape(1e-20) - log_shape(1e-30)) / (math.log(1e-20) - math.log(1e-30))
    assert abs(slope - q) <= 0.01


@pytest.mark.parametrize("spec, lam, env", [
    (independent(), lambda_mix, ref_mix_envelope),
    (mixing_polynomial(2.0), lambda_mix, ref_mix_envelope),
    (mixing_exponential(0.5), lambda_mix, ref_mix_envelope),
    (fdm_polynomial(2.0), lambda_dep, ref_dep_envelope),
    (fdm_exponential(0.5), lambda_dep, ref_dep_envelope),
], ids=["independent", "mixing_polynomial", "mixing_exponential", "fdm_polynomial",
        "fdm_exponential"])
def test_rate_function_is_the_kinds_lambda(spec, lam, env):
    # one dispatch serves the rates tables and oracle_bound alike
    prof = SmoothnessProfile.isotropic(2.0, 2)
    n, N = 10 ** 5, 18
    x = N * math.log(n) ** 3 / n
    for point in (1e-5, 1e-3, 0.5, x):
        assert rate_function(spec, point) == lam(spec, point)
        assert rate_envelope(spec, point) == env(spec, point)
    assert oracle_bound(spec, n, N, prof) == lam(spec, x) + N ** (-2.0 * prof.A)
    if spec.kind == "independent":
        assert rate_function(spec, 1e-3) == 1e-3 == rate_envelope(spec, 1e-3)


def test_bound_minimizer_near_choose_n():
    # dropping the polylog factor, the grid minimizer of
    # Lambda(N/n) + N^(-2A) sits within a factor 2 of the selector
    spec = mixing_polynomial(2.0)
    prof = SmoothnessProfile.isotropic(1.0, 1)
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        chosen = choose_N(n, 2.0, prof)
        grid = range(1, 6 * chosen)
        best = min((lambda_mix(spec, N / n) + N ** (-2.0 * prof.A), N) for N in grid)[1]
        assert best / 2 <= chosen <= 2 * best


def test_bound_decreasing_in_n():
    spec = mixing_polynomial(2.0)
    prof = SmoothnessProfile.isotropic(1.0, 1)
    vals = [oracle_bound(spec, n, 10, prof) for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_predicted_rate_value():
    prof = SmoothnessProfile.isotropic(1.0, 1)
    n = 10 ** 4
    expect = n ** (-0.5) * math.log(n) ** 2.0
    assert predicted_rate(n, 2.0, prof) == pytest.approx(expect, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        DependenceSpec(kind="mixing_polynomial", alpha=1.0)
    with pytest.raises(ValueError):
        DependenceSpec(kind="mixing_exponential", rho=1.2)
    with pytest.raises(ValueError):
        DependenceSpec(kind="nope")
    with pytest.raises(TypeError, match="kappa"):  # only the fdm factories take a scale
        DependenceSpec(kind="mixing_polynomial", alpha=2.0, kappa=5.0)
    delta = lambda j: 0.5 ** j
    with pytest.raises(ValueError, match="takes no Delta"):
        DependenceSpec(kind="mixing_polynomial", alpha=2.0, delta=delta)
    # a parameter the kind does not read is refused, not carried along
    for kind, name, params in (
            ("mixing_exponential", "alpha", {"rho": 0.5, "alpha": 3.0}),
            ("fdm_exponential", "alpha", {"rho": 0.5, "alpha": 2.0, "delta": delta}),
            ("independent", "alpha", {"alpha": 2.0}),
            ("mixing_polynomial", "rho", {"alpha": 2.0, "rho": 0.5}),
            ("fdm_polynomial", "rho", {"alpha": 2.0, "rho": 0.5, "delta": delta}),
            ("functional_delta", "rho", {"rho": 0.5, "delta": delta})):
        with pytest.raises(ValueError, match=f"{kind} takes no {name}"):
            DependenceSpec(kind=kind, **params)
    for make, param in ((fdm_polynomial, {"alpha": 2.0}), (fdm_exponential, {"rho": 0.5})):
        assert make(**param).kind == make.__name__  # the config's kind names the spec
        with pytest.raises(ValueError, match="needs a Delta"):
            DependenceSpec(kind=make.__name__, **param)
    with pytest.raises(ValueError, match="fdm_polynomial needs alpha > 1"):
        fdm_polynomial(1.0)
    with pytest.raises(ValueError, match="fdm_exponential needs rho"):
        fdm_exponential(1.0)
    with pytest.raises(ValueError, match="functional_delta"):
        rate_envelope(functional_delta(delta), 0.1)
    with pytest.raises(ValueError, match="positive"):
        rate_envelope(independent(), 0.0)
    with pytest.raises(ValueError):
        SmoothnessProfile.isotropic(0.5, 1)


@pytest.mark.parametrize("make, match", [
    (lambda: fdm_polynomial(float("nan")), "alpha must be finite"),
    (lambda: fdm_exponential(0.5, kappa=float("nan")), "kappa"),
    (lambda: fdm_polynomial(2.0, kappa=-1.0), "kappa"),
    (lambda: mixing_polynomial(float("inf")), "alpha must be finite"),
], ids=["nan_alpha", "nan_kappa", "negative_kappa", "infinite_mixing_alpha"])
def test_spec_rejects_invalid_parameters(make, match):
    with pytest.raises(ValueError, match=match):
        make()
