"""Dependence-rate calculus: conjugates, Lambda functions, entropy, N-selection."""

import math

import numpy as np
import pytest

from edforecast.rates import (
    DependenceSpec,
    RateComputationError,
    SmoothnessProfile,
    _hurwitz_zeta,
    beta_dep,
    beta_mix,
    oracle_bound,
    c_alpha,
    choose_N,
    choose_N_reduced,
    conjugate,
    dep_envelope,
    entropy_bound,
    fdm_exponential,
    fdm_polynomial,
    functional_delta,
    independent,
    lambda_dep,
    lambda_mix,
    block_rate_constant,
    mix_envelope,
    mixing_exponential,
    mixing_polynomial,
    phi_polynomial,
    predicted_rate,
    q_star,
    q_star_mix,
    v_tilde,
)


# -- conjugate calculus -----------------------------------------------------


def test_conjugate_matches_polynomial_closed_form():
    for alpha in (1.5, 2.0, 3.0):
        phi = phi_polynomial(alpha)
        for y in (0.1, 1.0, 7.3):
            closed = c_alpha(alpha) * y ** alpha
            num = conjugate(phi, y)
            assert abs(num - closed) <= 1e-9 * max(1.0, closed)


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
        assert lambda_mix(spec, x) <= mix_envelope(spec, x) * (1 + 1e-9)


@pytest.mark.parametrize("rho", [0.3, 0.7, 0.9])
def test_exponential_envelope_pointwise(rho):
    spec = mixing_exponential(rho)
    for x in np.logspace(-6, 1, 40):
        assert lambda_mix(spec, x) <= mix_envelope(spec, x) * (1 + 1e-9)


def test_numeric_psi_inverse_agrees_with_polynomial_route():
    # evaluate the polynomial case through the generic numeric machinery
    alpha = 2.0
    phi = phi_polynomial(alpha)
    from edforecast.rates import _increasing_inverse
    psi = lambda z: conjugate(phi, z) * z
    for x in (0.03, 0.4, 2.0):
        closed = (1.0 / (x * c_alpha(alpha))) ** (1.0 / (alpha + 1.0))
        num = _increasing_inverse(psi, 1.0 / x)
        assert abs(num - closed) <= 1e-8 * max(1.0, closed)


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
    specs = (independent(), fdm_polynomial(2.0), fdm_polynomial(1.5),
             fdm_exponential(0.5))
    for spec in specs:
        for x in np.logspace(-8, 1, 40):
            assert lambda_dep(spec, float(x)) == _lambda_dep_200_steps(spec, float(x))


def test_lambda_dep_envelope_shapes_bounded():
    # constants are not explicit; fit the smallest one and check the shape:
    # the ratio Lambda/envelope stays within a bounded band over the grid
    for spec in (fdm_polynomial(2.0), fdm_polynomial(1.5), fdm_exponential(0.5)):
        ratios = np.array([
            lambda_dep(spec, x) / dep_envelope(spec, x)
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
    with pytest.raises(RateComputationError):
        beta_dep(bad, 1)


# -- block length selector --------------------------------------------------


def test_q_star_hand_scan():
    beta = lambda q: 0.5 ** q
    # 0.5 > 0.1, 0.25 > 0.2, 0.125 <= 0.3
    assert q_star(beta, 0.1) == 3


def test_q_star_immediate():
    beta = lambda q: 0.5 ** q
    assert q_star(beta, 0.5) == 1
    assert q_star(beta, 0.9) == 1


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


def test_q_star_no_decay_raises():
    with pytest.raises(RateComputationError):
        q_star(lambda q: 1e9, 1e-9)


def test_q_star_times_x_below_lambda():
    # q*(x) x <= 2 C Lambda(x) with C the conjugate-increment series
    spec = mixing_polynomial(2.0)
    C = block_rate_constant(spec)
    assert np.isfinite(C) and C > 0
    for x in np.logspace(-6, 0, 40):
        assert q_star_mix(spec, x) * x <= 2 * C * lambda_mix(spec, x) * (1 + 1e-9)


def test_beta_mix_sequences():
    pol = mixing_polynomial(2.0, kappa=1.0)
    assert beta_mix(pol, 0) == 1.0
    assert beta_mix(pol, 1) == pytest.approx(2.0 ** -3)
    exp = mixing_exponential(0.5, kappa=1.0)
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
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        for beta, d_tilde in ((1.0, 1), (2.0, 3), (1.5, 2)):
            prof = SmoothnessProfile.isotropic(beta, d_tilde)
            assert choose_N_reduced(n, 2.0, beta, d_tilde) == choose_N(n, 2.0, prof)


def test_oracle_bound_independent_formula():
    prof = SmoothnessProfile.isotropic(1.0, 1)
    n, N = 10_000, 10
    expect = N * math.log(n) ** 3 / n + N ** -2.0
    assert oracle_bound(independent(), n, N, prof) == pytest.approx(expect, rel=1e-12)


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
