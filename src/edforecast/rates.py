"""Dependence-driven rate calculus.

Two decay-to-rate conversions govern the expected prediction error of the
network estimator:

* for absolutely regular mixing, ``lambda_mix(x) = ceil(psi^{-1}(1/x)) x``
  where ``psi(z) = phi_star(z) z`` and ``phi_star`` is the convex conjugate
  of a compatibility function chosen from the decay regime;
* for the functional dependence measure, ``lambda_dep(x) = sqrt(x) ybar``
  where ``ybar`` is the minimal positive solution of
  ``V(sqrt(x) y) <= y`` and ``V(z) = sqrt(z) + sum_j min(sqrt(z), Delta(j))``.

Both are evaluated exactly where closed forms exist and by bracketed
bisection / ternary search otherwise.  All oracle-level bounds are
reported up to their unspecified constant (taken as 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


class RateComputationError(RuntimeError):
    pass


@dataclass(frozen=True)
class DependenceSpec:
    """Decay model for the dependence of the observed process.

    ``mixing_*`` kinds describe absolutely regular mixing coefficients;
    ``functional_delta`` describes a decreasing majorant Delta(k) of the
    (rescaled) functional dependence measure.  Extra constants of the
    theory (theta, L_G, c0, the submultiplicativity constant) only move
    unreported multiplicative constants and are not stored here.
    """

    kind: str
    alpha: float | None = None
    kappa: float = 1.0
    rho: float | None = None
    delta: Callable[[int], float] | None = None
    delta_tail: Callable[[int], float] | None = None

    def __post_init__(self):
        kinds = ("independent", "mixing_polynomial", "mixing_exponential",
                 "functional_delta")
        if self.kind not in kinds:
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        for name in ("alpha", "rho"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if self.kind == "mixing_polynomial" and not (self.alpha and self.alpha > 1):
            raise ValueError("polynomial mixing needs alpha > 1")
        if self.kind == "mixing_exponential" and not (self.rho and 0 < self.rho < 1):
            raise ValueError("exponential mixing needs rho in (0,1)")
        if self.kind == "functional_delta" and self.delta is None:
            raise ValueError("functional_delta needs a Delta sequence")

    @property
    def is_mixing(self) -> bool:
        return self.kind.startswith("mixing")


def independent() -> DependenceSpec:
    return DependenceSpec(kind="independent")


def mixing_polynomial(alpha: float, kappa: float = 1.0) -> DependenceSpec:
    """Mixing coefficients beta(k) = min(1, kappa (k+1)^-(alpha+1)).

    The exponent alpha+1 makes sum_k k^(alpha-1) beta(k) finite, the
    summability regime of the polynomial-decay rate statement.
    """
    return DependenceSpec(kind="mixing_polynomial", alpha=alpha, kappa=kappa)


def mixing_exponential(rho: float, kappa: float = 1.0) -> DependenceSpec:
    return DependenceSpec(kind="mixing_exponential", rho=rho, kappa=kappa)


def functional_delta(delta: Callable[[int], float],
                     tail: Callable[[int], float] | None = None) -> DependenceSpec:
    return DependenceSpec(kind="functional_delta", delta=delta, delta_tail=tail)


# Euler-Maclaurin for the Hurwitz zeta: terms summed before the remainder,
# and B_2j / (2j)! for the j = 1..8 Bernoulli corrections
_HZ_HEAD = 10
_HZ_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                           -691 / 2730, 7 / 6, -3617 / 510), start=1)
)


def _hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k>=0} (a+k)^-s for s > 1 and a >= 1.

    Sums the first _HZ_HEAD terms directly; the rest from x = a + _HZ_HEAD
    is x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) x^(1-s-2j),
    accurate to double precision once x >= 11.
    """
    head = math.fsum((a + k) ** -s for k in range(_HZ_HEAD))
    x = a + _HZ_HEAD
    xs = x ** -s
    rest = x * xs / (s - 1.0) + 0.5 * xs
    rising = s * xs / x
    for j, coeff in enumerate(_HZ_COEFFS):
        rest += coeff * rising
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (x * x)
    return head + rest


def fdm_polynomial(alpha: float, kappa: float = 1.0) -> DependenceSpec:
    """Delta(j) = kappa (j+1)^-alpha, with the Hurwitz-zeta tail
    kappa zeta(alpha, q+1)."""
    if alpha <= 1:
        raise ValueError("polynomial Delta needs alpha > 1 for summability")
    return DependenceSpec(
        kind="functional_delta", alpha=alpha, kappa=kappa,
        delta=lambda j: kappa * (j + 1.0) ** (-alpha),
        delta_tail=lambda q: kappa * _hurwitz_zeta(alpha, q + 1.0),
    )


def fdm_exponential(rho: float, kappa: float = 1.0) -> DependenceSpec:
    """Delta(j) = kappa rho^j, with the exact geometric tail."""
    if not 0 < rho < 1:
        raise ValueError("exponential Delta needs rho in (0,1)")
    return DependenceSpec(
        kind="functional_delta", rho=rho, kappa=kappa,
        delta=lambda j: kappa * rho ** j,
        delta_tail=lambda q: kappa * rho ** q / (1.0 - rho),
    )


# -- mixing coefficients and conjugate calculus ---------------------------


def beta_mix(spec: DependenceSpec, k: int) -> float:
    """The concrete mixing sequence represented by a mixing spec."""
    if spec.kind == "independent":
        return 0.0 if k >= 1 else 1.0
    if spec.kind == "mixing_polynomial":
        return min(1.0, spec.kappa * (k + 1.0) ** (-(spec.alpha + 1.0)))
    if spec.kind == "mixing_exponential":
        return min(1.0, spec.kappa * spec.rho ** k)
    raise ValueError(f"{spec.kind} has no mixing coefficients")


def conjugate(phi: Callable[[float], float], y: float, tol: float = 1e-12) -> float:
    """Convex conjugate phi*(y) = sup_z (y z - phi(z)) by ternary search.

    phi must be convex with phi(0) = 0 and superlinear growth, so the inner
    objective is concave with a bracketable maximizer.
    """
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while phi(2.0 * hi) - phi(hi) < y * hi:
        hi *= 2.0
        if hi > 1e200:
            raise RateComputationError("conjugate bracket failed: phi grows too slowly")
    # the secant test certifies the maximizer below 2*hi, not below hi
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


def c_alpha(alpha: float) -> float:
    """Conjugate constant of phi(z) = z^(alpha/(alpha-1))."""
    return (1.0 - 1.0 / alpha) ** alpha / (alpha - 1.0)


def phi_polynomial(alpha: float) -> Callable[[float], float]:
    expo = alpha / (alpha - 1.0)
    return lambda z: z ** expo


def phi_exponential(rho: float) -> Callable[[float], float]:
    a = (rho + 1.0) / (2.0 * rho)
    log_a = math.log(a)
    return lambda z: z * math.log(z + 1.0) / log_a


def lambda_mix(spec: DependenceSpec, x: float) -> float:
    """Mixing rate function ceil(psi^{-1}(1/x)) * x."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    if spec.kind == "independent":
        return x
    if spec.kind == "mixing_polynomial":
        # psi(z) = C_alpha z^(alpha+1), closed-form inverse
        psi_inv = (1.0 / (x * c_alpha(spec.alpha))) ** (1.0 / (spec.alpha + 1.0))
        return math.ceil(psi_inv) * x
    if spec.kind == "mixing_exponential":
        phi = phi_exponential(spec.rho)
        psi = lambda z: conjugate(phi, z) * z
        return math.ceil(_increasing_inverse(psi, 1.0 / x)) * x
    raise ValueError(f"lambda_mix undefined for kind {spec.kind!r}")


def _increasing_inverse(fn: Callable[[float], float], target: float,
                        tol: float = 1e-12) -> float:
    hi = 1.0
    while fn(hi) < target:
        hi *= 2.0
        if hi > 1e200:
            raise RateComputationError("inverse bracket failed")
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mix_envelope(spec: DependenceSpec, x: float) -> float:
    """Explicit-constant upper envelope for lambda_mix from the decay proofs.

    Polynomial decay: 2 C_alpha^{-1/(alpha+1)} (x^{alpha/(alpha+1)} or x).
    Exponential decay: c_rho (1 or log(1/x)) x with
    c_rho = max(4 + 2/log(a), 2(1 + e/(a-1))), a = (rho+1)/(2 rho).
    """
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


# -- functional dependence ------------------------------------------------


def beta_dep(spec: DependenceSpec, q: int) -> float:
    """Tail sum of the Delta sequence from q onward."""
    if spec.kind == "independent":
        return 0.0
    if spec.delta is None:
        raise ValueError("spec has no Delta sequence")
    if spec.delta_tail is not None:
        return float(spec.delta_tail(q))
    total = 0.0
    j = q
    horizon = q + 10_000_000
    while j < horizon:
        term = float(spec.delta(j))
        total += term
        if term < 1e-15 * max(total, 1e-300):
            return total
        j += 1
    raise RateComputationError(
        "Delta tail did not converge within the truncation horizon; "
        "supply a delta_tail formula or a faster-decaying sequence"
    )


def v_tilde(spec: DependenceSpec, z: float) -> float:
    """Variance proxy sqrt(z) + sum_j min(sqrt(z), Delta(j))."""
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    s = math.sqrt(z)
    if spec.kind == "independent" or spec.delta is None:
        return s
    if s == 0.0:
        return 0.0
    # j_star = first index with Delta(j) <= sqrt(z); Delta decreasing
    if float(spec.delta(0)) <= s:
        j_star = 0
    else:
        hi = 1
        while float(spec.delta(hi)) > s:
            hi *= 2
            if hi > 2 ** 60:
                raise RateComputationError("Delta does not decay to zero")
        lo = hi // 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if float(spec.delta(mid)) <= s:
                hi = mid
            else:
                lo = mid
        j_star = hi
    return s * (1 + j_star) + beta_dep(spec, j_star)


def lambda_dep(spec: DependenceSpec, x: float) -> float:
    """Functional-dependence rate function sqrt(x) * ybar(x).

    ybar is the minimal positive fixed point of V(sqrt(x) y) <= y, located
    by bisection; the returned bracket end satisfies the inequality.  The
    bisection stops once the midpoint of the bracket rounds onto one of its
    ends (after at most 200 halvings): further steps could not move it.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    sqx = math.sqrt(x)

    def excess(y: float) -> float:
        return v_tilde(spec, sqx * y) - y

    # V(z) >= sqrt(z) forces the positive fixed point ybar >= sqrt(x), so
    # sqrt(x)/2 always sits strictly below it with positive excess
    lo = 0.5 * sqx
    hi = max(1.0, 2.0 * lo)
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e200:
            raise RateComputationError("no fixed point found; Delta not summable?")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return sqx * hi


def dep_envelope(spec: DependenceSpec, x: float) -> float:
    """Unit-constant envelope shapes for lambda_dep (constants are not
    explicit in the decay statements, so callers fit them)."""
    if spec.kind == "independent":
        return x
    if spec.alpha is not None:
        al = spec.alpha
        return max(x ** (al / (al + 1.0)), x)
    if spec.rho is not None:
        return x * max(1.0, math.log(1.0 / x)) ** 2
    raise ValueError("envelope shape needs a polynomial or exponential spec")


def q_star(beta_fn: Callable[[int], float], x: float) -> int:
    """Smallest q with beta(q) <= q x (monotone bracket + binary search)."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    if float(beta_fn(1)) <= x:
        return 1
    hi = 1
    while float(beta_fn(hi)) > hi * x:
        hi *= 2
        if hi > 2 ** 32:
            raise RateComputationError(
                "no block length below 2^32 satisfies beta(q) <= q x"
            )
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if float(beta_fn(mid)) <= mid * x:
            hi = mid
        else:
            lo = mid
    return hi


def q_star_mix(spec: DependenceSpec, x: float) -> int:
    return q_star(lambda q: beta_mix(spec, q), x)


def block_rate_constant(spec: DependenceSpec, horizon: int = 200_000) -> float:
    """C = sum_k (phi*(k+1) - phi*(k)) beta(k) for the polynomial regime."""
    if spec.kind != "mixing_polynomial":
        raise ValueError("constant implemented for polynomial mixing")
    ca = c_alpha(spec.alpha)
    total = 0.0
    for k in range(horizon):
        inc = ca * ((k + 1.0) ** spec.alpha - float(k) ** spec.alpha)
        term = inc * beta_mix(spec, k)
        total += term
        if k > 10 and term < 1e-14 * total:
            break
    return total


# -- entropy bound and rate selection -------------------------------------


def entropy_bound(L: int, L1: int | None, p, s: int, delta: float) -> float:
    """Bracketing-entropy bound of the sparse network class, in log space.

    (s+1) * log(2^(2L+5) delta^-1 (L+1) p0^2 p_{L+1}^2 s^(2L)); the log of
    the product is accumulated term by term so no intermediate overflows.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if s < 1:
        raise ValueError("s must be >= 1")
    p = tuple(int(v) for v in p)
    log_arg = (
        (2 * L + 5) * math.log(2.0)
        + math.log(1.0 / delta)
        + math.log(L + 1.0)
        + 2.0 * math.log(p[0])
        + 2.0 * math.log(p[-1])
        + 2.0 * L * math.log(s)
    )
    return (s + 1) * log_arg


@dataclass(frozen=True)
class SmoothnessProfile:
    """Per-stage smoothness (beta) and active-argument counts (t)."""

    beta_dec: float
    t_dec: int
    beta_enc0: float
    t_enc0: int
    beta_enc1: float
    t_enc1: int

    def __post_init__(self):
        for b in (self.beta_dec, self.beta_enc0, self.beta_enc1):
            if b < 1:
                raise ValueError("smoothness indices must be >= 1")
        for t in (self.t_dec, self.t_enc0, self.t_enc1):
            if int(t) != t or t < 1:
                raise ValueError("argument counts must be integers >= 1")

    @classmethod
    def isotropic(cls, beta: float, t: int) -> "SmoothnessProfile":
        return cls(beta, t, beta, t, beta, t)

    @property
    def A(self) -> float:
        return min(self.beta_dec / self.t_dec, self.beta_enc0 / self.t_enc0,
                   self.beta_enc1 / self.t_enc1)


def choose_N(n: int, alpha: float, profile: SmoothnessProfile) -> int:
    """Rate-optimal network-size parameter under polynomial mixing decay."""
    if n < 2 or alpha <= 1:
        raise ValueError("need n >= 2 and alpha > 1")
    q = alpha / (alpha + 1.0)
    val = float(n) ** (q / (2.0 * profile.A + q))
    return max(1, math.ceil(val - 1e-12 * max(1.0, val)))


def choose_N_reduced(n: int, alpha: float, beta: float, d_tilde: int) -> int:
    """The compressed-dimension specialization (A = beta / d_tilde)."""
    profile = SmoothnessProfile(beta, d_tilde, beta, d_tilde, beta, d_tilde)
    return choose_N(n, alpha, profile)


def predicted_rate(n: int, alpha: float, profile: SmoothnessProfile) -> float:
    """Predicted convergence rate n^-(2Aq/(2A+q)) log(n)^(3 alpha/(alpha+1))."""
    if n < 2 or alpha <= 1:
        raise ValueError("need n >= 2 and alpha > 1")
    q = alpha / (alpha + 1.0)
    A = profile.A
    return float(n) ** (-2.0 * A * q / (2.0 * A + q)) \
        * math.log(n) ** (3.0 * alpha / (alpha + 1.0))


def oracle_bound(spec: DependenceSpec, n: int, N: int,
                  profile: SmoothnessProfile) -> float:
    """Oracle-bound shape Lambda(N log(n)^3 / n) + N^(-2A), constant set to 1."""
    if n < 2 or N < 1:
        raise ValueError("need n >= 2 and N >= 1")
    x = N * math.log(n) ** 3 / n
    if spec.kind == "independent":
        lam = x
    elif spec.is_mixing:
        lam = lambda_mix(spec, x)
    else:
        lam = lambda_dep(spec, x)
    return lam + float(N) ** (-2.0 * profile.A)
