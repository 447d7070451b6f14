"""Dependence-driven rate calculus.

Two decay-to-rate conversions govern the expected prediction error of the
network estimator:

* for absolutely regular mixing, ``lambda_mix(x) = ceil(psi^{-1}(1/x)) x``
  where ``psi(z) = phi_star(z) z`` and ``phi_star`` is the convex conjugate
  of a compatibility function chosen from the decay regime;
* for the functional dependence measure, ``lambda_dep(x) = sqrt(x) ybar``
  where ``ybar`` is the minimal positive solution of
  ``V(sqrt(x) y) <= y`` and ``V(z) = sqrt(z) + sum_j min(sqrt(z), Delta(j))``.

Both are evaluated exactly where closed forms exist.  Otherwise
``lambda_mix`` searches the integers k for the first with psi(k) >= 1/x,
taking each phi_star(k) at the root of phi'(z) = k, and ``lambda_dep``
bisects for ybar; every bisection runs until its midpoint rounds onto a
bracket end; in one ``lambda_dep`` call each V(z) searches for j* (the first
j with Delta(j) <= sqrt(z)) from the last j* and takes each tail once.  All
oracle-level bounds are reported up to their unspecified constant, taken as 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from . import NumericFailure


@dataclass(frozen=True)
class DependenceSpec:
    """Decay model for the dependence of the observed process.

    ``mixing_*`` kinds describe absolutely regular mixing coefficients;
    ``fdm_*`` and (measured) ``functional_delta`` kinds a decreasing majorant
    Delta(k) of the (rescaled) functional dependence measure.  Extra constants
    of the theory (theta, L_G, c0, the submultiplicativity constant) only move
    unreported multiplicative constants and are not stored here.
    """

    kind: str
    alpha: float | None = None
    rho: float | None = None
    delta: Callable[[int], float] | None = None
    delta_tail: Callable[[int], float] | None = None

    def __post_init__(self):
        kinds = ("independent", "mixing_polynomial", "mixing_exponential",
                 "fdm_polynomial", "fdm_exponential", "functional_delta")
        if self.kind not in kinds:
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        for name, family in (("alpha", "_polynomial"), ("rho", "_exponential")):
            value = getattr(self, name)
            if value is not None and not self.kind.endswith(family):
                raise ValueError(f"{self.kind} takes no {name}")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind.endswith("_polynomial") and not (self.alpha and self.alpha > 1):
            raise ValueError(f"{self.kind} needs alpha > 1")
        if self.kind.endswith("_exponential") and not (self.rho and 0 < self.rho < 1):
            raise ValueError(f"{self.kind} needs rho in (0,1)")
        if (self.delta is None) == (self.kind in kinds[3:]):  # the last three carry a Delta
            raise ValueError(f"{self.kind} {'takes no' if self.delta else 'needs a'} Delta sequence")


def independent() -> DependenceSpec:
    return DependenceSpec(kind="independent")


def mixing_polynomial(alpha: float) -> DependenceSpec:
    """Mixing coefficients beta(k) = min(1, (k+1)^-(alpha+1)).

    The exponent alpha+1 makes sum_k k^(alpha-1) beta(k) finite, the
    summability regime of the polynomial-decay rate statement.
    """
    return DependenceSpec(kind="mixing_polynomial", alpha=alpha)


def mixing_exponential(rho: float) -> DependenceSpec:
    return DependenceSpec(kind="mixing_exponential", rho=rho)


def functional_delta(delta: Callable[[int], float],
                     tail: Callable[[int], float] | None = None) -> DependenceSpec:
    """Functional dependence given by a sequence Delta(j) >= 0.

    Delta must be non-increasing: V gallops from the last j* to the first j
    with Delta(j) <= sqrt(z), and without ``tail`` (the sum from q onward,
    once per j*) ``beta_dep`` uses it to reject a non-summable Delta first.
    """
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
    if xs == 0.0:  # the tail underflows, and its rising factorial would overflow to NaN
        return head
    rest = x * xs / (s - 1.0) + 0.5 * xs
    rising = s * xs / x
    for j, coeff in enumerate(_HZ_COEFFS):
        rest += coeff * rising
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (x * x)
    return head + rest


def _delta_scale(kappa: float) -> float:  # an fdm Delta's scale, which the spec does not keep
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")
    return kappa


def fdm_polynomial(alpha: float, kappa: float = 1.0) -> DependenceSpec:
    """Delta(j) = kappa (j+1)^-alpha, with the Hurwitz-zeta tail
    kappa zeta(alpha, q+1)."""
    kappa = _delta_scale(kappa)
    return DependenceSpec(kind="fdm_polynomial", alpha=alpha,
                          delta=lambda j: kappa * (j + 1.0) ** (-alpha),
                          delta_tail=lambda q: kappa * _hurwitz_zeta(alpha, q + 1.0))


def fdm_exponential(rho: float, kappa: float = 1.0) -> DependenceSpec:
    """Delta(j) = kappa rho^j, with the exact geometric tail."""
    kappa = _delta_scale(kappa)
    return DependenceSpec(kind="fdm_exponential", rho=rho,
                          delta=lambda j: kappa * rho ** j,
                          delta_tail=lambda q: kappa * rho ** q / (1.0 - rho))


# -- conjugate calculus -----------------------------------------------------


def conjugate(phi: Callable[[float], float], dphi: Callable[[float], float],
              y: float) -> float:
    """Convex conjugate phi*(y) = sup_z (y z - phi(z)), taken at the root of
    phi'(z) = y (Rio 2017, "Asymptotic Theory of Weakly Dependent Random
    Processes"): phi must be convex on [0, inf) with phi(0) = 0 and an
    unbounded derivative ``dphi``.
    """
    if y <= 0.0:
        return 0.0
    z = _root(lambda z: dphi(z) >= y, 0.0, 1.0,
              "conjugate bracket failed: phi grows too slowly")
    return max(0.0, y * z - phi(z))


def c_alpha(alpha: float) -> float:
    """Conjugate constant of phi(z) = z^(alpha/(alpha-1))."""
    return (1.0 - 1.0 / alpha) ** alpha / (alpha - 1.0)


def phi_exponential(rho: float):
    """The compatibility function phi(z) = z log(1+z) / log(a) of exponential
    mixing, a = (rho+1)/(2 rho), and its derivative
    phi'(z) = (log(1+z) + z/(1+z)) / log(a)."""
    a = (rho + 1.0) / (2.0 * rho)
    log_a = math.log(a)
    return (lambda z: z * math.log(z + 1.0) / log_a,
            lambda z: (math.log1p(z) + z / (1.0 + z)) / log_a)


def lambda_mix(spec: DependenceSpec, x: float) -> float:
    """Mixing rate function ceil(psi^{-1}(1/x)) * x: closed form for
    polynomial decay, an integer search over k for exponential decay."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    if spec.kind == "independent":
        return x
    if spec.kind == "mixing_polynomial":
        # psi(z) = C_alpha z^(alpha+1), closed-form inverse
        psi_inv = (1.0 / (x * c_alpha(spec.alpha))) ** (1.0 / (spec.alpha + 1.0))
        return math.ceil(psi_inv) * x
    if spec.kind == "mixing_exponential":
        return _psi_ceil_inverse(*phi_exponential(spec.rho), 1.0 / x) * x
    raise ValueError(f"lambda_mix undefined for kind {spec.kind!r}")


def _psi_ceil_inverse(phi: Callable[[float], float], dphi: Callable[[float], float],
                      target: float) -> int:
    """ceil(psi^{-1}(target)) for the increasing psi(z) = phi*(z) z: the
    smallest integer k >= 1 with psi(k) >= target."""
    return _first_index(lambda k: conjugate(phi, dphi, k) * k >= target, 1, 2 ** 60,
                        "psi stays below 1/x for every k below 2^60")


# -- functional dependence ------------------------------------------------


_DIVERGENT_TAIL = ("Delta tail did not converge within the truncation horizon; "
                   "supply a delta_tail formula or a faster-decaying sequence")


def beta_dep(spec: DependenceSpec, q: int) -> float:
    """Tail sum of the Delta sequence from q onward."""
    if spec.kind == "independent":
        return 0.0
    if spec.delta is None:
        raise ValueError("spec has no Delta sequence")
    if spec.delta_tail is not None:
        return float(spec.delta_tail(q))
    horizon = q + 10_000_000
    # Delta is non-increasing, so every partial sum is at most
    # (horizon - q) * Delta(q) and every term at least Delta(horizon - 1).  If
    # that last term clears the stopping threshold (doubled to cover the
    # rounding of the running sum), no step of the walk below can stop it.
    if float(spec.delta(horizon - 1)) >= max(
            2e-15 * (horizon - q) * float(spec.delta(q)), 1e-315):
        raise NumericFailure(_DIVERGENT_TAIL)
    total = 0.0
    j = q
    while j < horizon:
        term = float(spec.delta(j))
        total += term
        if term < 1e-15 * max(total, 1e-300):
            return total
        j += 1
    raise NumericFailure(_DIVERGENT_TAIL)


def _first_index(pred: Callable[[int], bool], start: int, limit: int,
                 error: str | Callable[[], str], hint: int = 0) -> int:
    """Smallest i >= start with pred(i), for a pred that stays true once true.

    Gallops from max(start, hint), each probe twice as far from hint as the
    last: down while pred holds (not below start), up while it fails (raising
    NumericFailure(error), or error() for a callable, past ``limit``);
    then bisects the bracket.
    """
    lo = hi = max(start, hint)
    if pred(hi):
        while hi > start and pred(lo := max(start, hi - max(1, hint - hi))):
            hi = lo
    else:
        while (hi := lo + max(1, lo - hint)) <= limit and not pred(hi):
            lo = hi
        if hi > limit:
            raise NumericFailure(error() if callable(error) else error)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _root(pred: Callable[[float], bool], lo: float, hi: float, error: str) -> float:
    """Where pred turns true above lo, for a pred false at lo that stays true
    once true.

    Doubles hi until pred(hi) (raising NumericFailure(error) past
    1e200), then bisects [lo, hi] until the midpoint rounds onto an end, when
    no further step could move either; returns that hi.
    """
    while not pred(hi):
        hi *= 2.0
        if hi > 1e200:
            raise NumericFailure(error)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def _v_walker(spec: DependenceSpec) -> Callable[[float], float]:
    """V over one solve: j* searches gallop from the last j*, and each Delta(j)
    and tail is taken once; for a non-increasing Delta, bit for bit v_tilde."""
    delta = functools.cache(lambda j: float(spec.delta(j)))
    tail = functools.cache(lambda q: beta_dep(spec, q))
    j_star = 0

    def v(z: float) -> float:
        nonlocal j_star
        if z < 0.0:
            raise ValueError("z must be nonnegative")
        s = math.sqrt(z)
        if spec.delta is None or s == 0.0:
            return s
        if not (delta(j_star) <= s and (j_star == 0 or delta(j_star - 1) > s)):
            j_star = _first_index(lambda j: delta(j) <= s, 0, 2 ** 60, lambda: (
                f"Delta(j) stays above sqrt(z) = {s:.6g} for every j below 2^60"), hint=j_star)
        return s * (1 + j_star) + tail(j_star)

    return v


def v_tilde(spec: DependenceSpec, z: float) -> float:
    """Variance proxy sqrt(z) + sum_j min(sqrt(z), Delta(j)): one call of a
    fresh V walker, whose j* search starts from 0."""
    return _v_walker(spec)(z)


def lambda_dep(spec: DependenceSpec, x: float) -> float:
    """Functional-dependence rate function sqrt(x) * ybar(x).

    ybar is the minimal positive fixed point of V(sqrt(x) y) <= y, located
    by bisection on one V walker; the returned end satisfies the inequality.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    sqx = math.sqrt(x)
    v = _v_walker(spec)
    # V(z) >= sqrt(z) forces the positive fixed point ybar >= sqrt(x), so
    # sqrt(x)/2 always sits strictly below it, where V(sqrt(x) y) > y
    return sqx * _root(lambda y: v(sqx * y) <= y, 0.5 * sqx, max(1.0, sqx),
                       "no fixed point found; Delta not summable?")


def rate_function(spec: DependenceSpec, x: float) -> float:
    """The oracle inequality's rate function Lambda(x): ``lambda_dep`` under
    the functional dependence measure, else ``lambda_mix`` (x itself for
    independent data)."""
    if spec.delta is None:
        return lambda_mix(spec, x)
    return lambda_dep(spec, x)


def envelope_shape(spec: DependenceSpec) -> tuple[float, float, int]:
    """The (c, q, l) of ``rate_envelope``: the constant, rate exponent and log
    power of the kind's decay statement.  The mixing proofs give explicit
    constants (c_rho with a = (rho+1)/(2 rho)); the functional-dependence
    ones do not, so c = 1 there and callers fit one."""
    kind, al = spec.kind, spec.alpha
    if kind == "independent":
        return 1.0, 1.0, 0
    if kind == "mixing_polynomial":
        return 2.0 * c_alpha(al) ** (-1.0 / (al + 1.0)), al / (al + 1.0), 0
    if kind == "mixing_exponential":
        a = (spec.rho + 1.0) / (2.0 * spec.rho)
        return max(4.0 + 2.0 / math.log(a), 2.0 * (1.0 + math.e / (a - 1.0))), 1.0, 1
    if kind == "fdm_polynomial":
        return 1.0, al / (al + 1.0), 0
    if kind == "fdm_exponential":
        return 1.0, 1.0, 2
    raise ValueError(f"{kind} has no envelope shape: its Delta is measured, not a decay law")


def rate_envelope(spec: DependenceSpec, x: float) -> float:
    """c max(1, log(1/x))^l max(x^q, x), the envelope of ``rate_function``."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    c, q, l = envelope_shape(spec)
    return c * max(1.0, math.log(1.0 / x)) ** l * max(x ** q, x)


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
        for name in ("beta_dec", "beta_enc0", "beta_enc1"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("t_dec", "t_enc0", "t_enc1"):
            t = getattr(self, name)
            if int(t) != t or t < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {t}")

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
    return rate_function(spec, x) + float(N) ** (-2.0 * profile.A)
