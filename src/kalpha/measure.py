"""Closed forms and quadrature functionals of the heavy-tailed jump measure.

The two-sided Levy density is 1 / ((1+|x|) ln^(1+a)(1+|x|)) with index
a in (0, 2).  Under the substitution u = ln(1+x) every integral of
interest becomes an integral of u^-(1+a) against a simple factor, which
is how all quadrature here is phrased.  The large-jump truncation keeps
|x| > 1; its one-sided tail mass beyond r is 1/(a ln^a(1+r)).

Convention: the measure is symmetric and every *two-sided* quantity
(truncated mass, truncated moments, the growth index h-bar) carries an
explicit factor 2 over the one-sided tail formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import LN2, LOG_FLOAT_MAX, QuadResult, adaptive_quad


class ConsistencyError(Exception):
    """An analytic classification disagrees with its numerical cross-check."""


@dataclass(frozen=True)
class KAlphaParams:
    """Process index plus the derived constants used everywhere else.

    trunc_mass is the total two-sided mass of the large-jump part
    (|x| > 1), 2/(alpha ln^alpha 2), the rate of the simulated paths.
    """

    alpha: float
    trunc_mass: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(
                f"alpha must lie in the open interval (0, 2), got {self.alpha!r}")
        a = self.alpha
        object.__setattr__(self, "trunc_mass", 2.0 / (a * LN2 ** a))


def jump_moment_integral(eta, lo: float, hi: float, alpha: float,
                         tol: float) -> float:
    """Integral over [lo, hi] of (e^u - 1)^eta u^-(1+alpha) du: the
    one-sided eta-th absolute moment of the jumps with ln(1+|x|) in
    [lo, hi].  Raises ValueError when the integrand would overflow a
    float.  For lo = ln 2 the integral then stays in range as well: it
    is at most (hi - lo) * max(f(lo), f(hi)) for the integrand f,
    f(ln 2) is below 3, and (hi - lo) * f(hi) is below (e^hi - 1)^eta
    once hi >= 1."""
    def log_f(u):
        return eta * math.log(math.expm1(u)) - (1.0 + alpha) * math.log(u)

    # u * (log_f)'(u) increases, so log_f falls then rises and the
    # integrand, like its increasing factor (e^u - 1)^eta, peaks at an
    # end of [lo, hi]; the margin covers the rounding of the logs
    log_peak = max(log_f(lo), log_f(hi), eta * math.log(math.expm1(hi)))
    if log_peak > LOG_FLOAT_MAX - 1e-9:
        raise ValueError(f"moment integrand overflows a float: eta={eta!r}, "
                         f"ln(1 + cap)={hi!r}")
    return adaptive_quad(lambda u: math.expm1(u) ** eta * u ** (-1.0 - alpha),
                         lo, hi, tol=tol).value


def levy_density(x: float, p: KAlphaParams) -> float:
    """Two-sided density at x != 0; diverges like |x|^-(1+alpha) at 0."""
    if x == 0:
        raise ValueError("density diverges at x = 0")
    ax = abs(x)
    return 1.0 / ((1.0 + ax) * math.log1p(ax) ** (1.0 + p.alpha))


def tail_one_sided(r: float, p: KAlphaParams) -> float:
    """Mass of the truncated measure on (r, inf), for r >= 1."""
    if r < 1.0:
        raise ValueError(f"tail defined for r >= 1, got {r!r}")
    return 1.0 / (p.alpha * math.log1p(r) ** p.alpha)


def log_mag_survival(ell: float, p: KAlphaParams) -> float:
    """Survival of ell = ln(1+|jump|) for a large jump: (ln2 / ell)^alpha."""
    if ell < LN2:
        raise ValueError(f"large-jump log magnitudes start at ln 2, got {ell!r}")
    return (LN2 / ell) ** p.alpha


def inverse_tail(u, p: KAlphaParams):
    """Sampling transform: the ell = ln(1+x) whose normalised one-sided
    survival equals u, elementwise for an array u.  Returns the log of
    (1 + magnitude), never the magnitude itself, because ell can exceed
    the float exponent range.
    """
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u <= 1.0)
    if not inside.all():
        raise ValueError(f"u must lie in (0, 1], got {float(u[~inside].flat[0])!r}")
    ell = LN2 * u ** (-1.0 / p.alpha)
    return ell if ell.ndim else float(ell)


def truncated_moment(eta: float, X: float, p: KAlphaParams) -> float:
    """Two-sided eta-th absolute moment of the large jumps capped at X.

    Equals 2 * integral over [ln 2, ln(1+X)] of (e^u - 1)^eta u^-(1+alpha).
    Unbounded as X grows, whatever eta > 0.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if X < 1.0:
        raise ValueError("cap X must be >= 1")
    if X == 1.0:
        return 0.0
    return 2.0 * jump_moment_integral(eta, LN2, math.log1p(X), p.alpha,
                                      tol=1e-11)


def solve_crossover(eta: float, p: KAlphaParams) -> float | None:
    """Largest ell = ln(1+x) with eta*ell = alpha*ln(ell).

    Beyond this point x^eta dominates ln^alpha(1+x).  Returns None when
    no root with ell > 1 exists, which happens exactly when
    alpha/eta <= e (the gap eta*ell - alpha*ln(ell) is then nonnegative
    everywhere).  The returned root satisfies
    |eta*ell - alpha*ln(ell)| < 1e-12.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    a = p.alpha
    if a / eta <= math.e:
        return None

    def gap(ell):
        return eta * ell - a * math.log(ell)

    lo = a / eta            # minimum of the gap, negative here
    hi = lo
    while gap(hi) <= 0.0:
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) < 1e-13:
            return mid
        if g < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= abs(mid) * 1e-16:
            break
    root = 0.5 * (lo + hi)
    if abs(gap(root)) >= 1e-12:
        raise ArithmeticError("crossover bisection failed to meet residual target")
    return root


def pruitt_index(r: float, p: KAlphaParams) -> float:
    """Growth index h-bar(r) of the large-jump part, r >= 1.

    Sum of the two-sided tail mass beyond r, r^-2 times the second
    moment of the jumps with 1 < |x| <= r, and r^-1 times their first
    moment.  The first-moment term vanishes identically (odd integrand
    against a symmetric measure) and is not computed.
    """
    if r < 1.0:
        raise ValueError(f"index defined for r >= 1, got {r!r}")
    if math.isinf(r * r):
        raise ValueError(f"radius {r!r} too large: r^2 overflows a float")
    total = 2.0 * tail_one_sided(r, p)
    if r > 1.0:
        second = jump_moment_integral(2, LN2, math.log1p(r), p.alpha, tol=1e-12)
        total += 2.0 * second / r ** 2
    return total


def laplace_exponent(lam: float, p: KAlphaParams) -> float:
    """One-sided subordinator exponent: integral of (1 - e^(-lam*x))
    against the truncated measure on (1, inf).

    Zero at lam = 0, nondecreasing and concave, saturating at
    tail_one_sided(1).  On the saturated plateau (lam from about 40 up)
    computed values may drop by a few ulp between neighbouring lam,
    within the quadrature tolerance tol=1e-13.  The exponential factor
    switches to its asymptotic value 1 once lam*x > 745 to avoid
    underflow churn.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return 0.0
    a = p.alpha
    u_switch = math.log1p(745.0 / lam)

    def integrand(u):
        return -math.expm1(-lam * math.expm1(u)) * u ** (-1.0 - a)

    # beyond the switch the factor is exactly 1 in floats, so the tail
    # integrates in closed form; the head is summed over doubling chunks
    # (for tiny lambda the mass sits just below the far-away switch point,
    # which a single wide panel could miss)
    lo = LN2
    total = max(lo, u_switch) ** (-a) / a
    while lo < u_switch:
        hi = min(max(2.0 * lo, 2.0), u_switch)
        total += adaptive_quad(integrand, lo, hi, tol=1e-13).value
        lo = hi
    return total


# ---------------------------------------------------------------------------
# growth envelopes and upper-function integrals
# ---------------------------------------------------------------------------

_ENVELOPE_KINDS = ("power", "exponential", "power_exponential")


@dataclass(frozen=True)
class EnvelopeSpec:
    """A tagged increasing growth function on [1, inf).

    power:             f(t) = t^beta,            beta > 1
    exponential:       f(t) = exp(c t),          c > 0
    power_exponential: f(t) = exp(c t^beta),     c > 0, beta > 1
    """

    kind: str
    beta: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in _ENVELOPE_KINDS:
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind in ("power", "power_exponential"):
            if self.beta is None or not self.beta > 1.0:
                raise ValueError(
                    f"{self.kind} envelope requires beta > 1, got {self.beta!r}")
        if self.kind in ("exponential", "power_exponential"):
            if self.c is None or not self.c > 0.0:
                raise ValueError(
                    f"{self.kind} envelope requires rate c > 0, got {self.c!r}")

    def log_value(self, t: float) -> float:
        """ln f(t) for t > 0."""
        if self.kind == "power":
            return self.beta * math.log(t)
        if self.kind == "exponential":
            return self.c * t
        return self.c * t ** self.beta

    def crossing_time(self, logmag: float) -> float:
        """Smallest t with ln f(t) >= logmag (0 when already exceeded).

        Computed entirely from the log magnitude; the power case clips
        to +inf rather than overflowing.
        """
        if self.kind == "power":
            e = logmag / self.beta
            if e > 700.0:
                return math.inf
            return math.exp(e)
        if self.kind == "exponential":
            return max(0.0, logmag / self.c)
        if logmag <= 0.0:
            return 0.0
        return (logmag / self.c) ** (1.0 / self.beta)

    def describe(self) -> str:
        if self.kind == "power":
            return f"pow:beta={self.beta:g}"
        if self.kind == "exponential":
            return f"exp:c={self.c:g}"
        return f"powexp:c={self.c:g},beta={self.beta:g}"


def _log_tail_argument(env: EnvelopeSpec, x: float) -> float:
    """ln of ln(1 + f(x)), stable for envelope values beyond float range."""
    if env.kind == "power":
        t = env.beta * math.log(x)
        L = t if t > 700.0 else math.log1p(x ** env.beta)
        return math.log(L)
    if env.kind == "exponential":
        w = env.c * x
        return math.log(w + math.log1p(math.exp(-w)))
    logw = math.log(env.c) + env.beta * math.log(x)
    if logw > 700.0:
        return logw
    w = env.c * x ** env.beta
    return math.log(w + math.log1p(math.exp(-w)))


def _analytic_convergent(env: EnvelopeSpec, alpha: float) -> bool:
    if env.kind == "power":
        return False
    if env.kind == "exponential":
        return alpha > 1.0
    return alpha * env.beta > 1.0


@dataclass(frozen=True)
class UpperFunctionResult:
    convergent: bool
    value: float | None
    quad: QuadResult


def upper_function_integral(env: EnvelopeSpec, p: KAlphaParams) -> UpperFunctionResult:
    """Convergence status and value of the tail integral
    I(f) = integral over [1, inf) of the one-sided tail evaluated at f(x).

    Convergence certifies f as an upper envelope of the running supremum:
    power envelopes always diverge, exponential ones converge exactly when
    alpha > 1, power-exponential ones exactly when alpha*beta > 1.  The
    analytic classification is cross-checked against the dyadic tail test
    of the quadrature engine; disagreement raises ConsistencyError.
    """
    a = p.alpha
    log_alpha = math.log(a)

    def integrand(x):
        return math.exp(-log_alpha - a * _log_tail_argument(env, x))

    analytic = _analytic_convergent(env, a)
    res = adaptive_quad(integrand, 1.0, math.inf, tol=1e-9)
    numeric = not res.diverged
    if numeric != analytic:
        raise ConsistencyError(
            f"envelope {env.describe()} at alpha={a:g}: analytic says "
            f"{'convergent' if analytic else 'divergent'} but quadrature says "
            f"{'convergent' if numeric else 'divergent'}")
    return UpperFunctionResult(analytic, res.value if analytic else None, res)


@dataclass(frozen=True)
class SupportVerdict:
    """Membership of the sample paths in the three distribution spaces."""

    alpha: float
    in_S_prime: bool
    in_K_prime: bool
    in_K_beta: dict[float, bool]
    reasons: dict[str, str]


def classify_support(p: KAlphaParams, betas: list[float]) -> SupportVerdict:
    """Support classification at index alpha, for the requested betas.

    Never in S' (no positive moment of the jump measure exists and power
    envelopes fail); in K' exactly when alpha > 1; in K'_beta exactly
    when alpha > 1/beta.  Each flag's reason cites the corresponding
    upper-function integral outcome, which is recomputed and
    cross-checked here.
    """
    for b in betas:
        if not b > 1.0:
            raise ValueError(f"each beta must exceed 1, got {b!r}")
    a = p.alpha
    reasons: dict[str, str] = {}

    power = upper_function_integral(EnvelopeSpec("power", beta=2.0), p)
    reasons["in_S_prime"] = (
        "power envelope t^2 has divergent upper-function integral "
        "(as does every power), so the supremum outgrows every polynomial")
    assert not power.convergent

    expo = upper_function_integral(EnvelopeSpec("exponential", c=1.0), p)
    in_k = a > 1.0
    reasons["in_K_prime"] = (
        f"upper-function integral of exp(t) is "
        f"{'finite' if expo.convergent else 'infinite'} at alpha={a:g} "
        f"(finite exactly when alpha > 1)")

    in_kb: dict[float, bool] = {}
    for b in betas:
        r = upper_function_integral(
            EnvelopeSpec("power_exponential", c=1.0, beta=b), p)
        in_kb[b] = r.convergent
        reasons[f"in_K_beta[{b:g}]"] = (
            f"upper-function integral of exp(t^{b:g}) is "
            f"{'finite' if r.convergent else 'infinite'} at alpha={a:g} "
            f"(finite exactly when alpha*beta > 1)")

    return SupportVerdict(alpha=a, in_S_prime=False, in_K_prime=in_k,
                          in_K_beta=in_kb, reasons=reasons)
