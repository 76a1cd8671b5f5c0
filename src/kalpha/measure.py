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
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import (LN2, LOG_FLOAT_MAX, QuadResult, adaptive_quad,
                       quad_partition)


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
        trunc_mass = 2.0 / (a * LN2 ** a)
        if trunc_mass == math.inf:      # alpha below about 1.11e-308
            raise ValueError(f"alpha={a!r} makes the large-jump rate "
                             f"2/(alpha ln^alpha 2) overflow a float")
        object.__setattr__(self, "trunc_mass", trunc_mass)


def jump_moments(eta, caps, alpha: float, tol: float) -> list[float]:
    """For each cap X of the nondecreasing caps (each >= 1), the integral
    over [ln 2, ln(1+X)] of (e^u - 1)^eta u^-(1+alpha) du: the one-sided
    eta-th absolute moment of the jumps with 1 < |x| <= X.

    The grid is integrated once, as a partition, each piece to tol, and
    the pieces are summed cumulatively with math.fsum.  Raises
    ValueError when the integrand would overflow a float.  The integral
    then stays in range as well: it is at most (hi - lo) * max(f(lo),
    f(hi)) for the integrand f on [lo, hi] = [ln 2, ln(1 + max cap)],
    f(ln 2) is below 3, and (hi - lo) * f(hi) is below (e^hi - 1)^eta
    once hi >= 1."""
    ends = [math.log1p(X) for X in caps]
    lo, hi = LN2, ends[-1]

    def log_f(u):
        return eta * math.log(math.expm1(u)) - (1.0 + alpha) * math.log(u)

    # u * (log_f)'(u) increases, so log_f falls then rises and the
    # integrand, like its increasing factor (e^u - 1)^eta, peaks at an
    # end of [lo, hi]; the margin covers the rounding of the logs
    log_peak = max(log_f(lo), log_f(hi), eta * math.log(math.expm1(hi)))
    if log_peak > LOG_FLOAT_MAX - 1e-9:
        raise ValueError(f"moment integrand overflows a float: eta={eta!r}, "
                         f"ln(1 + cap)={hi!r}")
    # a cap of 1, or equal logs of neighbouring caps, adds no interval
    edges = sorted({lo, *ends})
    pieces = ([r.value for r in quad_partition(
        lambda u: np.expm1(u) ** eta * u ** (-1.0 - alpha), edges, tol=tol)]
        if len(edges) > 1 else [])
    upto = {edge: math.fsum(pieces[:k]) for k, edge in enumerate(edges)}
    return [upto[end] for end in ends]


def levy_density(x: float, p: KAlphaParams) -> float:
    """Two-sided density at x != 0; diverges like |x|^-(1+alpha) at 0."""
    if x == 0:
        raise ValueError("density diverges at x = 0")
    ax = abs(x)
    return 1.0 / ((1.0 + ax) * math.log1p(ax) ** (1.0 + p.alpha))


def tail_one_sided(r: float, p: KAlphaParams) -> float:
    """Mass of the truncated measure on (r, inf), for r >= 1."""
    if not r >= 1.0:                # NaN included
        raise ValueError(f"tail defined for r >= 1, got {r!r}")
    return 1.0 / (p.alpha * math.log1p(r) ** p.alpha)


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


def truncated_moments(eta: float, caps, p: KAlphaParams) -> list[float]:
    """Two-sided eta-th absolute moment of the large jumps capped at X,
    for each cap X of the nondecreasing caps.

    Equals 2 * integral over [ln 2, ln(1+X)] of (e^u - 1)^eta u^-(1+alpha).
    Unbounded as X grows, whatever eta > 0.
    """
    if not eta > 0:                 # NaN included
        raise ValueError(f"eta must be positive, got {eta!r}")
    caps = [float(X) for X in caps]
    if any(X < 1.0 for X in caps):
        raise ValueError("cap X must be >= 1")
    if any(b < a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be nondecreasing")
    return [2.0 * m for m in jump_moments(eta, caps, p.alpha, tol=1e-11)]


def truncated_moment(eta: float, X: float, p: KAlphaParams) -> float:
    """truncated_moments at the one cap X."""
    return truncated_moments(eta, [X], p)[0]


def pruitt_indices(rs, p: KAlphaParams) -> list[float]:
    """Growth index h-bar(r) of the large-jump part at each radius of
    the nondecreasing rs, each r >= 1.

    Sum of the two-sided tail mass beyond r, r^-2 times the second
    moment of the jumps with 1 < |x| <= r, and r^-1 times their first
    moment.  The first-moment term vanishes identically (odd integrand
    against a symmetric measure) and is not computed.  The second
    moments come from one partition of the whole grid.
    """
    rs = [float(r) for r in rs]
    for r in rs:
        if r < 1.0:
            raise ValueError(f"index defined for r >= 1, got {r!r}")
        if math.isinf(r * r):
            raise ValueError(f"radius {r!r} too large: r^2 overflows a float")
    if any(b < a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be nondecreasing")
    seconds = jump_moments(2, rs, p.alpha, tol=1e-12)
    return [2.0 * tail_one_sided(r, p) + 2.0 * second / r ** 2
            for r, second in zip(rs, seconds)]


def pruitt_index(r: float, p: KAlphaParams) -> float:
    """pruitt_indices at the one radius r."""
    return pruitt_indices([r], p)[0]


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
    if not lam >= 0:                # NaN included
        raise ValueError(f"lambda must be nonnegative, got {lam!r}")
    if lam == 0.0:
        return 0.0
    a = p.alpha
    log_lam = math.log(lam)
    # ln(1 + 745/lam); for lam below 745/DBL_MAX the ratio overflows and
    # the 1 is below its rounding
    ratio = 745.0 / lam
    u_switch = (math.log1p(ratio) if ratio < math.inf
                else math.log(745.0) - log_lam)

    if u_switch < LOG_FLOAT_MAX:
        def integrand(u):
            # no node reaches e^u's overflow (u <= u_switch), so the
            # operations of the branch below, in place
            x = np.expm1(u)
            x *= lam
            np.negative(x, out=x)
            np.expm1(x, out=x)
            np.negative(x, out=x)
            x *= u ** (-1.0 - a)
            return x
    else:
        def integrand(u):
            # lam (e^u - 1), in logs where e^u overflows (there e^u - 1 = e^u)
            big = u >= LOG_FLOAT_MAX
            x = np.where(big, np.exp(log_lam + u),
                         lam * np.expm1(np.where(big, 0.0, u)))
            return -np.expm1(-x) * u ** (-1.0 - a)

    # beyond the switch the factor is exactly 1 in floats, so the tail
    # integrates in closed form; the head is split into doubling chunks
    # (for tiny lambda the mass sits just below the far-away switch point,
    # which a single wide panel could miss), all integrated in one call
    edges = [LN2]
    while edges[-1] < u_switch:
        edges.append(min(max(2.0 * edges[-1], 2.0), u_switch))
    head = (quad_partition(integrand, edges, tol=1e-13) if len(edges) > 1
            else [])
    return math.fsum([max(LN2, u_switch) ** (-a) / a,
                      *(r.value for r in head)])


# ---------------------------------------------------------------------------
# growth envelopes and upper-function integrals
# ---------------------------------------------------------------------------

# each kind's parameters, each above its floor; the others must be left out
ENVELOPE_PARAMS = {"power": ("beta",), "exponential": ("c",),
                   "power_exponential": ("beta", "c")}
_PARAM_FLOORS = {"beta": 1.0, "c": 0.0}


@dataclass(frozen=True)
class EnvelopeSpec:
    """A tagged increasing growth function on [1, inf).

    power:             f(t) = t^beta,            beta > 1
    exponential:       f(t) = exp(c t),          c > 0
    power_exponential: f(t) = exp(c t^beta),     c > 0, beta > 1

    exponential is the beta = 1 member of the power-exponential family,
    so both are computed from ln f(t) = c t^p with p = 1 or beta.
    """

    kind: str
    beta: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ENVELOPE_PARAMS:
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        for name, floor in _PARAM_FLOORS.items():
            value = getattr(self, name)
            if name not in ENVELOPE_PARAMS[self.kind]:
                if value is not None:
                    raise ValueError(f"{self.kind} envelope takes no {name}, "
                                     f"got {name}={value!r}")
            elif value is None or not value > floor:
                raise ValueError(f"{self.kind} envelope requires {name} > "
                                 f"{floor:g}, got {value!r}")

    @property
    def _p(self) -> float:
        """The exponent p in ln f(t) = c t^p of the exponential kinds."""
        return 1.0 if self.beta is None else self.beta

    def log_value(self, t: float) -> float:
        """ln f(t) for t > 0; math.inf where c t^p overflows a float."""
        if self.kind == "power":
            return self.beta * math.log(t)
        log_tp = self._p * math.log(t)
        if log_tp < 700.0:
            return self.c * t ** self._p
        log_w = math.log(self.c) + log_tp
        return math.inf if log_w > LOG_FLOAT_MAX else math.exp(log_w)

    def crossing_time(self, logmag: float) -> float:
        """Smallest t with ln f(t) >= logmag (0 when already exceeded).

        Computed entirely from the log magnitude; the power case clips
        to +inf rather than overflowing.
        """
        if self.kind == "power":
            e = logmag / self.beta
            return math.inf if e > 700.0 else math.exp(e)
        if logmag <= 0.0:
            return 0.0
        return (logmag / self.c) ** (1.0 / self._p)

    def log_tail_argument(self, x):
        """ln of ln(1 + f(x)), elementwise for an array x >= 1, stable for
        envelope values beyond float range."""
        x = np.asarray(x, dtype=float)
        # the powers are formed directly (to an ulp) while they stay below
        # e^700, and only from their logs beyond
        if self.kind == "power":
            t = self.beta * np.log(x)
            big = t > 700.0
            out = np.log(np.where(big, t,
                                  np.log1p(np.where(big, 1.0, x) ** self.beta)))
        else:
            # p ln x beyond the float range is inf, and so is ln ln(1 + f):
            # c x^p exceeds e^(float max) there
            with np.errstate(over="ignore"):
                log_xp = self._p * np.log(x)
            logw = math.log(self.c) + log_xp
            small = log_xp < 700.0
            w = np.where(small, self.c * np.where(small, x, 1.0) ** self._p,
                         np.exp(np.minimum(logw, 700.0)))
            out = np.where(logw > 700.0, logw,
                           np.log(w + np.log1p(np.exp(-w))))
        return out if out.ndim else float(out)

    def converges_at(self, alpha: float) -> bool:
        """Is the upper-function integral finite at index alpha?"""
        return self.kind != "power" and alpha * self._p > 1.0

    def describe(self) -> str:
        if self.kind == "power":
            return f"pow:beta={self.beta:g}"
        if self.kind == "exponential":
            return f"exp:c={self.c:g}"
        return f"powexp:c={self.c:g},beta={self.beta:g}"


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
    analytic classification is cross-checked against the dyadic tail
    verdict of the quadrature engine; disagreement raises
    ConsistencyError.

    The integrand is taken at unit tail mass, without the tail's factor
    1/alpha, which would overflow the quadrature's sums as alpha -> 0.
    An exponential kind exp(c x^p) is integrated in its own scale
    y = c^(1/p) x, over [c^(1/p), inf) at c = 1, whose decay starts near
    y = 1 whatever c.  The result is scaled once by c^(-1/p) / alpha.
    Raises ValueError when I exceeds the float range.
    """
    a = p.alpha
    # ln c^(-1/p); 0 for a power envelope or c = 1
    log_scale = 0.0 if env.kind == "power" else -math.log(env.c) / env._p
    if log_scale > LOG_FLOAT_MAX:
        raise ValueError(f"envelope {env.describe()}: c^(-1/p) and the "
                         "upper-function integral exceed the float range")
    unit = replace(env, c=1.0) if log_scale else env

    def integrand(y):
        # a ln ln(1 + f) beyond the float range is -inf here: the tail
        # (ln(1 + f))^-a is below e^-(float max), so e^-inf = 0 is its value
        with np.errstate(over="ignore"):
            return np.exp(-a * unit.log_tail_argument(y))

    analytic = env.converges_at(a)
    res = adaptive_quad(integrand, math.exp(-log_scale), math.inf, tol=1e-9)
    numeric = not res.diverged
    if numeric != analytic:
        raise ConsistencyError(
            f"envelope {env.describe()} at alpha={a:g}: analytic says "
            f"{'convergent' if analytic else 'divergent'} but quadrature says "
            f"{'convergent' if numeric else 'divergent'}")
    scale = math.exp(log_scale)     # a finite float; / a may overflow to inf
    res = QuadResult(res.value * scale / a, res.abs_error * scale / a,
                     res.subdivisions, res.diverged)
    if res.value == math.inf:
        raise ValueError(f"envelope {env.describe()} at alpha={a:g}: the "
                         "upper-function integral exceeds the float range")
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
    a = p.alpha
    k_beta = {b: EnvelopeSpec("power_exponential", c=1.0, beta=b) for b in betas}
    reasons: dict[str, str] = {}

    upper_function_integral(EnvelopeSpec("power", beta=2.0), p)
    reasons["in_S_prime"] = (
        "power envelope t^2 has divergent upper-function integral "
        "(as does every power), so the supremum outgrows every polynomial")

    expo = upper_function_integral(EnvelopeSpec("exponential", c=1.0), p)
    reasons["in_K_prime"] = (
        f"upper-function integral of exp(t) is "
        f"{'finite' if expo.convergent else 'infinite'} at alpha={a:g} "
        f"(finite exactly when alpha > 1)")

    in_kb: dict[float, bool] = {}
    for b, env in k_beta.items():
        r = upper_function_integral(env, p)
        in_kb[b] = r.convergent
        reasons[f"in_K_beta[{b:g}]"] = (
            f"upper-function integral of exp(t^{b:g}) is "
            f"{'finite' if r.convergent else 'infinite'} at alpha={a:g} "
            f"(finite exactly when alpha*beta > 1)")

    return SupportVerdict(alpha=a, in_S_prime=False, in_K_prime=expo.convergent,
                          in_K_beta=in_kb, reasons=reasons)
