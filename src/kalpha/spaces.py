"""Test functions, weighted sup-norms, and the white-noise pairing.

Three families of smooth decaying functions are built in, each with
exact derivatives (polynomial recursions, no finite differences).
Norm computation is a log-domain grid search over the effective
support, refined by golden section; weighted sups that are infinite
are detected analytically and reported as math.inf, never left to a
wandering search.

The pairing of a path's distributional derivative with a test function
integrates -K(t) phi'(t) exactly over the constancy segments of the
large-jump path.  The segment sum is regrouped on the max-Cartesian tree
of the jump sizes, whose levels one O(n) stack pass builds as plain
floats scaled by each node's own jump; the terms are then summed
exactly by numerics.slv_sum.  A summation-by-parts form over the
jumps themselves, summed the same way, serves as an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .numerics import SLV_ZERO, SignedLogValue, slv_sum
from .paths import EventPath

_GRID_POINTS = 1 << 16
_LOG_FLOOR = -350.0           # effective support: where the log objective dies


def _decaying(y, at_infinity, fn, exponent):
    """fn(y) elementwise, where fn is a polynomial times exp(-exponent(y))
    or the log of that product.  Where the exponential has underflowed
    to 0, the polynomial may overflow and fn give inf * 0 = NaN or an
    infinite log; there the value is at_infinity, the family's limit,
    without a warning.  Elsewhere numpy's overflow warnings stand.
    A log of a vanishing derivative is -inf, without a warning."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        far = np.exp(-exponent(y)) == 0.0
    out = np.empty_like(y)
    with np.errstate(divide="ignore"):
        out[~far] = fn(y[~far])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tail = fn(y[far])
    out[far] = np.where(np.isfinite(tail), tail, at_infinity)
    return out if out.ndim else float(out)


class TestFunction:
    """Base for the built-in families.  Subclasses provide exact
    derivatives of any requested order (the bump family caps at 8);
    calling a test function evaluates its derivative of order 0."""

    max_order = None  # unlimited unless overridden

    def __call__(self, x):
        return self.deriv(0, x)

    def deriv(self, n, x):
        raise NotImplementedError

    def log_abs_deriv(self, n, x):
        """ln |phi^(n)(x)| elementwise, -inf where the derivative vanishes."""
        raise NotImplementedError

    def support(self):
        """(lo, hi) for compactly supported families, else None."""
        return None

    def decay(self):
        """(degree, rate) meaning |phi(x)| ~ exp(-rate * |x|^degree)."""
        raise NotImplementedError

    def _check_order(self, n):
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.max_order is not None and n > self.max_order:
            raise ValueError(
                f"{type(self).__name__} supports derivatives up to order "
                f"{self.max_order}, got {n}")


class Gaussian(TestFunction):
    """exp(-((x - center)/scale)^2); derivatives via the Hermite recursion."""

    def __init__(self, center=0.0, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.center = float(center)
        self.scale = float(scale)

    def _y(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.scale

    @staticmethod
    def _hermite(n, y):
        # physicists' H_n by upward recursion
        h_prev = np.ones_like(y)
        if n == 0:
            return h_prev
        h = 2.0 * y
        for k in range(1, n):
            h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
        return h

    def deriv(self, n, x):
        self._check_order(n)
        sign = -1.0 if n % 2 else 1.0
        return _decaying(self._y(x), 0.0, lambda y: sign * self.scale ** (-n)
                         * self._hermite(n, y) * np.exp(-y * y), np.square)

    def log_abs_deriv(self, n, x):
        self._check_order(n)
        return _decaying(self._y(x), -np.inf,
                         lambda y: np.log(np.abs(self._hermite(n, y))) - y * y
                         - n * math.log(self.scale), np.square)

    def support(self):
        return None

    def decay(self):
        return 2.0, 1.0 / self.scale ** 2

    def describe(self):
        return f"gaussian:center={self.center:g},scale={self.scale:g}"


def _bump_polys(order):
    """Numerator polynomials P_n with phi^(n) = phi * P_n(y) / (1-y^2)^(2n)."""
    one_m_y2 = Polynomial([1.0, 0.0, -1.0])
    polys = [Polynomial([1.0])]
    k = 0
    for _ in range(order):
        p = polys[-1]
        nxt = (p.deriv() * one_m_y2 ** 2
               + Polynomial([0.0, 2.0 * k]) * p * one_m_y2
               - Polynomial([0.0, 2.0]) * p)
        polys.append(nxt)
        k += 2
    return polys


class Bump(TestFunction):
    """exp(-1/(1-y^2)) on |y| < 1 with y = (x - center)/width, zero outside.

    Derivatives are exact via nested chain rule, precomputed as
    polynomial numerators; orders above 8 are refused.
    """

    max_order = 8
    _polys = _bump_polys(8)

    def __init__(self, center=0.0, width=1.0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.center = float(center)
        self.width = float(width)

    def _y(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.width

    def deriv(self, n, x):
        self._check_order(n)
        y = self._y(x)
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        g = 1.0 - yi * yi
        # combine the exponentials so the (1-y^2)^-2n pole cannot overflow
        expo = -1.0 / g - 2.0 * n * np.log(g)
        out[inside] = self._polys[n](yi) * np.exp(expo) * self.width ** (-n)
        return out if out.ndim else float(out)

    def log_abs_deriv(self, n, x):
        self._check_order(n)
        y = self._y(x)
        out = np.full_like(y, -np.inf)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        g = 1.0 - yi * yi
        with np.errstate(divide="ignore"):
            out[inside] = (np.log(np.abs(self._polys[n](yi)))
                           - 1.0 / g - 2.0 * n * np.log(g)
                           - n * math.log(self.width))
        return out if out.ndim else float(out)

    def support(self):
        return self.center - self.width, self.center + self.width

    def decay(self):
        return math.inf, math.inf  # compact support beats any weight

    def describe(self):
        return f"bump:center={self.center:g},width={self.width:g}"


class ExpPoly(TestFunction):
    """exp(-rate * x^degree) for even degree >= 2.

    The even-degree constraint keeps the family smooth on the whole
    line with super-exponential decay, so every exponential-weight
    norm of it is finite.
    """

    def __init__(self, rate=1.0, degree=4):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if degree < 2 or degree % 2:
            raise ValueError(f"degree must be an even integer >= 2, got {degree!r}")
        self.rate = float(rate)
        self.degree = int(degree)
        self._q_polys = [Polynomial([1.0])]

    def _q(self, n):
        # Q_{n+1} = Q' - rate*degree*x^(degree-1) * Q; rebuilt locally and
        # swapped in atomically so concurrent callers cannot see a torn list
        polys = self._q_polys
        if len(polys) <= n:
            polys = list(polys)
            factor = Polynomial([0.0] * (self.degree - 1) + [self.rate * self.degree])
            while len(polys) <= n:
                polys.append(polys[-1].deriv() - factor * polys[-1])
            self._q_polys = polys
        return polys[n]

    def deriv(self, n, x):
        self._check_order(n)
        q = self._q(n)
        return _decaying(x, 0.0, lambda y: q(y) * np.exp(-self._exponent(y)),
                         self._exponent)

    def log_abs_deriv(self, n, x):
        self._check_order(n)
        q = self._q(n)
        return _decaying(x, -np.inf,
                         lambda y: np.log(np.abs(q(y))) - self._exponent(y),
                         self._exponent)

    def _exponent(self, y):
        return self.rate * y ** self.degree

    def support(self):
        return None

    def decay(self):
        return float(self.degree), self.rate

    def describe(self):
        return f"exppoly:rate={self.rate:g},degree={self.degree}"


# ---------------------------------------------------------------------------
# weighted sup-norms
# ---------------------------------------------------------------------------

def _weight_wins(phi: TestFunction, p: int, beta: float) -> bool:
    """Does exp(p |x|^beta) beat the family's decay?  (Then the sup is inf.)"""
    if p == 0 or phi.support() is not None:
        return False
    degree, rate = phi.decay()
    return beta > degree or (beta == degree and p >= rate)


def _golden_max(obj, a: float, b: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(120):
        if b - a < 1e-13 * (1.0 + abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = obj(d)
    return max(fc, fd)


def _search_bound(log_obj, start: float) -> float:
    """Double outward until the log objective is dead and falling."""
    b = max(1.0, start)
    for _ in range(80):
        lo = max(log_obj(np.array([-b]))[0], log_obj(np.array([b]))[0])
        lo2 = max(log_obj(np.array([-2 * b]))[0], log_obj(np.array([2 * b]))[0])
        if lo < _LOG_FLOOR and lo2 < lo:
            return 2 * b
        b *= 2.0
    raise ArithmeticError("could not bracket the weighted sup; is it finite?")


def _weighted_sup(phi: TestFunction, q: int, weight_log) -> float:
    """sup over x of exp(weight_log(x)) * |phi^(q)(x)| via grid + golden."""
    sup_range = phi.support()
    if sup_range is not None:
        lo, hi = sup_range
    else:
        def log_obj_arr(xs):
            return weight_log(xs) + phi.log_abs_deriv(q, xs)
        scale = getattr(phi, "scale", None) or getattr(phi, "width", 1.0)
        center = getattr(phi, "center", 0.0)
        bound = _search_bound(log_obj_arr, abs(center) + 10.0 * scale)
        lo, hi = -bound, bound
    xs = np.linspace(lo, hi, _GRID_POINTS)
    vals = weight_log(xs) + phi.log_abs_deriv(q, xs)
    i = int(np.argmax(vals))
    if not np.isfinite(vals[i]):
        return 0.0

    def obj(x):
        xa = np.array([x])
        return float(weight_log(xa)[0] + phi.log_abs_deriv(q, xa)[0])

    a = xs[max(0, i - 1)]
    b = xs[min(len(xs) - 1, i + 1)]
    best = max(float(vals[i]), _golden_max(obj, float(a), float(b)))
    return math.exp(best)


def s_norm(phi: TestFunction, p: int, r: int) -> float:
    """sup |x^p phi^(r)(x)|, the polynomial-weight seminorm."""
    if p < 0 or r < 0:
        raise ValueError("orders must be nonnegative")
    phi._check_order(r)

    def weight_log(xs):
        if p == 0:
            return np.zeros_like(xs)
        with np.errstate(divide="ignore"):
            return p * np.log(np.abs(xs))

    return _weighted_sup(phi, r, weight_log)


def _exp_weight_norm(phi: TestFunction, p: int, beta: float) -> float:
    if _weight_wins(phi, p, beta):
        return math.inf

    def weight_log(xs):
        return p * np.abs(xs) ** beta

    best = 0.0
    for q in range(p + 1):
        best = max(best, _weighted_sup(phi, q, weight_log))
    return best


def k_norm(phi: TestFunction, p: int) -> float:
    """max over q <= p of sup e^(p|x|) |phi^(q)(x)|.

    The absolute value is taken inside the sup, the usual seminorm
    convention.  Finite for every built-in family since they all decay
    faster than any exponential.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    phi._check_order(p)
    return _exp_weight_norm(phi, p, 1.0)


def kbeta_norm(phi: TestFunction, p: int, beta: float) -> float:
    """Same as k_norm with weight e^(p|x|^beta), beta > 1.

    Returns math.inf when the weight beats the family's decay (for
    example a gaussian against beta >= 2 with p >= 1): the divergence
    is decided analytically, not by a runaway search.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1, got {beta!r}")
    phi._check_order(p)
    return _exp_weight_norm(phi, p, beta)


# ---------------------------------------------------------------------------
# white-noise pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingResult:
    """Pairing of the path's distributional derivative with phi.

    value is the regrouped segment sum for -integral K(t) phi'(t) dt;
    crosscheck is the independent summation-by-parts form (jump sizes
    times phi at the jump times, minus the horizon boundary term).
    rel_err is |v - c| / max(|v|, |c|) for the two exact sums v and c,
    before their logs are rounded, and truncation_warning marks pairings
    where phi has not died out by the path horizon, so the
    finite-horizon integral truncates the intended one over all of
    t >= 0.
    """

    value: SignedLogValue
    crosscheck: SignedLogValue
    rel_err: float
    truncation_warning: bool


def _record(ref: float, total: float) -> SignedLogValue:
    """The sum total * e^ref that slv_sum hands back, as a log-domain record."""
    if total == 0.0:
        return SLV_ZERO
    return SignedLogValue(1 if total > 0 else -1, ref + math.log(abs(total)))


def _segment_levels(lj: list, signs: list) -> tuple[list, list]:
    """Segment levels of the regrouped pairing sum, in one stack pass.

    Node i of the max-Cartesian tree of the jump sizes (ties: the
    leftmost index is the ancestor) covers the events from just after
    its previous jump at least as large up to, not including, its next
    strictly larger jump hi[i] (n past the last event).  Its level, the
    sum of the jumps from the start of that range to i, is returned
    scaled by its own jump: a[i] = level / e^lj[i], a plain float of
    magnitude at most the subtree size.  Popping every smaller entry
    when i arrives both closes their ranges at i and hands their levels
    to i, so each event is pushed and popped once.
    """
    n = len(lj)
    a = [0.0] * n
    hi = [n] * n
    stack: list[int] = []
    exp = math.exp
    for i, (x, s) in enumerate(zip(lj, signs)):
        acc = float(s)
        while stack and lj[stack[-1]] < x:
            p = stack.pop()
            hi[p] = i
            acc += a[p] * exp(lj[p] - x)
        a[i] = acc
        stack.append(i)
    return a, hi


def pair_white_noise(path: EventPath, phi: TestFunction) -> PairingResult:
    """Exact pairing for the piecewise-constant large-jump path.

    The path is constant between events, so -integral K phi' over
    [0, horizon] equals -sum_i K_i (phi(t_{i+1}) - phi(t_i)) over
    constancy segments.  That flat sum is regrouped on the max-Cartesian
    tree of the jump sizes: each jump i contributes its segment level
    times phi(t_i) - phi(t_hi(i)), where hi(i) is its next strictly
    larger jump (the horizon if none), so the phi differences telescope
    in native floats and no product is formed at a scale beyond its
    own.  The levels come from one O(n) stack pass (_segment_levels);
    the terms are summed exactly after rescaling.  The cross-check is
    the summation-by-parts form of the same truncated integral,
    sum_j jump_j * phi(t_j) minus the boundary term
    K(horizon) * phi(horizon), summed the same way but sharing nothing
    with the stack pass; the boundary piece cannot be dropped because
    a huge jump makes it significant even when phi(horizon) is tiny.
    Only the jumps with |x| > 1 are paired: the rest of the process lies
    in S' and cannot change whether the pairing is bounded.
    """
    lj = path.log_jumps
    signs = path.signs.astype(float)
    phi_at = np.asarray(phi.deriv(0, path.times), dtype=float)
    phi_end = float(phi.deriv(0, path.horizon))

    # int signs: -1 and +1 are shared objects, so that list allocates no
    # per-event floats
    a, hi = _segment_levels(lj.tolist(), path.signs.tolist())
    phi_next = np.append(phi_at, phi_end)[np.asarray(hi, dtype=np.intp)]
    ref_v, tot_v = slv_sum(lj, np.asarray(a) * (phi_at - phi_next))
    ref_c, tot_c = slv_sum(np.concatenate([lj, lj]),
                           np.concatenate([signs * phi_at, -signs * phi_end]))
    value, cross = _record(ref_v, tot_v), _record(ref_c, tot_c)

    # compare the exact totals at one reference log, not the rounded logs
    ref = max(ref_v, ref_c)
    if ref == -math.inf:
        rel_err = 0.0  # both sums are zero
    else:
        tot_v *= math.exp(ref_v - ref)
        tot_c *= math.exp(ref_c - ref)
        rel_err = abs(tot_v - tot_c) / max(abs(tot_v), abs(tot_c))

    warn = False
    k_end = _record(*slv_sum(lj, signs)) if phi_end != 0.0 else SLV_ZERO
    if not k_end.is_zero:
        boundary_log = k_end.logmag + math.log(abs(phi_end))
        ref_log = value.logmag if not value.is_zero else 0.0
        warn = boundary_log > ref_log + math.log(1e-9)

    return PairingResult(value=value, crosscheck=cross,
                         rel_err=rel_err, truncation_warning=warn)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

_FAMILIES = {
    "gaussian": (Gaussian, {"center": 0.0, "scale": 1.0}),
    "bump": (Bump, {"center": 0.0, "width": 1.0}),
    "exppoly": (ExpPoly, {"rate": 1.0, "degree": 4}),
}


def parse_descriptor(text: str, keys: dict, lists=()) -> tuple[str, dict]:
    """Read a descriptor like "name:key=v,key2=v,v" into (name, fields).

    keys maps each accepted name to the keys it accepts; the name ""
    stands for a descriptor without a "name:" prefix.  Names match
    case-insensitively.  A key named in lists maps to a list of one or
    more values, every other key to exactly one value.  Values must be
    finite numbers; unknown or repeated keys and values before the
    first key are refused with ValueError.
    """
    name, colon, body = text.partition(":")
    if not colon and "" in keys:
        name, body = "", text
    name = name.strip().lower()
    if name not in keys:
        known = ", ".join(sorted(n for n in keys if n)) or "no name prefix"
        raise ValueError(f"unknown name {name!r} in {text!r} (expected {known})")
    fields: dict[str, list[float]] = {}
    current = None
    for token in body.split(","):
        key, eq, token = token.rpartition("=")
        key, token = key.strip(), token.strip()
        if eq:
            if key not in keys[name]:
                raise ValueError(f"unknown key {key!r} in {text!r} "
                                 f"(expected one of {', '.join(keys[name])})")
            if key in fields:
                raise ValueError(f"repeated key {key!r} in {text!r}")
            current = fields[key] = []
        if not token:
            continue
        if current is None:
            raise ValueError(f"value {token!r} before any key in {text!r}")
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {token!r} in {text!r}")
        current.append(value)
    for key, values in fields.items():
        if not values or (key not in lists and len(values) > 1):
            raise ValueError(f"key {key!r} takes "
                             f"{'one or more values' if key in lists else 'one value'}"
                             f" in {text!r}")
    return name, {k: v if k in lists else v[0] for k, v in fields.items()}


def parse_test_function(descriptor: str) -> TestFunction:
    """Build a test function from text like "gaussian:center=0,scale=1"."""
    name, fields = parse_descriptor(
        descriptor, {name: tuple(defaults)
                     for name, (_, defaults) in _FAMILIES.items()})
    cls, defaults = _FAMILIES[name]
    return cls(**{**defaults, **fields})
