"""Test functions, weighted sup-norms, and the white-noise pairing.

Every built-in family is phi = e^g in its coordinate y = (x - center) /
scale and states only g and a_k = g^(k+1)(y) / k!; one recursion gives
the exact n-th derivative of each (no finite differences) as a sign and
a log magnitude.  The seminorms are returned as logs, so a norm beyond
the float range stays finite: one grid search in y over the effective
support serves every derivative order, refined by golden section.
Infinite weighted sups are decided analytically and reported as
math.inf, never left to a wandering search.

The pairing of a path's distributional derivative with a test function
integrates -K(t) phi'(t) exactly over the constancy segments of the
large-jump path.  The segment sum is regrouped on the max-Cartesian tree
of the jump sizes, whose levels one O(n) stack pass builds as plain
floats scaled by each node's own jump, multiplying each by its phi
difference as soon as its node is popped; the terms are then summed
exactly by numerics.slv_sum, from log jumps formed a block at a time.
A summation-by-parts form over the jumps themselves, summed the same
way, serves as an independent cross-check.  The pairing holds one
float64 array of the path's length plus one block.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .numerics import LN2, SLV_ZERO, SignedLogValue, slv_sum
from .paths import BLOCK, EventPath, _log_jumps

_GRID_POINTS = 1 << 16
_LOG_FLOOR = -350.0           # effective support: where the log objective dies


def _finite(name: str, value, positive: bool = True) -> float:
    """value as a float; ValueError unless it is finite (and positive)."""
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "a positive finite" if positive else "a finite"
        raise ValueError(f"{name} must be {kind} number, got {value!r}")
    return value


def _powers(x, first, count):
    """Rows x^first .. x^(first+count-1): one power, then running products
    (numpy's pow is slow on negative bases)."""
    out = np.empty((count,) + x.shape)
    out[0] = x ** first
    for k in range(1, count):
        np.multiply(out[k - 1], x, out=out[k])
    return out


class TestFunction:
    """Base for the built-in families, phi = e^g(y), y = (x - center) / scale.

    A family states only _g(y), the exponent g (-inf where phi is 0), and
    _taylor(n, y), the rows a_0 .. a_(K-1), K <= n, of a_k = g^(k+1)(y) / k!
    (a_k = 0 for k >= K) on a 1-d y, as signs and logs of magnitudes.  As
    phi' = g' phi, Leibniz's rule gives H_{m+1} = sum_k a_k H_{m-k} / (m + 1)
    for H_m = phi^(m) / (m! e^g), H_0 = 1, and ln |phi^(n)| = ln |H_n| +
    ln n! + g - n ln scale.  Where the a_k leave float range they are taken
    as 2^((k+1)s) b_k, with the integer s nearest 0 per point that keeps
    every |b_k| <= 2^700 and the largest >= 2^-700, and H_m as 2^(ms) times
    the same recursion over b.  Its values are rescaled by a power of two
    (exact) when they leave [2^-300, 2^300], the exponents carried apart,
    so no order overflows.
    Where e^g has underflowed to 0 (the far field) a non-finite log
    becomes -inf (sign 0), without warnings; elsewhere it stands.
    Calling a test function evaluates its derivative of order 0.
    """

    max_order = None  # unlimited unless overridden
    center = 0.0
    scale = 1.0

    def __call__(self, x):
        return self.deriv(0, x)

    def deriv(self, n, x):
        if n == 0:      # e^g, which the recursion gives at order 0 bit for bit
            y = self._y(x)
            with np.errstate(all="ignore"):
                out = np.exp(self._g(y.reshape(-1))).reshape(y.shape)
        else:
            sign, log = self._log_deriv(n, self._y(x))
            out = sign * np.exp(log)
        return out if out.ndim else float(out)

    def log_abs_deriv(self, n, x):
        """ln |phi^(n)(x)| elementwise, -inf where the derivative vanishes."""
        out = self._log_deriv(n, self._y(x))[1]
        return out if out.ndim else float(out)

    def support(self):
        """(lo, hi) for compactly supported families, else None."""
        return None

    def decay(self):
        """(degree, rate) meaning |phi| ~ exp(-rate * |y|^degree)."""
        raise NotImplementedError

    def _y(self, x):
        # a tiny scale sends x to +-inf, the right coordinate there
        with np.errstate(over="ignore"):
            return (np.asarray(x, dtype=float) - self.center) / self.scale

    def _log_deriv(self, n, y):
        """(sign, ln |phi^(n)|) at the coordinates y, arrays of y's shape."""
        self._check_order(n)
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            *_, last = self._series(n, y.reshape(-1))
            sign, log = self._finish(n, *last)
        return sign.reshape(y.shape), log.reshape(y.shape)

    def _series(self, n, y):
        """Yield (g, h, shift), H_m = h 2^shift, for m = 0 .. n on the 1-d y.

        H_j sits in row j mod w of a ring of w = len(a) rows, so step m
        weights the ring by a slice of the reversed a, doubled.  h and
        shift change in place: read each yield before the next, under
        np.errstate(all="ignore") (the far field overflows).
        """
        g = self._g(y)
        yield g, np.ones_like(y), 0
        if n == 0:
            return
        sign, log_a = self._taylor(n, y)
        k1, log2_a = np.arange(1, len(log_a) + 1)[:, None], log_a / LN2
        step = np.clip(0.0, np.ceil(np.max((log2_a - 700.0) / k1, axis=0)),
                       np.floor(np.max((log2_a + 700.0) / k1, axis=0)))
        step[~np.isfinite(step)] = 0.0      # no a_k, or the far field
        a = (sign * np.exp(log_a - k1 * step * LN2))[::-1]
        step = step.astype(np.int64)
        w, coef = len(a), np.concatenate([a, a])
        ring = np.zeros((w,) + y.shape)
        ring[0] = 1.0
        shift = np.zeros(y.shape, dtype=np.int64)
        h, e = np.empty_like(y), np.empty(y.shape, np.intc)
        for m in range(n):
            s, row = (w - 1 - m) % w, ring[(m + 1) % w]
            np.einsum("kp,kp->p", coef[s:s + w], ring, out=h)
            np.divide(h, m + 1, out=row)
            shift += step
            np.frexp(row, out=(h, e))
            if np.abs(e, out=e).max() > 300:
                out = e > 300
                _, up = np.frexp(np.abs(ring[:, out]).max(axis=0))
                ring[:, out] = np.ldexp(ring[:, out], -up)
                shift[out] += up
            yield g, row, shift

    def _finish(self, n, g, h, shift):
        """(sign, ln |phi^(n)|) from g and H_n = h 2^shift, far field masked."""
        const = math.lgamma(n + 1) - n * math.log(self.scale)
        log = np.log(np.abs(h)) + shift * LN2 + const + g
        far = ~np.isfinite(log)
        far[far] = np.exp(g[far]) == 0.0
        return np.where(far, 0.0, np.sign(h)), np.where(far, -np.inf, log)

    def _check_order(self, n):
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.max_order is not None and n > self.max_order:
            raise ValueError(
                f"{type(self).__name__} supports derivatives up to order "
                f"{self.max_order}, got {n}")


class ExpPoly(TestFunction):
    """exp(-rate * x^degree) for even degree >= 2.

    The even degree keeps the family smooth on the whole line with
    super-exponential decay, so every exponential-weight norm of it is
    finite.  a_k = -rate (k+1) C(degree, k+1) y^(degree-k-1), 0 for k >= degree,
    formed from the logs of its factors, any of which may leave float range.
    """

    def __init__(self, rate=1.0, degree=4):
        self.rate = _finite("rate", rate)
        if degree < 2 or degree % 2:
            raise ValueError(f"degree must be an even integer >= 2, got {degree!r}")
        self.degree = int(degree)

    def _g(self, y):
        power = y ** self.degree
        g = -self.rate * power
        # y^degree can overflow where rate y^degree does not; there take
        # the product as (rate y^(degree/2)) y^(degree/2)
        over = np.isinf(power)
        half = np.abs(y[over]) ** (self.degree // 2)
        g[over] = -(self.rate * half) * half
        return g

    def _taylor(self, n, y):
        d, ks = self.degree, range(1, min(n, self.degree) + 1)
        log_coef = [[math.log(self.rate) + math.log(k * math.comb(d, k))]
                    for k in ks]
        e = d - np.array(ks)[:, None]
        log_power = np.where(e > 0, e * np.log(np.abs(y)), 0.0)  # y^0 = 1
        return -np.where(e % 2 == 1, np.sign(y), 1.0), log_coef + log_power

    def decay(self):
        return float(self.degree), self.rate

    def describe(self):
        return f"exppoly:rate={self.rate:g},degree={self.degree}"


class Gaussian(ExpPoly):
    """exp(-y^2) with y = (x - center)/scale: ExpPoly(1, 2) moved and
    stretched (a_0 = -2y, a_1 = -2: the recursion is Hermite's)."""

    def __init__(self, center=0.0, scale=1.0):
        super().__init__(1.0, 2)
        self.center = _finite("center", center, positive=False)
        self.scale = _finite("scale", scale)

    def describe(self):
        return f"gaussian:center={self.center:g},scale={self.scale:g}"


class Bump(TestFunction):
    """exp(-1/(1-y^2)) on |y| < 1 with y = (x - center)/width, zero outside.

    Inside, g = -(1/(1-y) + 1/(1+y))/2, so with p = 1/(1-y), q = -1/(1+y)
    the partial fractions give a_k = -(k+1)/2 (p^(k+2) - q^(k+2)).  No a_k
    vanishes, so order n costs n^2/2 steps; orders above 8 are refused.
    """

    max_order = 8

    def __init__(self, center=0.0, width=1.0):
        self.center = _finite("center", center, positive=False)
        self.scale = self.width = _finite("width", width)

    def _g(self, y):
        g = np.full_like(y, -np.inf)
        inside = np.abs(y) < 1.0
        g[inside] = -1.0 / (1.0 - y[inside] ** 2)
        return g

    def _taylor(self, n, y):
        p, q = 1.0 / (1.0 - y), -1.0 / (1.0 + y)
        a = -np.arange(1, n + 1)[:, None] / 2 * (_powers(p, 2, n) - _powers(q, 2, n))
        return np.sign(a), np.log(np.abs(a))

    def support(self):
        return self.center - self.width, self.center + self.width

    def decay(self):
        return math.inf, math.inf  # compact support beats any weight

    def describe(self):
        return f"bump:center={self.center:g},width={self.width:g}"


# ---------------------------------------------------------------------------
# weighted sup-norms, as logs
# ---------------------------------------------------------------------------

def _weight_wins(phi: TestFunction, p: int, beta: float) -> bool:
    """Does exp(p |x|^beta) beat the family's decay?  (Then the sup is inf.)

    At x = center + scale * y the weight grows like p scale^beta |y|^beta
    against the decay rate |y|^degree; the coefficients are compared as
    logs, so no scale overflows or divides.
    """
    if p == 0 or phi.support() is not None:
        return False
    degree, rate = phi.decay()
    return beta > degree or (beta == degree and math.log(p)
                             + beta * math.log(phi.scale) >= math.log(rate))


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
    return float(max(fc, fd))


def _search_bound(log_obj) -> float:
    """Double outward in y until the log objective is dead and falling,
    or -inf, at the outer probe."""
    b = 10.0
    for _ in range(80):
        lo = max(log_obj(-b), log_obj(b))
        lo2 = max(log_obj(-2 * b), log_obj(2 * b))
        if lo < _LOG_FLOOR and (lo2 < lo or lo2 == -math.inf):
            return 2 * b
        b *= 2.0
    raise ArithmeticError("could not bracket the weighted sup; is it finite?")


def _weighted_sup(phi: TestFunction, orders: range, weight_log) -> float:
    """ln of the largest sup over x of exp(weight_log(x)) * |phi^(q)(x)|
    for q in orders: one grid in the family's coordinate y, on which one
    recursion gives every order, and each order's peak refined by golden
    section."""

    def log_obj(q):
        return lambda y: (weight_log(phi.center + phi.scale * y)
                          + phi._log_deriv(q, y)[1])

    sup_range = phi.support()
    if sup_range is not None:
        lo, hi = phi._y(sup_range)
    else:
        hi = max(_search_bound(log_obj(q)) for q in orders)
        lo = -hi
    ys = np.linspace(lo, hi, _GRID_POINTS)
    weights = weight_log(phi.center + phi.scale * ys)
    best = -math.inf
    with np.errstate(all="ignore"):
        for q, state in enumerate(phi._series(orders[-1], ys)):
            if q not in orders:
                continue
            vals = weights + phi._finish(q, *state)[1]
            i = int(np.argmax(vals))
            if vals[i] > -math.inf:
                a, b = ys[max(0, i - 1)], ys[min(len(ys) - 1, i + 1)]
                best = max(best, float(vals[i]),
                           _golden_max(log_obj(q), float(a), float(b)))
    return best


def log_s_norm(phi: TestFunction, p: int, r: int) -> float:
    """ln sup |x^p phi^(r)(x)|, the polynomial-weight seminorm."""
    if p < 0 or r < 0:
        raise ValueError("orders must be nonnegative")
    phi._check_order(r)

    def weight_log(xs):
        if p == 0:
            return np.zeros_like(xs)
        with np.errstate(divide="ignore"):
            return p * np.log(np.abs(xs))

    return _weighted_sup(phi, range(r, r + 1), weight_log)


def _log_exp_weight_norm(phi: TestFunction, p: int, beta: float) -> float:
    if p < 0:
        raise ValueError("p must be nonnegative")
    phi._check_order(p)
    if _weight_wins(phi, p, beta):
        return math.inf
    return _weighted_sup(phi, range(p + 1), lambda xs: p * np.abs(xs) ** beta)


def log_k_norm(phi: TestFunction, p: int) -> float:
    """ln of max over q <= p of sup e^(p|x|) |phi^(q)(x)|.

    The absolute value is taken inside the sup, the usual seminorm
    convention.  Finite for every built-in family since they all decay
    faster than any exponential.
    """
    return _log_exp_weight_norm(phi, p, 1.0)


def log_kbeta_norm(phi: TestFunction, p: int, beta: float) -> float:
    """Same as log_k_norm with weight e^(p|x|^beta), beta > 1.

    Returns math.inf when the weight beats the family's decay (for
    example a gaussian against beta >= 2 with p >= 1): the divergence
    is decided analytically, not by a runaway search.
    """
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1, got {beta!r}")
    return _log_exp_weight_norm(phi, p, beta)


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


def _segment_terms(path: EventPath, phi: TestFunction,
                   phi_end: float) -> np.ndarray:
    """Coefficients of the regrouped pairing sum, in one stack pass.

    Node i of the max-Cartesian tree of the jump sizes (ties: the
    leftmost index is the ancestor) covers the events from just after
    its previous jump at least as large up to, not including, its next
    strictly larger jump hi(i).  Its level, the sum of the jumps from the
    start of that range to i, is scaled by its own jump: a[i] = level /
    e^lj[i], a plain float of magnitude at most the subtree size.
    Popping every smaller entry when i arrives both closes their ranges
    at i and hands their levels to i, so each event is pushed and popped
    once.  Entry i's term is e^lj[i] times the returned coefficient
    a[i] * (phi(t_i) - phi(t_hi(i))), phi(t_hi(i)) being phi_end when no
    larger jump follows.

    The pass walks BLOCK events at a time and closes each level in place
    once its entry is popped, which is safe as no later pop reads a
    popped entry's level: so the returned array is the only one of the
    path's length.  phi is evaluated once per block, at its events, and
    read there both at t_i and at t_hi(i) for the entries a block's own
    events pop.  Only one block is scratch: the jumps as a list of
    Python floats, read at every step, and the levels and pops as
    8-byte array('d')/array('q') entries.  The stack carries across
    blocks as the indices and jumps of its entries, 8 bytes each; their
    levels are read back from the returned array.  Slot 0 of a block's
    scratch stands for the top entry left by earlier blocks (+inf when
    there is none, so it is never popped), and popping it lists that
    entry with the event that pops it and brings up the next one.  The
    listed entries are closed at the block's end or when BLOCK of them
    wait, with phi evaluated again at their own times, and the entries
    never popped are closed against phi_end, BLOCK at a time.  Every
    product and sum is the per-event recursion's, in its order, for any
    BLOCK.
    """
    mags, signs, times = path.log1p_mags, path.signs, path.times
    n = len(mags)
    a = np.empty(n)
    carry, carry_x = array("q"), array("d")  # entries left by earlier blocks
    popped, popper = array("q"), array("q")  # popped carried entries, popping events
    exp, inf = math.exp, math.inf

    def close(entries, phi_next):
        if entries:
            entries = np.array(entries, dtype=np.intp)
            a[entries] *= phi.deriv(0, times[entries]) - phi_next

    for start in range(0, n, BLOCK):
        phi_at = phi.deriv(0, times[start:start + BLOCK])
        x_at = _log_jumps(mags[start:start + BLOCK]).tolist()
        m = len(x_at)
        x_at.insert(0, carry_x[-1] if carry else inf)
        a_at = array("d", [0.0]) * (m + 1)
        a_at[0] = a[carry[-1]] if carry else 0.0
        hi_at = array("q", [0]) * (m + 1)   # local popper, 0 while unpopped
        stack = [0]
        push, pop, top = stack.append, stack.pop, x_at[0]
        for j, x, s in zip(range(1, m + 1), islice(x_at, 1, None),
                           memoryview(signs[start:start + m])):
            acc = s
            while top < x:
                p = pop()
                acc += a_at[p] * exp(top - x)
                if p:
                    hi_at[p] = j
                else:
                    popped.append(carry.pop())
                    popper.append(j - 1)
                    carry_x.pop()
                    if len(popped) == BLOCK:
                        close(popped, phi_at[popper])
                        del popped[:], popper[:]
                    x_at[0] = carry_x[-1] if carry else inf
                    a_at[0] = a[carry[-1]] if carry else 0.0
                    push(0)
                top = x_at[stack[-1]]
            a_at[j] = acc
            push(j)
            top = x
        close(popped, phi_at[popper])
        del popped[:], popper[:]
        carry.extend(start + p - 1 for p in stack[1:])
        carry_x.extend(x_at[p] for p in stack[1:])
        # the entries this block pops are closed, the rest wait unscaled
        hi = np.frombuffer(hi_at, dtype=np.int64)
        block = a[start:start + m]
        block[:] = np.frombuffer(a_at)[1:]
        np.multiply(block, phi_at - phi_at[hi[1:] - 1], out=block,
                    where=hi[1:] > 0)
        del x_at, a_at, hi_at, hi         # before the next block's are made
    for start in range(0, len(carry), BLOCK):  # never popped
        close(carry[start:start + BLOCK], phi_end)
    return a


def pair_white_noise(path: EventPath, phi: TestFunction) -> PairingResult:
    """Exact pairing for the piecewise-constant large-jump path.

    The path is constant between events, so -integral K phi' over
    [0, horizon] equals -sum_i K_i (phi(t_{i+1}) - phi(t_i)) over
    constancy segments.  That flat sum is regrouped on the max-Cartesian
    tree of the jump sizes: each jump i contributes its segment level
    times phi(t_i) - phi(t_hi(i)), where hi(i) is its next strictly
    larger jump (the horizon if none), so the phi differences telescope
    in native floats and no product is formed at a scale beyond its
    own.  One O(n) stack pass (_segment_terms) forms each term's
    coefficient; the terms are summed exactly after rescaling.  The
    cross-check is the summation-by-parts form of the same truncated
    integral, sum_j jump_j * phi(t_j) minus the boundary term
    K(horizon) * phi(horizon), summed the same way but sharing nothing
    with the stack pass; the boundary piece cannot be dropped because
    a huge jump makes it significant even when phi(horizon) is tiny.
    Only the jumps with |x| > 1 are paired: the rest of the process lies
    in S' and cannot change whether the pairing is bounded.

    Memory stays one float64 array of the path's length plus one block:
    the stack pass returns the coefficients, and the cross-check's
    terms at the events then overwrite them.  The log jumps are never
    held for the whole path: each slv_sum reads its terms from a block
    source that forms them from the log1p magnitudes a block at a time,
    and phi is evaluated BLOCK events at a time.  phi acts elementwise,
    so each value is the one a single evaluation over all the events
    would give.
    """
    mags, signs, times = path.log1p_mags, path.signs, path.times
    n = len(mags)
    phi_end = float(phi.deriv(0, path.horizon))

    def terms(rows):
        """slv_sum's block source of e^lj times each coefficient row that
        rows(block) gives, the rows sharing one block of log jumps."""
        def source():
            for start in range(0, n, BLOCK):
                block = slice(start, start + BLOCK)
                lj = _log_jumps(mags[block])
                for coefs in rows(block):
                    yield lj, coefs
        return source

    coefs = _segment_terms(path, phi, phi_end)
    ref_v, tot_v = slv_sum(terms(lambda block: (coefs[block],)))
    for start in range(0, n, BLOCK):          # the cross-check's first row
        block = slice(start, start + BLOCK)
        np.multiply(signs[block], phi.deriv(0, times[block]), out=coefs[block])
    ref_c, tot_c = slv_sum(terms(lambda block: (coefs[block],
                                                signs[block] * -phi_end)))
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
    k_end = (_record(*slv_sum(terms(lambda block: (signs[block],))))
             if phi_end != 0.0 else SLV_ZERO)
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
