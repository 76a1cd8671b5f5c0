"""Log-domain arithmetic and adaptive quadrature.

Jump magnitudes in this package routinely exceed the native float range
(a single large jump can have ln(1+|x|) in the thousands), so all path
arithmetic is carried as (sign, ln of magnitude) pairs, and signed sums
of such numbers are formed exactly, in one array pass, by slv_sum.  The
quadrature engine is a plain adaptive Gauss-Kronrod scheme over a
positive lower limit (every measure integral starts at u = ln 2 or
x = 1, away from the u = 0 pole of the jump density), with one extra
for improper upper limits: a geometric tail test that can tell
"converges slowly" apart from "diverges".
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Consecutive dyadic blocks that must fail to decay before an improper
# integral is declared divergent.
_DIVERGENCE_STREAK = 8
# A block "fails to decay" when it is at least this fraction of its
# predecessor.  1 - 1e-6 keeps tail exponents down to ~3e-6 on the
# convergent side while still catching the log-free divergences in scope.
_NO_DECAY_RATIO = 1.0 - 1e-6
# Gauss-Kronrod panels one adaptive_quad call may evaluate.
_MAX_PANELS = 100_000


class QuadratureError(Exception):
    """Quadrature could not produce a trustworthy result."""


class SubdivisionLimitError(QuadratureError):
    """Subdivision cap hit before the error tolerance was met."""


# ---------------------------------------------------------------------------
# signed log values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, natural log of magnitude).

    sign is -1, 0 or +1.  Zero is canonicalised to (0, -inf) so that
    fieldwise equality works and magnitude comparison reduces to
    comparing logmag.  This is a result record; sums of such numbers
    are formed by slv_sum.
    """

    sign: int
    logmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.logmag != -math.inf:
            object.__setattr__(self, "logmag", -math.inf)

    def decode(self) -> float | None:
        """Native float value, or None when the magnitude overflows."""
        if self.sign == 0:
            return 0.0
        if self.logmag > LOG_FLOAT_MAX:
            return None
        return self.sign * math.exp(self.logmag)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


SLV_ZERO = SignedLogValue(0, -math.inf)


def slv_sum(logs, coefs) -> tuple[float, float]:
    """sum_i coefs_i * e^logs_i as (ref, total), the sum being total * e^ref.

    Terms are scaled by e^-ref, ref being the largest log among the
    terms that matter, and summed exactly by math.fsum (Shewchuk's
    adaptive-precision summation), so the only rounding is one product
    per term and the total does not depend on the order of the terms.
    A term more than e^650 below the largest one cannot move the sum
    and is dropped, which keeps every scale factor <= 1.  A zero sum
    (no terms, all-zero coefs or exact cancellation) is (-inf, 0.0).
    """
    logs = np.asarray(logs, dtype=float)
    coefs = np.asarray(coefs, dtype=float)
    live = coefs != 0.0
    if not live.any():
        return -math.inf, 0.0
    logs, coefs = logs[live], coefs[live]
    log_term = logs + np.log(np.abs(coefs))
    keep = log_term > log_term.max() - 650.0
    logs, coefs = logs[keep], coefs[keep]
    ref = float(logs.max())
    total = math.fsum(coefs * np.exp(logs - ref))
    return (ref, total) if total != 0.0 else (-math.inf, 0.0)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error: float
    subdivisions: int
    diverged: bool = False


# 15-point Kronrod extension of 7-point Gauss (standard QUADPACK nodes).
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    if not math.isfinite(fc):
        raise QuadratureError(f"integrand not finite at u={c!r}")
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = h * _XGK[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            bad = c - dx if not math.isfinite(f1) else c + dx
            raise QuadratureError(f"integrand not finite at u={bad!r}")
        s = f1 + f2
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * s
    return resk * h, abs((resk - resg) * h)


def _adaptive(f, a: float, b: float, tol: float, budget: int) -> tuple[float, float, int]:
    """Heap-driven bisection of [a, b] down to absolute tolerance tol."""
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value)]
    panels = 1
    total_val = value
    total_err = err
    # the 1e-13 relative floor stops refinement once rounding dominates
    while total_err > tol and total_err > abs(total_val) * 1e-13:
        if panels >= budget:
            raise SubdivisionLimitError(
                f"no convergence after {panels} panels (error ~ {total_err:.3g})")
        neg_e, pa, pb, pv = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not pa < mid < pb:
            raise QuadratureError(
                f"interval [{pa!r}, {pb!r}] collapsed below float resolution")
        v1, e1 = _gk15(f, pa, mid)
        v2, e2 = _gk15(f, mid, pb)
        total_val += v1 + v2 - pv
        total_err += e1 + e2 + neg_e
        heapq.heappush(heap, (-e1, pa, mid, v1))
        heapq.heappush(heap, (-e2, mid, pb, v2))
        panels += 1
    # resum live panels for a drift-free total
    total_val = math.fsum(item[3] for item in heap)
    total_err = max(0.0, math.fsum(-item[0] for item in heap))
    return total_val, total_err, panels


def _block_series(f, a0: float, tol: float, budget: int):
    """Sum f over the doubling blocks [a0, 2a0], [2a0, 4a0], ... with
    tail extrapolation.

    Once consecutive block integrals settle into a stable ratio r < 1
    the remaining tail is summed geometrically; if they fail to decay
    for _DIVERGENCE_STREAK consecutive blocks the series is declared
    divergent.  Returns (value, err, panels, diverged).
    """
    partial = 0.0
    err_sum = 0.0
    panels = 0
    prev_abs = None
    prev_val = None
    ratios: list[float] = []
    no_decay = 0
    zero_run = 0
    prev_est = None
    settled = 0
    b = a0
    for _ in range(900):
        a, b = b, b * 2.0
        block_tol = max(tol / 16.0, abs(partial) * 1e-15, 1e-300)
        v, e, n = _adaptive(f, a, b, block_tol, max(256, budget - panels))
        panels += n
        err_sum += e
        cur_abs = abs(v)
        if prev_abs is not None and prev_abs > 0.0:
            if cur_abs >= prev_abs * _NO_DECAY_RATIO:
                no_decay += 1
                if no_decay >= _DIVERGENCE_STREAK:
                    return math.nan, math.inf, panels, True
            else:
                no_decay = 0
            ratios.append(cur_abs / prev_abs)
        partial += v
        if cur_abs == 0.0:
            zero_run += 1
            if zero_run >= 2:
                return partial, err_sum, panels, False
        else:
            zero_run = 0
        if len(ratios) >= 3 and prev_val is not None and v * prev_val > 0.0:
            r = ratios[-1]
            spread = max(ratios[-3:]) - min(ratios[-3:])
            if r < _NO_DECAY_RATIO and spread <= 1e-3 * max(r, 1e-12):
                tail = v * r / (1.0 - r)
                est = partial + tail
                if prev_est is not None and abs(est - prev_est) <= tol / 4.0:
                    settled += 1
                    if settled >= 2:
                        err = (err_sum + 4.0 * abs(est - prev_est)
                               + abs(tail) * spread / max(1e-12, 1.0 - r))
                        return est, err, panels, False
                else:
                    settled = 0
                prev_est = est
        prev_abs = cur_abs
        prev_val = v
        if panels >= budget:
            raise SubdivisionLimitError(
                f"block budget exhausted after {panels} panels")
    raise SubdivisionLimitError("geometric block sequence exhausted")


def adaptive_quad(f, lo: float, hi: float, tol: float = 1e-10) -> QuadResult:
    """Integrate f over (lo, hi) for 0 < lo < hi; hi may be math.inf.

    An infinite upper limit is reached by summing doubling blocks from
    max(lo, 1) with geometric tail acceleration.  Divergence there is
    reported via the result flag, never as a large finite number;
    failure to converge within _MAX_PANELS panels raises
    SubdivisionLimitError.
    """
    if not (math.isfinite(lo) and lo > 0.0):
        raise ValueError(f"lower limit must be finite and positive, got {lo!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not math.isinf(hi):
        return QuadResult(*_adaptive(f, lo, hi, tol / 2.0, _MAX_PANELS))

    a0 = max(lo, 1.0)
    head_val, head_err, head_panels = 0.0, 0.0, 0
    if a0 > lo:
        head_val, head_err, head_panels = _adaptive(f, lo, a0, tol / 2.0,
                                                    _MAX_PANELS)
    v, e, n, diverged = _block_series(f, a0, tol / 2.0, _MAX_PANELS - head_panels)
    if diverged:
        return QuadResult(math.nan, math.inf, head_panels + n, diverged=True)
    return QuadResult(head_val + v, head_err + e, head_panels + n)
