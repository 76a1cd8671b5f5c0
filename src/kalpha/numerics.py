"""Log-domain arithmetic and adaptive quadrature.

Jump magnitudes in this package routinely exceed the native float range
(a single large jump can have ln(1+|x|) in the thousands), so all path
arithmetic is carried as (sign, ln of magnitude) pairs, and signed sums
of such numbers are formed exactly, in one array pass, by slv_sum.  The
quadrature engine is one adaptive Gauss-Kronrod kernel over a positive
lower limit (every measure integral starts at u = ln 2 or x = 1, away
from the u = 0 pole of the jump density).  Integrands map a float array
of nodes to the array of their values, and each refinement round
evaluates the panels of every interval still being refined in one
call, so a whole partition (quad_partition) costs about as many calls
as one interval.  Improper upper limits get one extra: a geometric
tail test that can tell "converges slowly" apart from "diverges".
"""

from __future__ import annotations

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
# Dyadic blocks of an improper integral evaluated together; most tail
# tests settle within the first call.
_BLOCK_BATCH = 12
_BLOCK_SCALES = np.array([2.0 ** k for k in range(_BLOCK_BATCH + 1)])


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


# 15-point Kronrod extension of 7-point Gauss (standard QUADPACK nodes),
# listed from -1 to 1.  _WK is the Kronrod rule, _WK_MINUS_G the Kronrod
# minus the Gauss rule (the error estimate).
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
_NODES = np.array([-x for x in _XGK] + [x for x in _XGK[-2::-1]])
_MIRRORED = (*range(8), *range(6, -1, -1))
_WK = np.array([_WGK[k] for k in _MIRRORED])
_WK_MINUS_G = _WK - [_WG[k // 2] if k % 2 else 0.0 for k in _MIRRORED]
# Panels each interval starts with, evaluated in the first integrand call.
_START_PANELS = 8
_STEPS = np.array([k / _START_PANELS for k in range(_START_PANELS + 1)])


def _gk15(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod values and error estimates of the panels [a_j, b_j],
    all from one call of f on the flat array of their nodes."""
    h = 0.5 * (b - a)
    x = ((a + h)[:, None] + h[:, None] * _NODES).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise TypeError(f"integrand returned shape {y.shape} for nodes of "
                        f"shape {x.shape}; it must map arrays elementwise")
    # einsum, not BLAS: a BLAS product would load its code and work
    # buffer, a lasting rise in resident memory for a few panels
    y = y.reshape(-1, len(_NODES))
    resk = np.einsum("pk,k->p", y, _WK)
    if not np.isfinite(resk).all():
        bad = x[~np.isfinite(y.ravel())]
        raise QuadratureError(f"integrand not finite at u={float(bad[0])!r}"
                              if bad.size else "panel sums overflow a float")
    return resk * h, np.abs(np.einsum("pk,k->p", y, _WK_MINUS_G) * h)


def _adaptive(f, lo: np.ndarray, hi: np.ndarray, tol: float,
              budget: int) -> list[tuple[float, float, int]]:
    """Integrate f over each interval [lo_i, hi_i] to absolute tolerance
    tol, as (value, error, panels) per interval.

    Every interval starts as _START_PANELS equal panels.  An interval is
    done when its summed error is at most tol or, once rounding
    dominates, 1e-13 of its value.  Each round bisects, in one integrand
    call, every panel of an unfinished interval whose error exceeds its
    width's share of that target; at least one panel always does.  The
    totals are summed afresh from the live panels each round, in an
    order set by the interval's own refinement alone, so an interval's
    result does not depend on the others integrated with it.
    """
    m = len(lo)
    width = hi - lo
    grid = lo[:, None] + width[:, None] * _STEPS
    grid[:, -1] = hi
    a = grid[:, :-1].ravel()
    b = grid[:, 1:].ravel()
    owner = np.arange(m).repeat(_START_PANELS)
    val, err = _gk15(f, a, b)
    out: list = [None] * m
    while True:
        # per-interval bookkeeping in plain floats: m is small and numpy
        # reductions on tiny arrays cost more than the loop
        targets = [0.0] * m
        finished = False
        for i, (v, e, n) in enumerate(zip(
                np.bincount(owner, val, minlength=m).tolist(),
                np.bincount(owner, err, minlength=m).tolist(),
                np.bincount(owner, minlength=m).tolist())):
            if not n:
                continue            # finished in an earlier round
            target = max(tol, abs(v) * 1e-13)
            if e <= target:
                out[i] = (v, e, n)
                finished = True
            elif n >= budget:
                raise SubdivisionLimitError(
                    f"no convergence after {n} panels (error ~ {e:.3g})")
            else:
                targets[i] = target
        if not any(targets):
            return out
        panel_target = np.array(targets)[owner]
        if finished:
            live = panel_target > 0.0
            a, b, val, err, owner, panel_target = (
                a[live], b[live], val[live], err[live], owner[live],
                panel_target[live])
        split = err > panel_target * (b - a) / width[owner]
        pa, pb = a[split], b[split]
        mid = 0.5 * (pa + pb)
        collapsed = ~((pa < mid) & (mid < pb))
        if collapsed.any():
            j = int(collapsed.argmax())
            raise QuadratureError(f"interval [{float(pa[j])!r}, "
                                  f"{float(pb[j])!r}] collapsed below float "
                                  "resolution")
        cv, ce = _gk15(f, np.concatenate([pa, mid]), np.concatenate([mid, pb]))
        keep = ~split
        a = np.concatenate([a[keep], pa, mid])
        b = np.concatenate([b[keep], mid, pb])
        val = np.concatenate([val[keep], cv])
        err = np.concatenate([err[keep], ce])
        owner = np.concatenate([owner[keep], owner[split], owner[split]])


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

    def blocks():
        # _BLOCK_BATCH blocks per integrand call, each held to the
        # tolerance the partial sum before the call allows
        b = a0
        while True:
            edges = b * _BLOCK_SCALES
            b = float(edges[-1])
            yield from _adaptive(f, edges[:-1], edges[1:],
                                 max(tol / 16.0, abs(partial) * 1e-15, 1e-300),
                                 max(256, budget - panels))

    for _, (v, e, n) in zip(range(900), blocks()):
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


def quad_partition(f, edges, tol: float = 1e-10) -> list[QuadResult]:
    """Integrate f over every interval [edges[k], edges[k+1]] of a
    partition, one QuadResult per interval.

    edges are finite, strictly increasing and start above 0.  Each
    interval is held to tol on its own (its error estimate at most
    tol/2, as adaptive_quad does for a finite interval), so its result
    is the one adaptive_quad gives for it alone; all of them are
    evaluated together, one integrand call per refinement round.
    """
    edges = [float(e) for e in edges]
    if len(edges) < 2:
        raise ValueError("a partition needs at least two edges")
    # increasing edges between a positive first and a finite last one
    # are all finite (a NaN fails the comparison)
    if not (edges[0] > 0.0 and math.isfinite(edges[-1])):
        raise ValueError(f"edges must be finite and positive, got "
                         f"[{edges[0]!r}, ..., {edges[-1]!r}]")
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("edges must be strictly increasing")
    if tol <= 0:
        raise ValueError("tol must be positive")
    edges = np.array(edges)
    return [QuadResult(*r) for r in _adaptive(f, edges[:-1], edges[1:],
                                               tol / 2.0, _MAX_PANELS)]


def adaptive_quad(f, lo: float, hi: float, tol: float = 1e-10) -> QuadResult:
    """Integrate f over (lo, hi) for 0 < lo < hi; hi may be math.inf.

    f maps a float array of nodes to the array of its values.  A finite
    interval is the one-interval quad_partition.  An infinite upper
    limit is reached by summing doubling blocks from max(lo, 1) with
    geometric tail acceleration.  Divergence there is reported via the
    result flag, never as a large finite number; failure to converge
    within _MAX_PANELS panels raises SubdivisionLimitError.
    """
    if not (math.isfinite(lo) and lo > 0.0):
        raise ValueError(f"lower limit must be finite and positive, got {lo!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not math.isinf(hi):
        return quad_partition(f, (lo, hi), tol)[0]

    a0 = max(lo, 1.0)
    head = (quad_partition(f, (lo, a0), tol)[0] if a0 > lo
            else QuadResult(0.0, 0.0, 0))
    v, e, n, diverged = _block_series(f, a0, tol / 2.0,
                                      _MAX_PANELS - head.subdivisions)
    if diverged:
        return QuadResult(math.nan, math.inf, head.subdivisions + n,
                          diverged=True)
    return QuadResult(head.value + v, head.abs_error + e, head.subdivisions + n)
