"""Log-domain arithmetic and adaptive quadrature.

Jump magnitudes in this package routinely exceed the native float range
(a single large jump can have ln(1+|x|) in the thousands), so all path
arithmetic is carried as (sign, ln of magnitude) pairs, and signed sums
of such numbers are formed exactly by slv_sum from a block source, a
callable that hands it the terms a block at a time, so no array of all
the terms need exist.  The quadrature engine is one adaptive
Gauss-Kronrod kernel over a positive lower limit (every measure integral
starts at u = ln 2 or x = 1, away from the u = 0 pole of the jump
density).  Integrands map a float array of nodes to the array of their
values, and each refinement round evaluates the panels of every
interval still being refined in one call, so a whole partition
(quad_partition) costs about as many calls as one interval.  An
improper upper limit is walked in batches of doubling blocks; after
each batch a pure function of the block integrals (_tail_verdict) tells
slow convergence, whose geometric remainder it sums in closed form,
from divergence.  An integrand that starts to decay only far out is
rescaled first (upper_function_integral integrates an envelope
exp(c x^p) in y = c^(1/p) x).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# elements an array kernel works on at a time (a path's events, and so
# slv_sum's term blocks), so its scratch stays one size whatever the input's
BLOCK = 8192

# Consecutive dyadic blocks that must fail to decay before an improper
# integral is declared divergent.
_DIVERGENCE_STREAK = 8
# A block "fails to decay" when it is at least this fraction of its
# predecessor.  An integrand decaying like x^-s has block ratio 2^(1-s),
# so a convergent tail is told apart from a divergent one for every
# s - 1 > -log2(1 - 1e-6), about 1.4427e-6.
_NO_DECAY_RATIO = 1.0 - 1e-6
# Gauss-Kronrod panels one adaptive_quad call may evaluate.
_MAX_PANELS = 100_000
# Dyadic blocks of an improper integral evaluated together; the tail
# verdict is taken after each such batch, and most are in after the first.
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

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


SLV_ZERO = SignedLogValue(0, -math.inf)


def _live_terms(logs, coefs):
    """logs and coefs of the nonzero coefs, with the log of each term."""
    live = coefs != 0.0
    if not live.all():
        logs, coefs = logs[live], coefs[live]
    term = np.abs(coefs)
    np.log(term, out=term)
    term += logs
    return logs, coefs, term


def slv_sum(source) -> tuple[float, float]:
    """sum_i coefs_i * e^logs_i as (ref, total), the sum being total * e^ref.

    Terms are scaled by e^-ref, ref being the largest log among the
    terms that matter, and summed exactly by math.fsum (Shewchuk's
    adaptive-precision summation), so the only rounding is one product
    per term and the total does not depend on the order of the terms.
    A term more than e^650 below the largest one cannot move the sum
    and is dropped, which keeps every scale factor <= 1.  A zero sum
    (no terms, all-zero coefs or exact cancellation) is (-inf, 0.0); a
    NaN or infinite term raises ValueError.

    The terms come from a block source: a callable of no arguments that
    returns an iterable of (logs, coefs) blocks, each a pair of 1-d
    float arrays of one length.  slv_sum reads the blocks in up to three
    passes, calling source once per pass: the largest term, then ref
    among the kept terms (skipped when no live term is dropped), then
    one math.fsum over the scaled blocks.  So a caller can form each
    block as it is read, and no array of all the terms need exist; no
    mask or copy larger than a block is formed.  As fsum is exact, the
    result does not depend on how the terms are split into blocks.
    """
    top = ref = -math.inf
    low = math.inf
    for block in source():
        block_logs, _, term = _live_terms(*block)
        if len(term):
            block_top = float(term.max())
            if not block_top < math.inf:      # a NaN or infinite term
                raise ValueError(f"slv_sum got a term of log {block_top!r}; "
                                 "terms must be finite or zero")
            top = max(top, block_top)
            low = min(low, float(term.min()))
            ref = max(ref, float(block_logs.max()))
    if top == -math.inf:
        return -math.inf, 0.0
    # above 2^63 the cut rounds back to top, and top >= cut keeps it
    cut = top - 650.0
    dropping = low < cut

    def kept(block):
        block_logs, block_coefs, term = _live_terms(*block)
        if dropping:
            keep = term >= cut
            block_logs, block_coefs = block_logs[keep], block_coefs[keep]
        return block_logs, block_coefs

    if dropping:        # the top term is always kept
        ref = max(float(block_logs.max())
                  for block_logs, _ in map(kept, source())
                  if len(block_logs))

    def scaled():
        for block_logs, block_coefs in map(kept, source()):
            term = block_logs - ref
            np.exp(term, out=term)
            term *= block_coefs
            yield term.tolist()

    total = math.fsum(itertools.chain.from_iterable(scaled()))
    return (ref, total) if total != 0.0 else (-math.inf, 0.0)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

class QuadResult(NamedTuple):
    """One integral: its value, error estimate and panel count, and
    whether a tail was judged divergent.  A NamedTuple, as one is made
    for every interval quad_partition returns (about 1 us less each than
    a frozen dataclass)."""

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
# both rules as the rows of one matrix, so that one einsum gives each
# panel's value and error; laid out (2, 15) so that each sum runs over
# contiguous rows, in the order, and with the bits, of a one-rule einsum
_WEIGHTS = np.stack([_WK, _WK_MINUS_G])
# Panels each interval starts with, evaluated in the first integrand call.
_START_PANELS = 8
# the fractions of an interval at its panel edges, as a column
_STEPS = np.array([[k / _START_PANELS] for k in range(_START_PANELS + 1)])


def _gk15(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss-Kronrod value and error estimate of each panel [a, b] along a
    last axis of 2; a and b are arrays of any one shape, and all the
    nodes go to one call of f as one flat array."""
    h = b - a
    h *= 0.5
    x = h[..., None] * _NODES
    x += (a + h)[..., None]
    x = x.ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise TypeError(f"integrand returned shape {y.shape} for nodes of "
                        f"shape {x.shape}; it must map arrays elementwise")
    # einsum, not BLAS: a BLAS product would load its code and work
    # buffer, a lasting rise in resident memory for a few panels
    with np.errstate(over="ignore"):     # checked below
        sums = np.einsum("pk,jk->pj", y.reshape(-1, len(_NODES)), _WEIGHTS)
        sums *= h.reshape(-1, 1)
    np.abs(sums[:, 1], out=sums[:, 1])
    if not np.isfinite(sums).all():
        bad = x[~np.isfinite(y)]
        raise QuadratureError(f"integrand not finite at u={float(bad[0])!r}"
                              if bad.size else "panel sums overflow a float")
    return sums.reshape(*h.shape, 2)


def _settle(totals, out: list, tol: float, budget: int) -> list[float] | None:
    """Error target of each interval from its totals (value, error,
    panels), 0.0 for one that is done, which is recorded in out; None
    when all are done.

    An interval is done when its error is at most tol or, once rounding
    dominates, 1e-13 of its value; one of no panels was done in an
    earlier round.  One not done at budget panels raises."""
    targets = []
    for i, (v, e, n) in enumerate(totals):
        target = max(tol, abs(v) * 1e-13)
        if not n or e <= target:
            if n:
                out[i] = (v, e, n)
            target = 0.0
        elif n >= budget:
            raise SubdivisionLimitError(
                f"no convergence after {n} panels (error ~ {e:.3g})")
        targets.append(target)
    return targets if any(targets) else None


def _adaptive(f, lo: np.ndarray, hi: np.ndarray, tol: float,
              budget: int) -> list[tuple[float, float, int]]:
    """Integrate f over each interval [lo_i, hi_i] to absolute tolerance
    tol, as (value, error, panels) per interval (see _settle for when
    one is done).

    Every interval starts as _START_PANELS equal panels, evaluated in
    one pass on a (panel, interval) grid whose totals are summed over
    the panel axis, in panel order from 0.0 as bincount adds them; most
    intervals are done there.  Each later round bisects, in one
    integrand call, every panel of an unfinished interval whose error
    exceeds its width's share of that interval's target; at least one
    panel always does.  The totals are summed afresh from the live
    panels each round, in an order set by the interval's own refinement
    alone, so an interval's result does not depend on the others
    integrated with it.
    """
    m = len(lo)
    width = hi - lo
    grid = width * _STEPS
    grid += lo
    grid[-1] = hi
    sums = _gk15(f, grid[:-1], grid[1:])
    out: list = [None] * m
    # reducing the leading axis adds whole (m, 2) rows, one panel after
    # another, onto 0.0: the bits of bincount (a reduction along one
    # column would sum its 8 panels pairwise)
    targets = _settle(((v, e, _START_PANELS) for v, e in
                       np.add.reduce(sums, axis=0).tolist()), out, tol, budget)
    if targets is None:
        return out
    # the rest go on panel by panel, in the grid's order: each interval's
    # panels stay in its own panel order, and so do its sums
    a, b = grid[:-1].ravel(), grid[1:].ravel()
    val, err = sums.reshape(-1, 2).T
    owner = np.tile(np.arange(m), _START_PANELS)
    while targets is not None:
        panel_target = np.array(targets)[owner]
        live = panel_target > 0.0
        if not live.all():
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
        cv, ce = _gk15(f, np.concatenate([pa, mid]),
                       np.concatenate([mid, pb])).T
        keep = ~split
        a = np.concatenate([a[keep], pa, mid])
        b = np.concatenate([b[keep], mid, pb])
        val = np.concatenate([val[keep], cv])
        err = np.concatenate([err[keep], ce])
        owner = np.concatenate([owner[keep], owner[split], owner[split]])
        # per-interval bookkeeping in plain floats: m is small and numpy
        # reductions on tiny arrays cost more than the loop
        targets = _settle(zip(np.bincount(owner, val, minlength=m).tolist(),
                              np.bincount(owner, err, minlength=m).tolist(),
                              np.bincount(owner, minlength=m).tolist()),
                          out, tol, budget)
    return out


def _tail_verdict(blocks: list[float]) -> tuple[float, float] | None:
    """Tail verdict on a series from its doubling-block integrals so far.

    (nan, inf), divergent, when the last _DIVERGENCE_STREAK blocks each
    fail to decay by _NO_DECAY_RATIO.  (remainder, error), finite: (0, 0)
    after two zero blocks, or, once the last three block ratios are
    positive and agree to 1e-3 below _NO_DECAY_RATIO, the remainder
    v r/(1-r) after the last block v at the last ratio r, with error
    |remainder| spread/(1-r).  None while undecided.
    """
    if len(blocks) >= 2 and not any(blocks[-2:]):
        return 0.0, 0.0
    last = blocks[-_DIVERGENCE_STREAK - 1:]
    if len(last) > _DIVERGENCE_STREAK and all(
            abs(b) >= abs(a) * _NO_DECAY_RATIO for a, b in zip(last, last[1:])):
        return math.nan, math.inf
    last = blocks[-4:]
    if len(last) < 4 or not all(last[:-1]):
        return None
    ratios = [b / a for a, b in zip(last, last[1:])]
    r = ratios[-1]
    spread = max(ratios) - min(ratios)
    if not (min(ratios) > 0.0 and r < _NO_DECAY_RATIO and spread <= 1e-3 * r):
        return None
    rest = last[-1] * r / (1.0 - r)
    return rest, abs(rest) * spread / (1.0 - r)


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
    limit is reached by summing doubling blocks from max(lo, 1), after
    the head [lo, 1] when lo < 1, until _tail_verdict decides: the
    geometric remainder is added in closed form, and divergence is
    reported via the result flag, never as a large finite number.
    Using more than _MAX_PANELS panels in all, or blocks leaving the
    float range undecided, raises SubdivisionLimitError.
    """
    if not (math.isfinite(lo) and lo > 0.0):
        raise ValueError(f"lower limit must be finite and positive, got {lo!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not math.isinf(hi):
        return quad_partition(f, (lo, hi), tol)[0]

    # the doubling blocks [a0, 2 a0], [2 a0, 4 a0], ... are integrated
    # _BLOCK_BATCH per call, each held to the tolerance the blocks before
    # the call allow, until their tail verdict is in
    a0 = max(lo, 1.0)
    head = (quad_partition(f, (lo, a0), tol)[0] if a0 > lo
            else QuadResult(0.0, 0.0, 0))
    blocks: list[float] = []
    errors = [head.abs_error]
    panels = head.subdivisions
    edge = float(a0)
    while (verdict := _tail_verdict(blocks)) is None:
        if not math.isfinite(edge * 2.0 ** _BLOCK_BATCH):
            raise SubdivisionLimitError(
                f"doubling blocks reached {edge!r} undecided")
        edges = edge * _BLOCK_SCALES
        edge = float(edges[-1])
        for v, e, n in _adaptive(f, edges[:-1], edges[1:],
                                 max(tol / 32.0, abs(sum(blocks)) * 1e-15,
                                     1e-300), _MAX_PANELS - panels):
            blocks.append(v)
            errors.append(e)
            panels += n
        if panels > _MAX_PANELS:
            raise SubdivisionLimitError(
                f"no tail verdict after {panels} panels")
    rest, rest_error = verdict
    if math.isnan(rest):
        return QuadResult(math.nan, math.inf, panels, diverged=True)
    return QuadResult(head.value + (sum(blocks) + rest),
                      math.fsum(errors) + rest_error, panels)
