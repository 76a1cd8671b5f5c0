"""Statistical verification on simulated paths: envelope exceedance
analysis, moment-divergence scans, and the growth-index slope report.

Limit statements (lim sups, the index beta-bar) are not decidable at a
finite horizon; everything here reports monotone trend statistics over
seeded ensembles and fixed grids.  All envelope comparisons run in log
domain, no decoded magnitude is ever materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import EnvelopeSpec, KAlphaParams, pruitt_index, truncated_moment
from .numerics import SignedLogValue
from .paths import EventPath, running_sup

DEFAULT_BURN_IN = 10.0


def envelope_exceedances(path: EventPath, env: EnvelopeSpec) -> list[tuple[float, float]]:
    """Exact intervals on which the running sup exceeds the envelope.

    The sup process is piecewise constant, so an exceedance can begin
    only at an event time (or at t = 1, where comparison starts) and
    ends where the increasing envelope crosses the current level; the
    end time is computed from the level's log magnitude.  Intervals
    are disjoint, time ordered and clipped to [1, horizon].
    """
    times, levels = running_sup(path)
    # a run of equal levels is one interval; it ends at the next rise
    rises = np.flatnonzero(levels[1:] > levels[:-1]) + 1
    ends = np.append(times[rises[1:]], path.horizon)
    out: list[list[float]] = []
    for t0, t1, level in zip(times[rises].tolist(), ends.tolist(),
                             levels[rises].tolist()):
        a = max(t0, 1.0)
        end = min(t1, env.crossing_time(level))
        if end <= a:
            continue
        if out and out[-1][1] == a:
            out[-1][1] = end
        else:
            out.append([a, end])
    return [(s, e) for s, e in out]


@dataclass(frozen=True)
class ExceedanceReport:
    """Per-path exceedance intervals plus ensemble aggregates."""

    envelope: EnvelopeSpec
    horizon: float
    burn_in: float
    intervals: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def n_paths(self) -> int:
        return len(self.intervals)

    @property
    def last_exceedance_times(self) -> tuple[float | None, ...]:
        """End of each path's last exceedance interval, None if it has none."""
        return tuple(ivs[-1][1] if ivs else None for ivs in self.intervals)

    @property
    def exceedance_fraction(self) -> float:
        """Fraction of paths still exceeding somewhere after burn-in."""
        hits = sum(1 for ivs in self.intervals
                   if any(e > self.burn_in for _, e in ivs))
        return hits / self.n_paths

    @property
    def last_in_final_half_fraction(self) -> float:
        half = self.horizon / 2.0
        hits = sum(1 for t in self.last_exceedance_times
                   if t is not None and t > half)
        return hits / self.n_paths

    def last_exceedance_quantiles(self, qs=(0.1, 0.25, 0.5, 0.75, 0.9)) -> dict[float, float] | None:
        ts = [t for t in self.last_exceedance_times if t is not None]
        if not ts:
            return None
        values = np.quantile(ts, qs)
        return {float(q): float(v) for q, v in zip(qs, values)}


def build_exceedance_report(paths, env: EnvelopeSpec,
                            burn_in: float = DEFAULT_BURN_IN) -> ExceedanceReport:
    paths = list(paths)
    if len({p.horizon for p in paths}) != 1:
        raise ValueError("paths in a report must share the horizon" if paths
                         else "need at least one path")
    return ExceedanceReport(
        envelope=env, horizon=paths[0].horizon, burn_in=burn_in,
        intervals=tuple(tuple(envelope_exceedances(p, env)) for p in paths))


def growth_scan(paths, eta: float) -> list[tuple[float, SignedLogValue]]:
    """max over paths of t^(-1/eta) * sup-level(t) at dyadic times.

    Single paths decay in this statistic (one early jump divided by a
    growing power); only ensembles over long horizons show the growth
    signature.  Levels stay in log domain because they routinely
    overflow floats.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one path")
    alpha = paths[0].params.alpha
    if any(p.params.alpha != alpha for p in paths):
        raise ValueError("paths in a scan must share parameters")
    horizon = min(p.horizon for p in paths)
    ts = []
    t = 1.0
    while t <= horizon:
        ts.append(t)
        t *= 2.0
    # best sup level at each t over the paths; rounding is monotone, so
    # adding the weight's log to the best equals the best of the sums
    best = np.full(len(ts), -math.inf)
    for p in paths:
        times, levels = running_sup(p)
        np.maximum(best, levels[np.searchsorted(times, ts, side="right") - 1],
                   out=best)
    return [(t, SignedLogValue(int(lvl > -math.inf), -math.log(t) / eta + lvl))
            for t, lvl in zip(ts, best.tolist())]


@dataclass(frozen=True)
class MomentScan:
    """Truncated-moment table over increasing caps.

    growth_ratios are ratios of successive *increments* of the moment
    between caps; an increasing run of those ratios is the finite-cap
    signature that the added mass per window refuses to die out, i.e.
    that the full moment diverges.  The flag needs at least two ratios;
    with fewer the scan reports insufficient evidence.
    """

    eta: float
    caps: tuple[float, ...]
    values: tuple[float, ...]
    growth_ratios: tuple[float, ...]
    divergence_flagged: bool
    status: str  # "divergent" or "insufficient"


def moment_scan(params: KAlphaParams, eta: float, caps) -> MomentScan:
    caps = tuple(float(c) for c in caps)
    if any(c <= 1.0 for c in caps):
        raise ValueError("caps must each exceed 1")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be strictly increasing")
    values = tuple(truncated_moment(eta, c, params) for c in caps)
    increments = [b - a for a, b in zip(values, values[1:])]
    ratios = tuple(b / a for a, b in zip(increments, increments[1:]) if a > 0.0)
    flagged = len(ratios) >= 2 and all(b > a for a, b in zip(ratios, ratios[1:]))
    return MomentScan(eta=eta, caps=caps, values=values, growth_ratios=ratios,
                      divergence_flagged=flagged,
                      status="divergent" if flagged else "insufficient")


@dataclass(frozen=True)
class PruittSlopeReport:
    """r^eta * h-bar(r) across a radius grid, one row set per eta.

    tail_increasing marks the sequences that are rising at the end of
    the grid.  beta_estimate is the largest eta whose sequence is still
    falling at the grid end, or 0.0 when none is; it is a desk-scale
    stand-in for the growth index, which is a limit quantity.
    """

    etas: tuple[float, ...]
    r_grid: tuple[float, ...]
    values: dict[float, tuple[float, ...]]
    tail_increasing: dict[float, bool]
    beta_estimate: float


def pruitt_slope(params: KAlphaParams, etas, r_grid) -> PruittSlopeReport:
    etas = tuple(float(e) for e in etas)
    r_grid = tuple(float(r) for r in r_grid)
    if len(r_grid) < 2:
        raise ValueError("need at least two radii to read a trend")
    if any(r < 1.0 for r in r_grid):
        raise ValueError("radii must be >= 1")
    if any(b <= a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("radii must be strictly increasing")
    if any(e <= 0 for e in etas):
        raise ValueError("etas must be positive")
    hbar = [pruitt_index(r, params) for r in r_grid]
    values = {}
    tail_up = {}
    still_falling = []
    for eta in etas:
        try:
            seq = tuple(r ** eta * h for r, h in zip(r_grid, hbar))
        except OverflowError:
            raise ValueError(f"r^eta overflows a float at eta={eta:g}, "
                             f"r={r_grid[-1]:g}") from None
        values[eta] = seq
        tail_up[eta] = seq[-1] > seq[-2]
        if seq[-1] < seq[-2]:
            still_falling.append(eta)
    return PruittSlopeReport(etas=etas, r_grid=r_grid, values=values,
                             tail_increasing=tail_up,
                             beta_estimate=max(still_falling, default=0.0))
