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

from .measure import EnvelopeSpec, KAlphaParams, pruitt_indices, truncated_moments
from .numerics import SignedLogValue
from .paths import EventPath, running_sup

DEFAULT_BURN_IN = 10.0
LAST_EXCEEDANCE_QS = (0.1, 0.25, 0.5, 0.75, 0.9)


def envelope_exceedances(path: EventPath, env: EnvelopeSpec) -> list[tuple[float, float]]:
    """Exact intervals on which the running sup exceeds the envelope.

    The sup process is a step function (running_sup gives its steps),
    so an exceedance can begin only at a step (or at t = 1, where
    comparison starts) and ends at the next step or where the increasing
    envelope crosses the step's level, whichever comes first; the
    crossing time is computed from the level's log magnitude.  Intervals
    are disjoint, time ordered and clipped to [1, horizon].
    """
    times, levels = running_sup(path)
    # the first step, (0, -inf), exceeds nothing
    ends = np.append(times[2:], path.horizon)
    out: list[list[float]] = []
    for t0, t1, level in zip(times[1:].tolist(), ends.tolist(),
                             levels[1:].tolist()):
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
class PathExceedances:
    """One path's exceedance intervals, with the fields a report names the
    path by."""

    alpha: float
    seed: int
    n_events: int
    intervals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ExceedanceReport:
    """Per-path exceedance intervals plus ensemble aggregates."""

    envelope: EnvelopeSpec
    horizon: float
    burn_in: float
    paths: tuple[PathExceedances, ...]

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def intervals(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        return tuple(p.intervals for p in self.paths)

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

    def last_exceedance_quantiles(self) -> dict[float, float] | None:
        ts = [t for t in self.last_exceedance_times if t is not None]
        if not ts:
            return None
        values = np.quantile(ts, LAST_EXCEEDANCE_QS)
        return {q: float(v) for q, v in zip(LAST_EXCEEDANCE_QS, values)}


def build_exceedance_report(paths, env: EnvelopeSpec,
                            burn_in: float = DEFAULT_BURN_IN) -> ExceedanceReport:
    """The report over paths, which may be a one-shot iterable such as a
    generator of loaded files: each path is reduced to its
    PathExceedances as it arrives, so one path is held at a time.  A
    path whose horizon differs from the first one's is refused when it
    arrives."""
    per_path = []
    for path in paths:
        if per_path and path.horizon != horizon:
            raise ValueError("paths in a report must share the horizon")
        horizon = path.horizon
        per_path.append(PathExceedances(
            alpha=path.params.alpha, seed=path.seed, n_events=path.n_events,
            intervals=tuple(envelope_exceedances(path, env))))
        del path                    # freed before the next one is drawn
    if not per_path:
        raise ValueError("need at least one path")
    return ExceedanceReport(envelope=env, horizon=horizon, burn_in=burn_in,
                            paths=tuple(per_path))


def _dyadic_times(horizon: float) -> list[float]:
    """1, 2, 4, ... up to horizon."""
    ts = []
    t = 1.0
    while t <= horizon:
        ts.append(t)
        t *= 2.0
    return ts


def growth_scan(paths, eta: float) -> list[tuple[float, SignedLogValue]]:
    """max over paths of t^(-1/eta) * sup-level(t) at dyadic times up to
    the shortest horizon.

    Single paths decay in this statistic (one early jump divided by a
    growing power); only ensembles over long horizons show the growth
    signature.  Levels stay in log domain because they routinely
    overflow floats.  paths may be a one-shot iterable, one path held at
    a time: each path's levels go into a running maximum on a dyadic
    grid that grows to the longest horizon seen, cut at the shortest
    once all are in.  max is exact, so the rows do not depend on the
    order of the paths.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    alpha = None
    horizon = math.inf
    # best sup level at each t over the paths; rounding is monotone, so
    # adding the weight's log to the best equals the best of the sums
    best = np.empty(0)
    for path in paths:
        if alpha is None:
            alpha = path.params.alpha
        elif path.params.alpha != alpha:
            raise ValueError("paths in a scan must share parameters")
        horizon = min(horizon, path.horizon)
        ts = _dyadic_times(path.horizon)
        if len(ts) > len(best):
            best = np.append(best, np.full(len(ts) - len(best), -math.inf))
        times, levels = running_sup(path)
        sampled = levels[np.searchsorted(times, ts, side="right") - 1]
        del path, times, levels     # freed before the next path is drawn
        mine = best[:len(ts)]
        np.maximum(mine, sampled, out=mine)
    if alpha is None:
        raise ValueError("need at least one path")
    ts = _dyadic_times(horizon)
    # the largest t has the largest weight exponent ln(t)/eta
    if ts and not math.log(ts[-1]) / eta < math.inf:
        raise ValueError(f"eta={eta!r} is too small: ln(t)/eta overflows a "
                         f"float at t={ts[-1]!r}")
    return [(t, SignedLogValue(int(lvl > -math.inf), -math.log(t) / eta + lvl))
            for t, lvl in zip(ts, best[:len(ts)].tolist())]


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
    values = tuple(truncated_moments(eta, caps, params))
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
    hbar = pruitt_indices(r_grid, params)
    values = {}
    tail_up = {}
    still_falling = []
    for eta in etas:
        try:
            seq = tuple(r ** eta * h for r, h in zip(r_grid, hbar))
        except OverflowError:
            raise ValueError(f"r^eta overflows a float at eta={eta:g}, "
                             f"r={r_grid[-1]:g}") from None
        if math.inf in seq:         # h-bar near the float limit, as alpha -> 0
            raise ValueError(f"r^eta h-bar(r) overflows a float at eta={eta:g}, "
                             f"alpha={params.alpha!r}")
        values[eta] = seq
        tail_up[eta] = seq[-1] > seq[-2]
        if seq[-1] < seq[-2]:
            still_falling.append(eta)
    return PruittSlopeReport(etas=etas, r_grid=r_grid, values=values,
                             tail_increasing=tail_up,
                             beta_estimate=max(still_falling, default=0.0))
