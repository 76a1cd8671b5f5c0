"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's own
algorithms: goodness-of-fit statistics are textbook formulas, the
exceedance oracle works on a dense grid, and the supremum oracle uses
plain native-float prefix sums (only valid for paths whose magnitudes
fit in a double, which the tests arrange).
"""

import numpy as np
from scipy import stats


def ks_statistic(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample against a cdf."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    F = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def poisson_chi2_pvalue(counts, lam) -> float:
    """Chi-square goodness of fit of integer counts against Poisson(lam).

    Bins with expected count below 5 are merged into their neighbours.
    """
    counts = np.asarray(counts)
    kmax = int(counts.max())
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    probs = stats.poisson.pmf(np.arange(kmax + 1), lam)
    probs[-1] += stats.poisson.sf(kmax, lam)
    expected = probs * len(counts)
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        obs[-2] += obs[-1]
        expected, obs = expected[:-1], obs[:-1]
    while len(expected) > 2 and expected[0] < 5.0:
        expected[1] += expected[0]
        obs[1] += obs[0]
        expected, obs = expected[1:], obs[1:]
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return float(stats.chi2.sf(stat, len(obs) - 1))


def grid_exceedance_indicator(path, env, n_grid=10_000):
    """(ts, indicator) of sup-level > envelope on a dense grid, log domain."""
    from kalpha.paths import running_sup

    times, levels = running_sup(path)
    ts = np.linspace(1.0, path.horizon, n_grid)
    log_levels = levels[np.searchsorted(times, ts, side="right") - 1]
    log_env = np.array([env.log_value(t) for t in ts])
    return ts, log_levels > log_env


def indicator_from_intervals(ts, intervals):
    ind = np.zeros(len(ts), dtype=bool)
    for s, e in intervals:
        ind |= (ts >= s) & (ts < e)
    return ind


def intervals_match_grid(path, env, intervals, n_grid=10_000) -> bool:
    """Exact intervals agree with the dense-grid oracle up to grid spacing."""
    ts, oracle = grid_exceedance_indicator(path, env, n_grid)
    exact = indicator_from_intervals(ts, intervals)
    mismatch = np.nonzero(exact != oracle)[0]
    if len(mismatch) == 0:
        return True
    spacing = ts[1] - ts[0]
    boundaries = [b for iv in intervals for b in iv]
    for i in mismatch:
        if not any(abs(ts[i] - b) <= spacing for b in boundaries):
            return False
    return True


def native_prefix_sups(signs, log1p_mags):
    """Running max of |prefix sums| by plain float arithmetic."""
    xs = np.asarray(signs, dtype=float) * np.expm1(np.asarray(log1p_mags))
    prefix = np.cumsum(xs)
    return np.maximum.accumulate(np.abs(prefix))
