import math

import numpy as np
import pytest

from kalpha.diagnostics import (ExceedanceReport, PathExceedances,
                                build_exceedance_report,
                                envelope_exceedances, growth_scan,
                                moment_scan, pruitt_slope)
from kalpha.measure import (EnvelopeSpec, KAlphaParams, pruitt_index,
                            truncated_moment)
from kalpha.numerics import SignedLogValue
from kalpha.paths import EventPath, running_sup, simulate_large_jumps
from util_stats import intervals_match_grid


def make_path(alpha=1.0, horizon=10.0, times=(), signs=(), mags=()):
    return EventPath(params=KAlphaParams(alpha), horizon=horizon, seed=0,
                     times=np.array(times, dtype=float),
                     signs=np.array(signs, dtype=np.int64),
                     log1p_mags=np.array(mags, dtype=float))


class TestEnvelopeExceedances:
    def test_empty_path(self):
        env = EnvelopeSpec("exponential", c=1.0)
        assert envelope_exceedances(make_path(), env) == []

    def test_single_jump_exponential(self):
        # jump of size e^10 - 1 at t=2 exceeds e^t until t = ln(e^10 - 1) ~ 10
        path = make_path(horizon=200.0, times=[2.0], signs=[1], mags=[10.0])
        env = EnvelopeSpec("exponential", c=1.0)
        [(s, e)] = envelope_exceedances(path, env)
        assert s == 2.0
        assert e == pytest.approx(10.0 + math.log1p(-math.exp(-10.0)), rel=1e-12)
        assert intervals_match_grid(path, env, [(s, e)])

    def test_single_jump_power(self):
        path = make_path(horizon=200.0, times=[2.0], signs=[1], mags=[10.0])
        env = EnvelopeSpec("power", beta=2.0)
        [(s, e)] = envelope_exceedances(path, env)
        assert s == 2.0
        assert e == pytest.approx(math.sqrt(math.expm1(10.0)), rel=1e-12)
        assert intervals_match_grid(path, env, [(s, e)])

    def test_exceedance_from_comparison_start(self):
        # a jump before t=1 that already tops the envelope opens at t=1
        path = make_path(horizon=50.0, times=[0.5], signs=[-1],
                         mags=[math.log1p(20.0)])
        env = EnvelopeSpec("power", beta=2.0)
        [(s, e)] = envelope_exceedances(path, env)
        assert s == 1.0
        assert e == pytest.approx(math.sqrt(20.0), rel=1e-12)

    def test_clipped_at_horizon(self):
        path = make_path(horizon=5.0, times=[2.0], signs=[1],
                         mags=[math.log1p(math.exp(10.0))])
        env = EnvelopeSpec("exponential", c=1.0)
        [(s, e)] = envelope_exceedances(path, env)
        assert (s, e) == (2.0, 5.0)

    def test_huge_jump_never_decoded(self):
        # log magnitude 5000 would overflow any float path value
        path = make_path(horizon=100.0, times=[2.0], signs=[1], mags=[5000.0])
        for env in (EnvelopeSpec("exponential", c=1.0),
                    EnvelopeSpec("power", beta=2.0)):
            [(s, e)] = envelope_exceedances(path, env)
            assert (s, e) == (2.0, 100.0)
        # exp(t^2) catches a level of e^5000 already at t = sqrt(5000)
        env = EnvelopeSpec("power_exponential", c=1.0, beta=2.0)
        [(s, e)] = envelope_exceedances(path, env)
        assert s == 2.0
        assert e == pytest.approx(math.sqrt(5000.0), rel=1e-9)

    def test_intervals_disjoint_ordered(self):
        p = KAlphaParams(1.5)
        env = EnvelopeSpec("exponential", c=1.0)
        for path in [simulate_large_jumps(p, 50.0, 21, spawn_key=(i,))
                     for i in range(10)]:
            ivs = envelope_exceedances(path, env)
            for (s1, e1), (s2, e2) in zip(ivs, ivs[1:]):
                assert s1 < e1 <= s2 < e2
            for s, e in ivs:
                assert 1.0 <= s < e <= path.horizon

    @pytest.mark.parametrize("env", [EnvelopeSpec("exponential", c=1.0),
                                     EnvelopeSpec("power", beta=2.0)])
    def test_matches_dense_grid_oracle_on_ensemble(self, env):
        p = KAlphaParams(1.5)
        for path in [simulate_large_jumps(p, 50.0, 33, spawn_key=(i,))
                     for i in range(50)]:
            ivs = envelope_exceedances(path, env)
            assert intervals_match_grid(path, env, ivs)

    def test_memory_is_one_block_and_the_steps(self, traced_peak):
        # stated before the first run: running_sup's few arrays of one
        # block and its steps, then the steps' intervals, at most 0.75
        # float64 arrays of the path's length beyond the path (3 when
        # running_sup returned a level per event, 5 when it formed its
        # levels whole)
        path = simulate_large_jumps(KAlphaParams(1.5), 5e4, 42)
        assert path.n_events >= 100_000
        env = EnvelopeSpec("exponential", c=1.0)
        ivs, peak = traced_peak(envelope_exceedances, path, env)
        assert ivs == envelope_exceedances(path, env)
        assert peak <= 0.75 * 8 * path.n_events


class TestExceedanceReport:
    def test_aggregates(self):
        p = KAlphaParams(1.5)
        paths = [simulate_large_jumps(p, 100.0, 42, spawn_key=(i,))
                 for i in range(40)]
        rep = build_exceedance_report(paths, EnvelopeSpec("power", beta=2.0))
        assert rep.n_paths == 40
        assert 0.0 <= rep.exceedance_fraction <= 1.0
        assert 0.0 <= rep.last_in_final_half_fraction <= 1.0
        q = rep.last_exceedance_quantiles()
        if q is not None:
            vals = [q[k] for k in sorted(q)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_burn_in_filters(self):
        # single exceedance on (2, sqrt(10)), entirely before burn-in
        path = make_path(horizon=50.0, times=[2.0], signs=[1],
                         mags=[math.log1p(10.0)])
        env = EnvelopeSpec("power", beta=2.0)
        rep = build_exceedance_report([path], env, burn_in=10.0)
        assert rep.exceedance_fraction == 0.0
        rep0 = build_exceedance_report([path], env, burn_in=0.0)
        assert rep0.exceedance_fraction == 1.0

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_exceedance_report(
                [make_path(horizon=10.0), make_path(horizon=20.0)],
                EnvelopeSpec("power", beta=2.0))

    def test_no_paths_rejected(self):
        with pytest.raises(ValueError, match="at least one path"):
            build_exceedance_report([], EnvelopeSpec("power", beta=2.0))

    def test_last_exceedance_times_follow_the_intervals(self):
        rep = ExceedanceReport(
            envelope=EnvelopeSpec("power", beta=2.0), horizon=100.0,
            burn_in=10.0,
            paths=tuple(PathExceedances(alpha=1.5, seed=0, n_events=2,
                                        intervals=ivs)
                        for ivs in (((1.0, 60.0),), (),
                                    ((2.0, 5.0), (20.0, 30.0)))))
        assert rep.last_exceedance_times == (60.0, None, 30.0)
        assert rep.last_in_final_half_fraction == pytest.approx(1 / 3)
        assert rep.exceedance_fraction == pytest.approx(2 / 3)


class TestGrowthScan:
    def test_empty_path_all_zero(self):
        alpha, rows = growth_scan([make_path(horizon=64.0)], 1.0)
        assert alpha == 1.0
        assert [t for t, _ in rows] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert all(lvl.sign == 0 for _, lvl in rows)

    def test_single_jump_decays(self):
        # one early jump: statistic J/t falls, no divergence from one path
        path = make_path(horizon=64.0, times=[1.0], signs=[1],
                         mags=[math.log1p(7.0)])
        _, rows = growth_scan([path], 1.0)
        vals = [lvl.sign * math.exp(lvl.logmag) for _, lvl in rows]
        assert vals[0] == pytest.approx(7.0, rel=1e-12)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[1] == pytest.approx(7.0 / 2.0, rel=1e-12)

    def test_seeded_ensemble_regression(self):
        """200 paths at alpha=1.5 over horizon 1024: the eta=0.5 statistic
        at t=2^10 dwarfs the one at t=2^3 (recorded regression values)."""
        p = KAlphaParams(1.5)
        paths = [simulate_large_jumps(p, 1024.0, 42, spawn_key=(i,))
                 for i in range(200)]
        alpha, rows = growth_scan(paths, 0.5)
        assert alpha == 1.5
        rows = dict(rows)
        assert rows[1024.0].logmag > rows[8.0].logmag
        assert rows[8.0].logmag == pytest.approx(119.3544531982493, rel=1e-9)
        assert rows[1024.0].logmag == pytest.approx(5672.335370426583, rel=1e-9)

    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            growth_scan([make_path()], 0.0)
        with pytest.raises(ValueError):
            growth_scan([], 1.0)
        with pytest.raises(ValueError):
            growth_scan([make_path(alpha=1.0), make_path(alpha=1.5)], 1.0)


def reference_growth_scan(paths, eta):
    """growth_scan over a list: the first path's alpha, the dyadic grid of
    the shortest horizon, and the best level over all the paths at each of
    its times."""
    horizon = min(p.horizon for p in paths)
    ts = [2.0 ** k for k in range(64) if 2.0 ** k <= horizon]
    best = [max(levels[np.searchsorted(times, t, side="right") - 1]
                for times, levels in map(running_sup, paths)) for t in ts]
    return paths[0].params.alpha, [
        (t, SignedLogValue(int(lvl > -math.inf), -math.log(t) / eta + lvl))
        for t, lvl in zip(ts, best)]


class TestStreaming:
    """build_exceedance_report and growth_scan take one-shot iterables and
    hold one path at a time; the results equal the list form."""

    @staticmethod
    def ensemble(horizon, seed, n=6):
        p = KAlphaParams(1.5)
        return [simulate_large_jumps(p, horizon, seed, spawn_key=(i,))
                for i in range(n)]

    @pytest.mark.parametrize("order", ["short-first", "long-first", "mixed"])
    def test_growth_scan_generator_equals_list(self, order):
        short, long_ = self.ensemble(40.0, 3), self.ensemble(300.0, 4)
        paths = {"short-first": short + long_, "long-first": long_ + short,
                 "mixed": [p for pair in zip(long_, short) for p in pair]}[order]
        scan = growth_scan((p for p in paths), 0.5)
        assert scan == growth_scan(paths, 0.5) == reference_growth_scan(paths, 0.5)
        assert [t for t, _ in scan[1]] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]

    def test_growth_scan_one_horizon_generator_equals_list(self):
        paths = self.ensemble(1024.0, 42, 20)
        assert growth_scan(iter(paths), 0.5) == reference_growth_scan(paths, 0.5)

    def test_report_generator_equals_list(self):
        paths = self.ensemble(100.0, 42, 12)
        env = EnvelopeSpec("exponential", c=1.0)
        report = build_exceedance_report((p for p in paths), env)
        assert report == build_exceedance_report(paths, env)
        assert report.paths == tuple(
            PathExceedances(alpha=1.5, seed=42, n_events=p.n_events,
                            intervals=tuple(envelope_exceedances(p, env)))
            for p in paths)

    @pytest.mark.parametrize("horizons", [(10.0, 20.0), (20.0, 10.0)])
    def test_report_horizon_mismatch_in_either_order(self, horizons):
        paths = (make_path(horizon=h) for h in horizons)
        with pytest.raises(ValueError, match="share the horizon"):
            build_exceedance_report(paths, EnvelopeSpec("power", beta=2.0))


class TestMomentScan:
    def test_divergence_flag_at_spec_caps(self):
        scan = moment_scan(KAlphaParams(1.5), 0.25, [10.0, 1e2, 1e3, 1e4])
        assert all(b > a for a, b in zip(scan.values, scan.values[1:]))
        assert len(scan.growth_ratios) == 2
        assert scan.growth_ratios[1] > scan.growth_ratios[0]
        assert scan.divergence_flagged
        assert scan.status == "divergent"

    def test_insufficient_with_two_caps(self):
        scan = moment_scan(KAlphaParams(1.5), 0.01, [10.0, 1e2])
        assert scan.values[1] > scan.values[0]
        assert scan.growth_ratios == ()
        assert not scan.divergence_flagged
        assert scan.status == "insufficient"

    def test_single_cap_withholds(self):
        scan = moment_scan(KAlphaParams(1.0), 0.5, [10.0])
        assert scan.growth_ratios == ()
        assert not scan.divergence_flagged

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 1.9])
    def test_cumulative_values_match_truncated_moment(self, alpha):
        # one partition of the cap grid, summed cumulatively, against one
        # integral per cap
        p = KAlphaParams(alpha)
        caps = [10.0 ** k for k in range(1, 16)]
        scan = moment_scan(p, 0.25, caps)
        for cap, value in zip(caps, scan.values):
            assert value == pytest.approx(truncated_moment(0.25, cap, p),
                                          rel=1e-12)

    def test_caps_validation(self):
        p = KAlphaParams(1.0)
        with pytest.raises(ValueError):
            moment_scan(p, 0.5, [0.5, 10.0])
        with pytest.raises(ValueError):
            moment_scan(p, 0.5, [10.0, 10.0])


class TestPruittSlope:
    def test_fast_eta_rises_over_whole_grid(self):
        rep = pruitt_slope(KAlphaParams(1.0), [0.5],
                           [10.0 ** k for k in range(1, 9)])
        seq = rep.values[0.5]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert rep.tail_increasing[0.5]
        assert rep.beta_estimate == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_trend_matches_dominant_term_oracle(self, alpha):
        # the tail term r^eta * 2/(alpha ln^alpha(1+r)) dictates the trend
        # at the end of the grid; the full index must agree with it
        p = KAlphaParams(alpha)
        r_grid = [10.0 ** k for k in range(1, 9)]
        rep = pruitt_slope(p, [0.05, 0.1, 0.5], r_grid)
        for eta in (0.05, 0.1, 0.5):
            oracle = [r ** eta / (alpha * math.log1p(r) ** alpha)
                      for r in r_grid]
            assert rep.tail_increasing[eta] == (oracle[-1] > oracle[-2])

    def test_slow_eta_still_falling_at_desk_scale(self):
        # the turnover radius for eta=0.05 at alpha=1 is e^20 ~ 5e8, past
        # the end of the desk grid, so the estimate is 0.05 here, not 0
        rep = pruitt_slope(KAlphaParams(1.0), [0.05, 0.1, 0.5],
                           [10.0 ** k for k in range(1, 9)])
        assert not rep.tail_increasing[0.05]
        assert rep.tail_increasing[0.1]
        assert rep.tail_increasing[0.5]
        assert rep.beta_estimate == 0.05

    def test_small_alpha_estimate_zero(self):
        # for alpha=0.5 every turnover radius e^(alpha/eta) <= e^10 sits
        # inside the grid and the estimate vanishes
        rep = pruitt_slope(KAlphaParams(0.5), [0.05, 0.1, 0.5],
                           [10.0 ** k for k in range(1, 9)])
        assert all(rep.tail_increasing.values())
        assert rep.beta_estimate == 0.0

    def test_values_match_pruitt_index(self):
        p = KAlphaParams(1.0)
        rep = pruitt_slope(p, [0.1], [10.0, 100.0])
        assert rep.values[0.1][0] == pytest.approx(
            10.0 ** 0.1 * pruitt_index(10.0, p), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 1.9])
    def test_cumulative_values_match_pruitt_index_on_bench_grid(self, alpha):
        # 1e1..1e8 at 8 radii per decade, integrated as one partition
        p = KAlphaParams(alpha)
        r_grid = [10.0 ** (1.0 + k / 8.0) for k in range(57)]
        etas = (0.05, 0.1, 0.5)
        rep = pruitt_slope(p, etas, r_grid)
        for r, *values in zip(r_grid, *(rep.values[eta] for eta in etas)):
            h = pruitt_index(r, p)
            for eta, value in zip(etas, values):
                assert value == pytest.approx(r ** eta * h, rel=1e-12)

    def test_radius_one_has_only_the_tail_term(self):
        p = KAlphaParams(1.0)
        rep = pruitt_slope(p, [0.5], [1.0, 10.0])
        assert rep.values[0.5][0] == pytest.approx(p.trunc_mass, rel=1e-15)
        assert rep.values[0.5][1] == pytest.approx(
            10.0 ** 0.5 * pruitt_index(10.0, p), rel=1e-12)

    def test_grid_validation(self):
        p = KAlphaParams(1.0)
        with pytest.raises(ValueError):
            pruitt_slope(p, [0.1], [10.0])
        with pytest.raises(ValueError):
            pruitt_slope(p, [0.1], [0.5, 10.0])
        with pytest.raises(ValueError):
            pruitt_slope(p, [-0.1], [10.0, 100.0])
