import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalpha.paths
from kalpha.cli import main
from kalpha.measure import KAlphaParams
from kalpha.numerics import LN2, LOG_FLOAT_MAX
from kalpha.paths import (BLOCK, EVENT_FIELDS, SIDECAR_SUFFIX, EventPath,
                          _event_lines, _log_jumps, _parse_block,
                          _parse_lines, _shortest_digits, load_event_file,
                          read_event_path, running_sup,
                          save_event_files, simulate_large_jumps,
                          write_event_path)
from util_stats import ks_statistic, native_prefix_sups, poisson_chi2_pvalue


def small_path(alpha=1.0, horizon=10.0, times=(), signs=(), mags=()):
    """Hand-built path with magnitudes small enough to decode."""
    return EventPath(params=KAlphaParams(alpha), horizon=horizon, seed=0,
                     times=np.array(times, dtype=float),
                     signs=np.array(signs, dtype=np.int64),
                     log1p_mags=np.array(mags, dtype=float))


class TestSimulateLarge:
    def test_deterministic_bit_for_bit(self):
        p = KAlphaParams(1.0)
        a = simulate_large_jumps(p, 10.0, 42)
        b = simulate_large_jumps(p, 10.0, 42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.log1p_mags, b.log1p_mags)

    def test_different_seeds_differ(self):
        p = KAlphaParams(1.0)
        a = simulate_large_jumps(p, 10.0, 1)
        b = simulate_large_jumps(p, 10.0, 2)
        assert a.n_events != b.n_events or not np.array_equal(a.times, b.times)

    def test_mean_event_count(self):
        # rate is the truncated mass 2/(alpha ln^alpha 2)
        p = KAlphaParams(1.0)
        counts = [simulate_large_jumps(p, 10.0, s).n_events for s in range(1000)]
        expected = p.trunc_mass * 10.0
        se = math.sqrt(expected / len(counts))
        assert abs(np.mean(counts) - expected) < 3.0 * se

    def test_tiny_horizon_empty(self):
        p = KAlphaParams(1.0)
        assert simulate_large_jumps(p, 1e-9, 7).n_events == 0

    def test_horizon_domain(self):
        with pytest.raises(ValueError):
            simulate_large_jumps(KAlphaParams(1.0), 0.0, 1)
        for horizon in (0.0, -5.0, math.nan):
            with pytest.raises(ValueError, match="horizon must be positive"):
                small_path(horizon=horizon)

    def test_infinite_horizon_refused(self):
        # growth_scan doubles t up to the horizon, so inf would never stop
        with pytest.raises(ValueError, match="horizon must be finite"):
            EventPath(KAlphaParams(1.5), math.inf, 0, [], [], [])

    def test_event_invariants(self):
        p = KAlphaParams(0.5)
        path = simulate_large_jumps(p, 50.0, 9)
        assert np.all(np.diff(path.times) > 0)
        assert path.times[0] >= 0.0 and path.times[-1] <= 50.0
        assert np.min(path.log1p_mags) >= LN2
        assert set(np.unique(path.signs)) <= {-1, 1}

    def test_tied_uniforms_are_nudged_apart(self, monkeypatch, tmp_path):
        # a generator whose random(n) gives each value three times: the
        # sorted times tie in threes, and each tie is nudged up an ulp
        real = kalpha.paths.derive_rng

        class Tied:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, n):
                return np.repeat(self.rng.random(-(-n // 3)), 3)[:n]

        monkeypatch.setattr(kalpha.paths, "derive_rng",
                            lambda seed, key=(): Tied(real(seed, key)))
        path = simulate_large_jumps(KAlphaParams(1.5), 50.0, 3)
        t = path.times
        assert path.n_events >= 30
        assert np.all(t[1:] > t[:-1])
        nudged = t[1:] == np.nextafter(t[:-1], np.inf)
        assert np.count_nonzero(nudged) >= 2 * (path.n_events // 3)
        target = tmp_path / "p.jsonl"
        save_event_files([(target, path)])
        assert_same_path(load_event_file(target), path)
        assert_same_path(parse_jsonl(target), path)

    def test_rows_are_read_only_views_of_the_callers_arrays(self):
        # the path's rows cannot be written, but the caller's own arrays,
        # which they share without a copy, stay writable
        t, s = np.array([1.0, 2.0]), np.array([1.0, -1.0])
        path = EventPath(KAlphaParams(1.5), 10.0, 0, t, s, np.array([1.0, 2.0]))
        t[0], s[0] = 0.5, -1.0
        assert t.flags.writeable and s.flags.writeable
        assert not (path.times.flags.writeable or path.signs.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            path.times[0] = 0.25
        assert np.shares_memory(path.times, t) and np.shares_memory(path.signs, s)

    def test_magnitude_law_ks(self):
        p = KAlphaParams(1.0)
        horizon = 1.1e5 / p.trunc_mass
        path = simulate_large_jumps(p, horizon, 977)
        mags = path.log1p_mags[:100_000]
        assert len(mags) == 100_000
        D = ks_statistic(mags, lambda l: 1.0 - (LN2 / l) ** p.alpha)
        assert D < 0.01

    @pytest.mark.parametrize("block", [1, 3, 7, BLOCK])
    def test_pinned_draw_at_any_block(self, block, monkeypatch):
        # SHA-256 of the times, the signs cast to int64 (the dtype they
        # were recorded in) and the log1p magnitudes, recorded from the
        # whole-array draw; never re-recorded
        monkeypatch.setattr(kalpha.paths, "BLOCK", block)
        path = simulate_large_jumps(KAlphaParams(1.5), 1e3, 42, (0,))
        digest = hashlib.sha256()
        for row in (path.times, path.signs.astype(np.int64), path.log1p_mags):
            digest.update(row.tobytes())
        assert path.signs.dtype == np.float64
        assert digest.hexdigest() == ("3abd8453246e0ebf1fb773a97e3face2"
                                      "e89c32d08c8ef9cfa2c0fb3f7a690d07")

    def test_expected_count_beyond_poisson_refused(self):
        # trunc_mass is about 1.7e308 here, beyond any Poisson draw
        with pytest.raises(ValueError, match="expected event count"):
            simulate_large_jumps(KAlphaParams(1.2e-308), 1.0, 1)

    def test_memory_is_the_returned_arrays(self, traced_peak):
        # stated before the first run: the three returned arrays, drawn
        # and transformed in place, plus boolean checks and one block of
        # scratch, at most 4.25 float64 arrays of the path's length (the
        # whole-array draw held 4.38)
        path, peak = traced_peak(simulate_large_jumps, KAlphaParams(1.5),
                                 5e4, 42)
        assert path.n_events >= 100_000
        assert peak <= 4.25 * 8 * path.n_events

    def test_event_count_chi_square(self):
        p = KAlphaParams(1.0)
        counts = [simulate_large_jumps(p, 1.0, 10_000 + s).n_events
                  for s in range(1000)]
        assert poisson_chi2_pvalue(counts, p.trunc_mass) > 0.001


def reference_log_prefix_sums(lj, signs):
    """ln |K_i| for K_0 = 0 and each prefix sum K_i of the jumps
    s_j e^{lj_j}, in whole arrays: the blockwise running_sup's arithmetic
    in its order."""
    ref = np.maximum.accumulate(lj)
    scaled = signs * np.exp(lj - ref)
    starts = np.flatnonzero(ref[1:] > ref[:-1]) + 1
    for a, b in zip([0, *starts], [*starts, len(lj)]):
        if a:
            scaled[a] += scaled[a - 1] * math.exp(ref[a - 1] - ref[a])
        np.cumsum(scaled[a:b], out=scaled[a:b])
    with np.errstate(divide="ignore"):
        return np.append(-math.inf, ref + np.log(np.abs(scaled)))


def reference_sup_levels(path):
    """The whole-array running sup: its log level at time 0, then at
    each event."""
    logmag = reference_log_prefix_sums(_log_jumps(path.log1p_mags), path.signs)
    return np.maximum.accumulate(logmag)


def reference_running_sup(path):
    """reference_sup_levels compressed to its steps: (0, -inf), then each
    event at which the level rises."""
    levels = reference_sup_levels(path)
    steps = np.append(0, np.flatnonzero(levels[1:] > levels[:-1]) + 1)
    return np.append(0.0, path.times)[steps], levels[steps]


def sup_at_events(path):
    """The log sup at each event of path, read off running_sup's steps."""
    times, levels = running_sup(path)
    return levels[np.searchsorted(times, path.times, side="right") - 1]


def blockwise_cases(n: int) -> dict:
    """Paths of about n events whose prefix sums stress the carry across
    block edges: seeded, decreasing (one record), tied with alternating
    signs (exact zeros), and a new record at every index divisible by 3,
    7 or BLOCK, with a jump e^5000 that drowns what follows."""
    rng = np.random.default_rng(n)
    times = (np.arange(n) + 0.5) * (10.0 / n)
    signs = rng.choice([-1, 1], n)
    edges = np.flatnonzero((np.arange(n) % 3 == 0) | (np.arange(n) % 7 == 0)
                           | (np.arange(n) % BLOCK == 0))
    records = np.full(n, LN2)
    records[edges] = np.linspace(1.0, 40.0, len(edges))
    records[n // 2] = 5000.0
    records[n // 2 + 1:][records[n // 2 + 1:] > LN2] += 5000.0
    return {
        "seeded": simulate_large_jumps(KAlphaParams(1.5), n / 2.3, 42),
        "decreasing": small_path(times=times, signs=signs,
                                 mags=np.linspace(50.0, 1.0, n)),
        "tied": small_path(times=times, signs=np.where(np.arange(n) % 2, -1, 1),
                           mags=np.full(n, 7.0)),
        "records-at-edges": small_path(times=times, signs=signs, mags=records),
    }


def assert_running_sup_matches_reference(path):
    want_times, want_levels = reference_running_sup(path)
    times, levels = running_sup(path)
    assert times.tobytes() == want_times.tobytes()
    assert levels.tobytes() == want_levels.tobytes()
    assert (sup_at_events(path).tobytes()
            == reference_sup_levels(path)[1:].tobytes())


def exact_prefix_sups(signs, log1p_mags) -> list[Fraction]:
    """Running max of |prefix sums| in exact rationals."""
    total = best = Fraction(0)
    out = []
    for s, m in zip(signs, log1p_mags):
        total += Fraction(s * math.expm1(m))
        best = max(best, abs(total))
        out.append(best)
    return out


@st.composite
def adversarial_paths(draw):
    """Paths of up to 200 events with repeated magnitudes, sorted orders,
    and retraced halves that undo each jump, back to exactly zero."""
    n = draw(st.integers(0, 200))
    mag = st.floats(min_value=LN2, max_value=40.0)
    pool = draw(st.lists(mag, min_size=1, max_size=6))
    mags = draw(st.lists(st.one_of(st.sampled_from(pool), mag),
                         min_size=n, max_size=n))
    order = draw(st.sampled_from(["drawn", "increasing", "decreasing"]))
    if order != "drawn":
        mags.sort(reverse=order == "decreasing")
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    if draw(st.booleans()):
        half = n // 2
        mags = mags[:half] + mags[:half][::-1]
        signs = signs[:half] + [-s for s in reversed(signs[:half])]
    return small_path(times=(np.arange(len(mags)) + 0.5) * (10.0 / max(n, 1)),
                      signs=signs, mags=mags)


class TestRunningSup:
    def test_empty_path(self):
        times, levels = running_sup(small_path())
        assert times.tolist() == [0.0]
        assert levels.tolist() == [-math.inf]

    def test_single_event(self):
        ell = 1.2
        times, levels = running_sup(small_path(times=[1.0], signs=[1],
                                               mags=[ell]))
        assert times.tolist() == [0.0, 1.0]
        assert levels[0] == -math.inf
        assert math.exp(levels[1]) == pytest.approx(math.expm1(ell), rel=1e-12)

    def test_prefix_sums_are_log_magnitudes(self):
        # K = 2, then 2 - 2 = 0 exactly (no step), then -3
        path = small_path(times=[1.0, 2.0, 3.0], signs=[1, -1, -1],
                          mags=np.log1p([2.0, 2.0, 3.0]))
        lj = _log_jumps(path.log1p_mags)
        times, levels = running_sup(path)
        assert times.tolist() == [0.0, 1.0, 3.0]
        assert levels.tolist() == [-math.inf, lj[0], lj[2]]
        assert levels[1:].tolist() == pytest.approx(
            [math.log(2.0), math.log(3.0)], rel=1e-15)

    @settings(max_examples=50)
    @given(adversarial_paths())
    def test_steps_rise_strictly_at_event_times(self, path):
        times, levels = running_sup(path)
        assert (times[0], levels[0]) == (0.0, -math.inf)
        assert np.all(levels[1:] > levels[:-1])
        assert np.all(np.isin(times[1:], path.times))

    @pytest.mark.parametrize("block", [1, 3, 7, BLOCK])
    def test_matches_whole_array_reference(self, block, monkeypatch):
        # the record, the scaled total and the level carry across block
        # edges, bit for bit
        cases = blockwise_cases(max(2 * block + 5, 300))
        monkeypatch.setattr(kalpha.paths, "BLOCK", block)
        for path in cases.values():
            assert_running_sup_matches_reference(path)

    @settings(max_examples=50)
    @given(adversarial_paths())
    def test_adversarial_paths_match_whole_array_reference(self, path):
        for block in (1, 3, 7, BLOCK):
            with mock.patch.object(kalpha.paths, "BLOCK", block):
                assert_running_sup_matches_reference(path)

    def test_memory_is_one_block_and_the_steps(self, traced_peak):
        # stated before the first run: a few arrays of one block and the
        # steps (a few dozen here), at most 0.75 float64 arrays of the
        # path's length (2.75 when the per-event outputs were filled by
        # blocks, 5 when they were formed whole)
        path = simulate_large_jumps(KAlphaParams(1.5), 5e4, 42)
        n = path.n_events
        assert n >= 100_000
        (times, levels), peak = traced_peak(running_sup, path)
        assert levels.tobytes() == reference_running_sup(path)[1].tobytes()
        assert peak <= 0.75 * 8 * n

    def test_cancellation_then_new_max(self):
        # second jump overshoots: running max becomes |J1 - J2|
        j1, j2 = 2.0, 5.0
        _, levels = running_sup(small_path(times=[1.0, 2.0], signs=[1, -1],
                                           mags=[math.log1p(j1), math.log1p(j2)]))
        assert np.exp(levels).tolist() == pytest.approx([0.0, j1, j2 - j1],
                                                        rel=1e-12)

    def test_matches_native_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            times = np.sort(rng.uniform(0, 10, n))
            times = np.unique(times)
            signs = rng.choice([-1, 1], len(times))
            mags = rng.uniform(LN2, 3.0, len(times))
            path = small_path(times=times, signs=signs, mags=mags)
            got = np.exp(sup_at_events(path))
            want = native_prefix_sups(signs, mags)
            assert list(got) == pytest.approx(list(want), rel=1e-11)

    def test_nondecreasing_and_sign_flip_invariant(self):
        p = KAlphaParams(1.5)
        path = simulate_large_jumps(p, 30.0, 4)
        times, levels = running_sup(path)
        assert np.all(np.diff(levels) >= 0)
        flipped = EventPath(params=path.params, horizon=path.horizon,
                            seed=path.seed, times=path.times,
                            signs=-path.signs, log1p_mags=path.log1p_mags)
        flipped_times, flipped_levels = running_sup(flipped)
        assert np.array_equal(flipped_times, times)
        assert np.array_equal(flipped_levels, levels)

    def test_huge_magnitudes_stay_in_log_domain(self):
        path = small_path(times=[1.0, 2.0], signs=[1, 1], mags=[4000.0, 5000.0])
        _, levels = running_sup(path)
        assert levels[-1] > 4999.0
        assert levels[-1] > LOG_FLOAT_MAX   # far beyond native floats

    def test_dynamic_range_e5000(self):
        # at these magnitudes ln|jump| = log1p_mag to the last bit, so the
        # levels are e - 1, e^5000 (the small jump is far below its ulp),
        # 3 e^5000 (e^5000 + 2 e^5000), and 3 e^5000 again
        path = small_path(times=[1.0, 2.0, 3.0, 4.0], signs=[1, 1, 1, -1],
                          mags=[1.0, 5000.0, 5000.0 + LN2, 2.0])
        want = [math.log(math.e - 1.0), 5000.0, 5000.0 + math.log(3.0),
                5000.0 + math.log(3.0)]
        # an absolute error in ln(level) is a relative error in the level;
        # the ulp of 5000 is 9.1e-13
        assert sup_at_events(path).tolist() == pytest.approx(want, rel=0.0,
                                                             abs=1e-11)

    @given(adversarial_paths())
    def test_matches_exact_rational_sups(self, path):
        want = exact_prefix_sups(path.signs.tolist(), path.log1p_mags.tolist())
        got = np.exp(sup_at_events(path)).tolist()
        assert got == pytest.approx([float(w) for w in want], rel=1e-12, abs=0.0)


class TestPersistence:
    def test_pinned_file_bytes(self, tmp_path):
        # SHA-256 of the JSONL that write_event_path writes and of the
        # sidecar beside it, both with no manifest, recorded from the
        # text-mode writer that the byte writer replaced; never re-recorded
        path = simulate_large_jumps(KAlphaParams(1.5), 1e3, 42, (0,))
        jsonl = ("eb16e000a5fb3d0aca8d173864aa871a"
                 "ee4d84216e5bd3983ac052865f5aaceb")
        buf = io.BytesIO()
        write_event_path(path, buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == jsonl
        target = tmp_path / "p.jsonl"
        save_event_files([(target, path)])
        assert hashlib.sha256(target.read_bytes()).hexdigest() == jsonl
        sidecar = Path(f"{target}{SIDECAR_SUFFIX}").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == (
            "6ba4427bb418c3085d428c79a589688a"
            "d84e292ec6aedd34716a53d404166878")

    def test_round_trip_bit_exact(self):
        p = KAlphaParams(1.5)
        path = simulate_large_jumps(p, 25.0, 13)
        buf = io.BytesIO()
        write_event_path(path, buf)
        buf.seek(0)
        back = read_event_path(buf)
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.signs, path.signs)
        assert np.array_equal(back.log1p_mags, path.log1p_mags)
        assert back.params.alpha == path.params.alpha
        assert back.seed == path.seed
        assert back.horizon == path.horizon

    def test_metadata_record(self):
        import json
        p = KAlphaParams(1.5)
        path = simulate_large_jumps(p, 5.0, 3, spawn_key=(2,))
        buf = io.BytesIO()
        write_event_path(path, buf)
        meta = json.loads(buf.getvalue().splitlines()[0])
        assert meta["format_version"] == 1
        assert meta["component"] == "large"
        assert meta["alpha"] == 1.5
        assert meta["seed"] == 3
        assert meta["rng_name"] == "philox4x64"
        assert meta["spawn_key"] == [2]

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_round_trip_at_block_edges(self, n):
        rng = np.random.default_rng(n)
        path = small_path(horizon=float(n + 1),
                          times=np.arange(n) + rng.random(n),
                          signs=rng.choice([-1, 1], n),
                          mags=LN2 + rng.exponential(5.0, n))
        buf = io.BytesIO()
        write_event_path(path, buf)
        assert buf.getvalue().count(b"\n") == n + 1
        buf.seek(0)
        back = read_event_path(buf)
        for field in ("times", "signs", "log1p_mags"):
            a, b = getattr(back, field), getattr(path, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_writer_matches_json_dumps_per_event(self):
        # exponent-form reprs included: 5e-324, 1e-05 and 1e+16
        times = [5e-324, 1e-05, 0.1, 1.0, 1e+16]
        mags = [LN2, 1e-05 + 1.0, 1e+16, 1.7976931348623157e+308, 2.5]
        path = small_path(horizon=1e+17, times=times, signs=[1, -1, 1, 1, -1],
                          mags=mags)
        buf = io.BytesIO()
        write_event_path(path, buf)
        events = buf.getvalue().splitlines(keepends=True)[1:]
        assert events == [json.dumps({"t": float(t), "sign": int(s),
                                      "log1p_mag": float(m)}).encode() + b"\n"
                          for t, s, m in zip(path.times, path.signs,
                                             path.log1p_mags)]

    def test_malformed_line_in_second_block_names_its_line(self):
        path = small_path(horizon=float(BLOCK + 10),
                          times=np.arange(BLOCK + 5) + 0.5,
                          signs=np.ones(BLOCK + 5, dtype=np.int64),
                          mags=np.full(BLOCK + 5, 1.0))
        buf = io.BytesIO()
        write_event_path(path, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        bad = BLOCK + 4           # header is line 1, so event BLOCK + 2
        lines[bad - 1] = lines[bad - 1].replace(b'"sign"', b'"sgn"')
        with pytest.raises(ValueError, match=f"^line {bad}: "):
            read_event_path(io.BytesIO(b"".join(lines)))

    def test_deeply_nested_line_is_a_value_error(self):
        path = small_path(times=[1.0], signs=[1], mags=[1.0])
        buf = io.BytesIO()
        write_event_path(path, buf)
        header, event = buf.getvalue().splitlines(keepends=True)
        nested = b"[" * 100_000 + b"\n"
        for text, lineno in ((nested, 1), (header + nested, 2),
                             (header + event + nested, 3)):
            with pytest.raises(ValueError, match=f"^line {lineno}: invalid JSON"):
                read_event_path(io.BytesIO(text))

    def test_rejects_foreign_files(self):
        with pytest.raises(ValueError):
            read_event_path(io.BytesIO(b""))
        for version in ("99", "true", "1.0"):
            with pytest.raises(ValueError, match="^unsupported path header"):
                read_event_path(io.BytesIO(
                    f'{{"format_version": {version}, "component": "large", '
                    '"alpha": 1.0, "horizon": 1.0, "seed": 0}\n'.encode()))
        with pytest.raises(ValueError):
            read_event_path(io.BytesIO(
                b'{"format_version": 1, "component": "small", "alpha": 1.0,'
                b' "horizon": 1.0, "seed": 0}\n'))


def by_line(text):
    """text or bytes split after each line break, so that a mismatch is
    reported as the first line that differs rather than diffed whole."""
    return text.splitlines(keepends=True)


def assert_same_path(a, b):
    for field in ("times", "signs", "log1p_mags"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert (a.params.alpha, a.horizon, a.seed, a.spawn_key, a.rng_name) == \
           (b.params.alpha, b.horizon, b.seed, b.spawn_key, b.rng_name)


def parse_jsonl(name):
    with open(name, "rb") as fp:
        return read_event_path(fp)


def npy_bytes(array, **kwargs):
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class Canary:
    """Records in UNPICKLED if it is ever unpickled."""

    def __reduce__(self):
        return _record_unpickling, ()


def npz_bytes(events):
    buf = io.BytesIO()
    np.savez(buf, events=events)
    return buf.getvalue()


def version_2_header(digest, events):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, events, version=(2, 0))
    return digest + buf.getvalue()


def huge_header(digest, events):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (3, 10 ** 12)})
    return digest + buf.getvalue() + events.tobytes()


def reordered_header(digest, events):
    """A version 1.0 header that numpy reads, with the keys in an order
    save_event_files never writes."""
    text = f"{{'shape': {events.shape}, 'fortran_order': False, 'descr': '<f8', }}"
    text += " " * (-(len(text) + 11) % 64) + "\n"
    payload = (b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little")
               + text.encode() + events.tobytes())
    assert np.array_equal(np.load(io.BytesIO(payload)), events)
    return digest + payload


def with_sign(value):
    """Sidecar bytes with the right digest and header whose last sign is
    value, which only EventPath's sign check can refuse."""
    def sidecar(digest, events):
        events = events.copy()
        events[1, -1] = value
        return digest + npy_bytes(events)
    return sidecar


# (digest of the JSONL, its (3, n) event array) -> sidecar bytes
BAD_SIDECARS = {
    "empty": lambda d, e: b"",
    "truncated-digest": lambda d, e: d[:10],
    "truncated-payload": lambda d, e: (d + npy_bytes(e))[:-7],
    "wrong-digest": lambda d, e: bytes([d[0] ^ 1]) + d[1:] + npy_bytes(e),
    "wrong-shape": lambda d, e: d + npy_bytes(e[:2]),
    "transposed": lambda d, e: d + npy_bytes(e.T.copy()),
    "wrong-dtype": lambda d, e: d + npy_bytes(e.astype(np.float32)),
    "pickled-object-array": lambda d, e: d + npy_bytes(
        np.array([Canary(), None], dtype=object), allow_pickle=True),
    "npz-payload": lambda d, e: d + npz_bytes(e),
    "fails-event-checks": lambda d, e: d + npy_bytes(e[:, ::-1].copy()),
    "shape-beyond-memory": huge_header,
    "version-2-header": version_2_header,
    "reordered-header-keys": reordered_header,
    "sign-0.5": with_sign(0.5),
    "sign-0": with_sign(0.0),
    "sign-2": with_sign(2.0),
    "sign-nan": with_sign(math.nan),
}


@pytest.fixture()
def jsonl_reads(monkeypatch):
    """Every read_event_path call that load_event_file makes."""
    calls = []

    def counted(fp):
        calls.append(fp)
        return read_event_path(fp)

    monkeypatch.setattr(kalpha.paths, "read_event_path", counted)
    return calls


class TestSidecar:
    @staticmethod
    def saved(tmp_path, n=4, manifest=None):
        rng = np.random.default_rng(n)
        path = EventPath(params=KAlphaParams(1.25), horizon=float(n + 1),
                         seed=9, spawn_key=(3,),
                         times=np.arange(n) + rng.random(n),
                         signs=rng.choice([-1, 1], n),
                         log1p_mags=LN2 + rng.exponential(5.0, n))
        target = tmp_path / "p.jsonl"
        save_event_files([(target, path)], manifest)
        return target, path

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_round_trip_matches_jsonl_parse(self, n, tmp_path, jsonl_reads):
        target, path = self.saved(tmp_path, n, {"note": "x"})
        assert sorted(f.name for f in tmp_path.iterdir()) == \
               ["p.jsonl", "p.jsonl" + SIDECAR_SUFFIX]
        loaded = load_event_file(target)
        assert jsonl_reads == []
        assert loaded.signs.dtype == parse_jsonl(target).signs.dtype == np.float64
        assert_same_path(loaded, parse_jsonl(target))
        assert_same_path(loaded, path)
        # the rows are written one at a time, as numpy.save writes the stack
        events = np.stack((path.times, path.signs, path.log1p_mags), dtype=float)
        payload = Path(f"{target}{SIDECAR_SUFFIX}").read_bytes()[32:]
        assert payload == npy_bytes(events, allow_pickle=False)

    @pytest.mark.parametrize("old, new", [
        ('"log1p_mag": 3.5}', '"log1p_mag": 3.6}'),
        ('"seed": 0', '"seed": 7'),
    ], ids=["event-digit", "header-field"])
    def test_jsonl_edited_in_place_is_parsed(self, old, new, tmp_path,
                                             jsonl_reads):
        path = small_path(times=[1.0, 2.0], signs=[1, -1], mags=[1.0, 3.5])
        target = tmp_path / "p.jsonl"
        save_event_files([(target, path)])
        text = target.read_text()
        assert text.count(old) == 1
        target.write_text(text.replace(old, new))
        loaded = load_event_file(target)
        assert len(jsonl_reads) == 1
        assert_same_path(loaded, parse_jsonl(target))
        assert (loaded.seed, loaded.log1p_mags[1]) != (0, 3.5)

    @pytest.mark.parametrize("kind", [None, *BAD_SIDECARS])
    def test_unusable_sidecar_falls_back(self, kind, tmp_path, jsonl_reads):
        target, path = self.saved(tmp_path, 5)
        sidecar = Path(f"{target}{SIDECAR_SUFFIX}")
        if kind is None:
            sidecar.unlink()
        else:
            good = sidecar.read_bytes()
            digest, events = good[:32], np.load(io.BytesIO(good[32:]))
            sidecar.write_bytes(BAD_SIDECARS[kind](digest, events))
        del UNPICKLED[:]
        loaded = load_event_file(target)
        assert UNPICKLED == []
        assert len(jsonl_reads) == 1
        assert_same_path(loaded, path)

    def test_file_renamed_over_mid_load_is_read_whole(self, tmp_path,
                                                      monkeypatch):
        # b replaces a (as simulate's final os.replace would) after a's
        # hash and sidecar are read: the load must still be one file's
        # header and events, here a's, never b's header with a's arrays
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        path_a = simulate_large_jumps(KAlphaParams(1.5), 40.0, 1)
        path_b = simulate_large_jumps(KAlphaParams(0.8), 70.0, 2)
        assert path_a.n_events != path_b.n_events
        save_event_files([(a, path_a), (b, path_b)])
        sidecar_events = kalpha.paths._sidecar_events

        def then_replaced(name, digest):
            events = sidecar_events(name, digest)
            os.replace(b, a)
            return events

        monkeypatch.setattr(kalpha.paths, "_sidecar_events", then_replaced)
        assert_same_path(load_event_file(a), path_a)

    def test_load_is_a_few_arrays_of_the_path(self, tmp_path, traced_peak):
        # the three returned arrays, plus boolean checks of the path's
        # length; the (3, n) payload is never formed (5 arrays leaves room
        # for numpy's temporaries; the whole payload plus row copies and
        # EventPath's float temporaries cost about 8)
        path = simulate_large_jumps(KAlphaParams(1.5), 5e4, 42)
        n = path.n_events
        assert n >= 100_000
        target = tmp_path / "p.jsonl"
        save_event_files([(target, path)])
        loaded, peak = traced_peak(load_event_file, target)
        assert_same_path(loaded, path)
        assert peak <= 5 * 8 * n

    def test_read_never_writes_a_sidecar(self, tmp_path):
        path = small_path(times=[1.0], signs=[1], mags=[2.0])
        target = tmp_path / "p.jsonl"
        with open(target, "wb") as fp:
            write_event_path(path, fp)
        assert_same_path(load_event_file(target), path)
        assert [f.name for f in tmp_path.iterdir()] == ["p.jsonl"]


def block_path(n, seed=0):
    """A path of exactly n events with random signs and magnitudes."""
    rng = np.random.default_rng(seed)
    return small_path(horizon=float(n + 1), times=np.arange(n) + rng.random(n),
                      signs=rng.choice([-1, 1], n),
                      mags=LN2 + rng.exponential(5.0, n))


class TestSaveEventFiles:
    @staticmethod
    def written(tmp_path, paths, lazy=False):
        out = tmp_path / f"w{'-lazy' if lazy else ''}"
        out.mkdir()
        jobs = [(out / f"p{i}.jsonl", path) for i, path in enumerate(paths)]
        save_event_files((job for job in jobs) if lazy else jobs, {"note": "x"})
        assert sorted(out.iterdir()) == sorted(
            [t for t, _ in jobs] + [Path(f"{t}{SIDECAR_SUFFIX}") for t, _ in jobs])
        return [(t.read_bytes(), Path(f"{t}{SIDECAR_SUFFIX}").read_bytes())
                for t, _ in jobs]

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 1])
    def test_bytes_match_write_event_path(self, n, tmp_path):
        path = block_path(n)
        buf = io.BytesIO()
        write_event_path(path, buf, {"note": "x"})
        assert (by_line(self.written(tmp_path, [path])[0][0])
                == by_line(buf.getvalue()))

    def test_ensemble_with_an_empty_path(self, tmp_path):
        paths = [block_path(n, seed) for seed, n in
                 enumerate([3, 0, 2 * BLOCK + 1, BLOCK, 0, 1])]
        for (jsonl, _), path in zip(self.written(tmp_path, paths), paths):
            assert jsonl.count(b"\n") == path.n_events + 1
            assert_same_path(read_event_path(io.BytesIO(jsonl)), path)

    def test_generator_fed_files_match_list_fed(self, tmp_path):
        paths = [block_path(n, seed) for seed, n in enumerate(
            [0, 1, BLOCK - 1, BLOCK + 1, 0, 2 * BLOCK + 1, 1, BLOCK + 1,
             5 * BLOCK + 1, 5 * BLOCK + 1, 0])]
        lazy, listed = (self.written(tmp_path, paths, lazy=flag)
                        for flag in (True, False))
        assert [list(map(by_line, files)) for files in lazy] == \
               [list(map(by_line, files)) for files in listed]

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_memory_does_not_grow_with_the_paths(self, blocks, tmp_path,
                                                 traced_peak):
        # the paths are drawn from the generator as their files are
        # written, and only the one being written is held, whether a path
        # ends in its first block or runs on into a second
        def peak(count):
            out = tmp_path / f"{count}"
            out.mkdir()
            jobs = ((out / f"p{i}.jsonl", block_path(blocks * BLOCK + 1, i))
                    for i in range(count))
            return traced_peak(save_event_files, jobs)[1]

        peak(4)         # first-use costs
        few, many = peak(16), peak(64)
        # holding every path would make many about 3 times few
        assert many < 1.25 * few

    def test_longest_lines_fit_line_max(self, tmp_path):
        # 23-character reprs for t and log1p_mag, and sign -1: the kernel
        # sets _LINE_MAX bytes aside for each line
        n = BLOCK + 1
        times = 1.2345678901234567e-300 * (1.0 + np.arange(n) * 2.0 ** -40)
        path = small_path(horizon=1.0, times=times, signs=-np.ones(n),
                          mags=np.full(n, 1.2345678901234567e+300))
        jsonl = self.written(tmp_path, [path])[0][0]
        assert len(jsonl.splitlines()[1]) == 80 < kalpha.paths._LINE_MAX
        assert_same_path(read_event_path(io.BytesIO(jsonl)), path)

    def test_sidecar_digest_is_the_file_on_disk(self, tmp_path):
        paths = [block_path(BLOCK + 1), block_path(7, 1)]
        for jsonl, sidecar in self.written(tmp_path, paths):
            assert sidecar[:32] == hashlib.sha256(jsonl).digest()

    def test_manifest_is_the_last_header_field(self, tmp_path):
        # the path's own fields first, in a fixed order, then the manifest
        path = simulate_large_jumps(KAlphaParams(1.5), 20.0, 1, (4,))
        manifest = {"command": "simulate", "alpha": 0.5, "seed": None}
        target = tmp_path / "p.jsonl"
        save_event_files([(target, path)], manifest)
        header = json.loads(target.read_text().splitlines()[0])
        assert list(header) == ["format_version", "alpha", "horizon", "seed",
                                "rng_name", "component", "spawn_key",
                                "manifest"]
        assert header["manifest"] == manifest
        assert header["alpha"] == 1.5
        buf = io.BytesIO()
        write_event_path(path, buf)
        assert "manifest" not in json.loads(buf.getvalue().splitlines()[0])
        assert_same_path(load_event_file(target), path)


class TestEnsembles:
    def test_paths_are_independent_streams(self):
        p = KAlphaParams(1.0)
        ens = [simulate_large_jumps(p, 5.0, 42, spawn_key=(i,))
               for i in range(3)]
        assert len({tuple(e.times.tolist()) for e in ens}) == 3

    def test_spawn_key_recorded(self):
        p = KAlphaParams(1.0)
        ens = [simulate_large_jumps(p, 5.0, 42, spawn_key=(i,))
               for i in range(2)]
        assert ens[0].spawn_key == (0,)
        assert ens[1].spawn_key == (1,)


# Block texts for the differential fuzz of the event-line codec: valid
# records in the writer's shape, with a few lines bent into other valid
# or invalid JSONL shapes.
ODD_TOKENS = ["+1.5", "01.5", "1e5", "1E+5", "-0", "-0.0", "1.0", "1", "NaN",
              "Infinity", "-Infinity", "true", "false", "null", '"0.9"',
              "[1.5]", '{"v": 1.5}', "1" + "0" * 400, "", ".5", "1.", "1e",
              "1.5.5", "--1", "0x10", "5e-324", "1e400"]
ODD_KEYS = ["t1", "1t", "T", "si1gn", "sign ", "log1p_mag1", "lo1gp_mag",
            "logp_mag", "log1p-mag"]
MUTATIONS = ["value", "exponent", "float-sign", "reorder", "rename", "extra",
             "spacing", "blank", "after-end"]


@st.composite
def event_blocks(draw):
    """(text, canonical): up to 12 event lines, canonical when every line
    is exactly what write_event_path writes."""
    n = draw(st.integers(0, 12))
    mags = draw(st.lists(st.floats(min_value=LN2, max_value=50.0),
                         min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    rows = [{"keys": list(EVENT_FIELDS), "values": [0.5 * (i + 1), s, m],
             "tokens": [repr(0.5 * (i + 1)), repr(s), repr(m)],
             "colon": ": ", "comma": ", ", "extra": "", "after": "",
             "blank": False}
            for i, (s, m) in enumerate(zip(signs, mags))]
    canonical = True
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        j = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(MUTATIONS))
        canonical = False
        if kind == "value":
            row["tokens"][j] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "exponent":
            row["tokens"][j] = f"{row['values'][j]:e}"
        elif kind == "float-sign":
            row["tokens"][1] += ".0"
        elif kind == "reorder":
            order = draw(st.permutations([0, 1, 2]))
            row["keys"] = [row["keys"][k] for k in order]
            row["tokens"] = [row["tokens"][k] for k in order]
        elif kind == "rename":
            row["keys"][j] = draw(st.sampled_from(ODD_KEYS))
        elif kind == "extra":
            row["extra"] = draw(st.sampled_from([', "x": 1', ', "t2": 5',
                                                 ', "note": "a"',
                                                 ', "note": "\u00e9"']))
        elif kind == "after-end":
            row["after"] = draw(st.sampled_from(["7", "1e5", "-0", ".", " "]))
        elif kind == "spacing":
            row["colon"], row["comma"] = draw(st.sampled_from(
                [(":", ","), (":  ", ", "), (": ", " , "), (":\t", ",\t")]))
        else:
            row["blank"] = True
    lines = []
    for row in rows:
        if row["blank"]:
            lines.append(draw(st.sampled_from(["", "   "])))
        fields = row["comma"].join(f'"{k}"{row["colon"]}{v}'
                                   for k, v in zip(row["keys"], row["tokens"]))
        lines.append("{" + fields + row["extra"] + "}" + row["after"])
    text = "".join(line + "\n" for line in lines)
    if text and draw(st.booleans()):
        text, canonical = text[:-1], False
    return text, canonical


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestBlockCodec:
    HEADER = json.dumps({"format_version": 1, "alpha": 1.5, "horizon": 1000.0,
                         "seed": 0, "rng_name": "philox4x64",
                         "component": "large"}) + "\n"

    @settings(max_examples=300)
    @given(event_blocks())
    def test_fast_block_parse_matches_per_line_reference(self, block):
        text, canonical = block
        lines = io.BytesIO(text.encode()).readlines()
        fast = _parse_block(lines)
        try:
            ref = _parse_lines(lines, 2)
        except ValueError:
            ref = None
        if canonical:
            assert fast is not None
        if fast is not None:
            assert ref is not None
            for a, b in zip(fast, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=300)
    @given(event_blocks())
    def test_cli_exit_codes_and_strict_json(self, block):
        text, _ = block
        with tempfile.TemporaryDirectory() as tmp:
            infile = Path(tmp) / "p.jsonl"
            infile.write_bytes((self.HEADER + text).encode())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["diagnose", "--in", str(infile),
                           "--envelope", "exp:c=1"])
        assert rc in (0, 2, 3, 4)
        if rc == 0:
            json.loads(out.getvalue(), parse_constant=reject_constant)
        else:
            assert err.getvalue().startswith("error: ")


def json_lines(times, signs, mags) -> bytes:
    """The event lines as json.dumps writes each record."""
    return "".join(json.dumps({"t": t, "sign": int(s), "log1p_mag": m}) + "\n"
                   for t, s, m in zip(times, signs, mags)).encode()


def around(x, ulps):
    """x and its neighbours up to ulps floats away on either side."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def boundary_floats() -> list[float]:
    """Floats at each edge of _shortest_digits's exact domain, and 0,
    subnormals and the largest float, +-3 ulps."""
    centres = [1e-4, 1e16, 0.0, 5e-324, 2.0 ** -1022, 1.7976931348623157e308]
    centres += [2.0 ** e for e in range(-16, 56)]
    centres += [10.0 ** e for e in range(-5, 17)]
    centres += [1.0, 2.0, 3.0, 7.0, 12345.0, 2.0 ** 52 + 2.0, 9e15]
    # ties: Y = x * 10^k with fraction 1/2, and the round-half cases of
    # 16 digits
    centres += [1e15 + 0.25, 1e15 + 0.75, 2.0 ** 50 + 0.5, 4e15 + 0.5,
                1.5, 0.5, 0.25, 0.125]
    # 14 to 17 significant digits at every decimal exponent of the domain
    digits = "12345678901234567"
    for exponent in range(-4, 16):
        for n in (14, 15, 16, 17):
            centres.append(float(f"{digits[0]}.{digits[1:n]}e{exponent}"))
            centres.append(float(f"9.{'9' * (n - 1)}e{exponent}"))
    return [v for c in centres for v in around(c, 3) if 0.0 <= v < math.inf]


class TestEventLines:
    """_event_lines writes every float as repr does, so each line is the
    one json.dumps writes for its record."""

    @staticmethod
    def check(values, signs=None):
        values = np.array(values, dtype=np.float64)
        if signs is None:
            signs = np.where(np.arange(len(values)) % 3, 1, -1)
        mags = values[::-1].copy()
        got = _event_lines(values, signs, mags).tobytes()
        assert by_line(got) == by_line(json_lines(
            values.tolist(), signs.tolist(), mags.tolist()))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                  st.floats(1e-4, 1e16, exclude_max=True)),
        st.sampled_from([-1, 1])), max_size=40))
    def test_matches_json_dumps(self, rows):
        values = [v for v, _ in rows]
        self.check(values, np.array([s for _, s in rows], dtype=np.int64))

    def test_domain_boundaries(self):
        values = boundary_floats()
        self.check(values)
        self.check(values[::7])         # another pairing of t and log1p_mag

    def test_fallback_lanes(self):
        exact = _shortest_digits(np.array([
            0.0, 5e-324, 9.999999999999999e-05, 1e16, 3.0, 0.5, 0.1,
            1234.567890123, 1e15 + 0.25, 0.1234567890123456,
            1234.5678901234567, 0.0001000000000000001]))[3]
        assert exact.tolist() == [False] * 9 + [True] * 3
        # the symmetric rounding interval would be wrong for these
        assert not _shortest_digits(2.0 ** np.arange(-14, 54))[3].any()

    def test_blocks_of_any_length(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 1023, 1024, 1025, 3000):
            self.check(rng.random(n) * 10.0 ** rng.integers(-3, 15, n))

    def test_path_values_rarely_fall_back(self):
        # the fast path must carry the paths the writer formats
        path = simulate_large_jumps(KAlphaParams(1.5), 1000.0, 42)
        for x in (path.times, path.log1p_mags):
            assert _shortest_digits(x)[3].mean() > 0.97
        self.check(path.times, path.signs)
