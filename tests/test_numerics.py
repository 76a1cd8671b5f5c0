import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from kalpha import numerics
from kalpha.numerics import (_DIVERGENCE_STREAK, LN2, QuadratureError,
                             SignedLogValue, SubdivisionLimitError,
                             _tail_verdict, adaptive_quad, quad_partition,
                             slv_sum)


def reference_slv_sum(logs, coefs) -> tuple[float, float]:
    """The whole-array slv_sum: one term array of the inputs' shape, the
    live and kept terms copied out, one math.fsum."""
    logs = np.asarray(logs, dtype=float)
    coefs = np.asarray(coefs, dtype=float)
    live = coefs != 0.0
    if not live.any():
        return -math.inf, 0.0
    if not live.all():
        logs, coefs = logs[live], coefs[live]
    term = np.abs(coefs)
    np.log(term, out=term)
    term += logs
    keep = term >= term.max() - 650.0
    if not keep.all():
        logs, coefs = logs[keep], coefs[keep]
        term = np.empty_like(coefs)
    ref = float(logs.max())
    np.subtract(logs, ref, out=term)
    np.exp(term, out=term)
    term *= coefs
    total = math.fsum(term.ravel())
    return (ref, total) if total != 0.0 else (-math.inf, 0.0)


def slv_cases(n: int) -> list[tuple]:
    """(logs, coefs) inputs, most of n terms: seeded, with zero and
    dropped terms, exact cancellation, a repeated row of logs, int coefs,
    the largest term at either end and a dropped largest log."""
    rng = np.random.default_rng(31)
    wide = rng.uniform(-2000.0, 2000.0, n)       # most terms are dropped
    coefs = rng.normal(size=n)
    coefs[::5] = 0.0
    tied = np.full(n, 7.0)
    alternating = np.where(np.arange(n) % 2, -1.0, 1.0)
    lj = rng.exponential(3.0, 40)
    return [
        (rng.uniform(-8.0, 8.0, 50), rng.normal(size=50)),
        (wide, coefs),
        (np.linspace(700.0, 0.0, n), rng.normal(size=n)),   # largest first
        (np.linspace(0.0, 700.0, n), rng.normal(size=n)),   # largest last
        (tied, alternating),                                 # sums to zero
        (tied[:-1], alternating[:-1]),
        (np.tile(lj, 2), np.append(rng.normal(size=40), np.full(40, -0.25))),
        (lj, rng.choice([-1, 1], 40)),                       # int64 coefs
        ([3000.0, 3000.0, 2.0], [2.5, -2.5, 0.0]),
        (np.full(9, 5.0), np.zeros(9)),
        # the largest log is dropped, its coef too small to matter, so
        # ref is the largest log among the kept terms
        (np.append(rng.uniform(0.0, 20.0, n - 1), 700.0),
         np.append(rng.normal(size=n - 1) * 1e300, 5e-324)),
        # beyond 2^63 the cut rounds to the largest term itself
        ([1e19 - 1e5, 1e19, 2.0 ** 64, 2.0 ** 64], [1.0, 2.0, 0.5, -0.25]),
    ]


def array_source(logs, coefs, block=numerics.BLOCK):
    """slv_sum's block source over the terms of 1-d (logs, coefs), block
    terms at a time, as float arrays."""
    logs, coefs = np.asarray(logs, dtype=float), np.asarray(coefs, dtype=float)
    return lambda: ((logs[a:a + block], coefs[a:a + block])
                    for a in range(0, len(logs), block))


def array_sum(logs, coefs):
    return slv_sum(array_source(logs, coefs))


def block_source(logs, coefs, calls):
    """slv_sum's block source over the terms of 1-d (logs, coefs), cut
    into blocks of uneven sizes; each call is appended to calls."""
    logs, coefs = np.asarray(logs, dtype=float), np.asarray(coefs, dtype=float)

    def source():
        calls.append(len(calls))
        edges, sizes = [0], itertools.cycle((1, 7, 3, 64, 2))
        while edges[-1] < len(logs):
            edges.append(min(len(logs), edges[-1] + next(sizes)))
        return ((logs[a:b], coefs[a:b]) for a, b in zip(edges, edges[1:]))

    return source


def bits(result) -> tuple[str, str]:
    return tuple(float(x).hex() for x in result)


class TestSignedLogValue:
    def test_sign_out_of_range_refused(self):
        with pytest.raises(ValueError, match="sign must be -1, 0 or \\+1"):
            SignedLogValue(2, 0.0)

    def test_zero_has_one_form(self):
        assert SignedLogValue(0, 1.0).logmag == -math.inf
        assert SignedLogValue(0, 1.0) == SignedLogValue(0, -math.inf)


class TestSlvSum:
    def test_exact_cancellation(self):
        assert array_sum([math.log(5.0), math.log(5.0)], [1.0, -1.0]) == (-math.inf, 0.0)
        assert array_sum([3000.0, 3000.0, 2.0], [2.5, -2.5, 0.0]) == (-math.inf, 0.0)

    def test_matches_native(self):
        rng = np.random.default_rng(11)
        for size in (1, 2, 3, 10, 1000):
            for _ in range(200 if size < 1000 else 20):
                xs = rng.normal(size=size) * np.exp(rng.uniform(-30, 30, size))
                ref, total = array_sum(np.log(np.abs(xs)), np.sign(xs))
                assert total * math.exp(ref) == pytest.approx(math.fsum(xs),
                                                              rel=1e-12)

    def test_permutation_is_bit_identical(self):
        # math.fsum is exact, so the order of the terms cannot show
        rng = np.random.default_rng(23)
        logs = rng.uniform(-8.0, 8.0, 1000)
        coefs = rng.normal(size=1000)
        first = array_sum(logs, coefs)
        for _ in range(20):
            perm = rng.permutation(len(logs))
            assert array_sum(logs[perm], coefs[perm]) == first

    def test_absorbs_tiny_term(self):
        # adding 1 to e^700 perturbs the total by e^-700, below its last bit
        assert array_sum([700.0, 0.0], [1.0, 1.0]) == (700.0, 1.0)

    def test_far_beyond_float_range(self):
        ref, total = array_sum([5000.0, 5000.0 + math.log(3.0), -5000.0],
                               [-1.0, 1.0, 1.0])
        assert ref == 5000.0 + math.log(3.0)
        assert total == pytest.approx(2.0 / 3.0, rel=1e-15)
        ref, total = array_sum([-5000.0, -5000.0], [1.5, 2.5])
        assert (ref, total) == (-5000.0, 4.0)

    @pytest.mark.parametrize("top", [1e19, 2.0 ** 64, 1e20],
                             ids=["1e19", "2^64", "1e20"])
    def test_logs_beyond_2_to_63(self, top):
        # above 2^63 a log's ulp passes 650, so top - 650 rounds to top:
        # the largest term is still kept, and a term 1e5 below it dropped
        assert array_sum([top], [1.0]) == (top, 1.0)
        assert array_sum([top, top], [1.0, 1.0]) == (top, 2.0)
        assert array_sum([top - 1e5, top], [1.0, -1.0]) == (top, -1.0)
        assert array_sum([top, top - 1e5], [3.0, 1.0]) == (top, 3.0)

    @pytest.mark.parametrize("logs, coefs", [([], []), ([1.0, 900.0], [0.0, 0.0])],
                             ids=["empty", "all-zero"])
    def test_no_live_terms_is_zero(self, logs, coefs):
        assert array_sum(logs, coefs) == (-math.inf, 0.0)

    @pytest.mark.parametrize("logs, coefs", [([1.0, 2.0], [1.0, math.nan]),
                                             ([math.nan], [1.0]),
                                             ([1.0, math.inf], [1.0, -1.0])],
                             ids=["nan-coef", "nan-log", "infinite-log"])
    def test_nonfinite_term_refused(self, logs, coefs):
        # never a silent zero or NaN total
        with pytest.raises(ValueError):
            array_sum(logs, coefs)

    @pytest.mark.parametrize("block", [1, 3, 7, numerics.BLOCK])
    def test_matches_whole_array_reference(self, block):
        # the same ref and total, bit for bit, for any block size
        cases = slv_cases(max(2 * block + 5, 301))
        want = [reference_slv_sum(logs, coefs) for logs, coefs in cases]
        assert [slv_sum(array_source(logs, coefs, block))
                for logs, coefs in cases] == want

    def test_block_source_matches_array_form(self):
        # the same ref and total, bit for bit, from blocks of uneven sizes
        # as from array_source's even ones, and at most one call of the
        # source per pass
        for logs, coefs in slv_cases(301):
            calls = []
            got = slv_sum(block_source(logs, coefs, calls))
            assert bits(got) == bits(array_sum(logs, coefs))
            assert 1 <= len(calls) <= 3

    @pytest.mark.parametrize("source", [
        lambda: iter(()),
        block_source([], [], []),
        block_source([1.0, 900.0, 5.0], [0.0, 0.0, 0.0], [])],
        ids=["empty", "empty-blocks", "all-zero"])
    def test_block_source_without_live_terms_is_zero(self, source):
        assert slv_sum(source) == (-math.inf, 0.0)

    def test_block_source_nan_term_refused(self):
        calls = []
        with pytest.raises(ValueError):
            slv_sum(block_source([1.0, 2.0, 3.0], [1.0, math.nan, 2.0], calls))
        assert len(calls) == 1

    def test_broadcast_scratch_is_a_few_blocks(self, traced_peak):
        # stated before the first run: a source that walks the (2, n)
        # terms of a broadcast row of logs a block at a time leaves
        # slv_sum at most 8 float64 blocks of scratch whatever n; the
        # whole-array sum formed a (2, n) term array, 16 n bytes
        n = 100_000
        logs = np.linspace(0.0, 600.0, n)
        coefs = np.ones((2, n))
        coefs[1] = -0.5

        def source():
            return itertools.chain.from_iterable(
                array_source(logs, row)() for row in coefs)

        total, peak = traced_peak(slv_sum, source)
        assert total == reference_slv_sum(np.broadcast_to(logs, (2, n)), coefs)
        assert peak <= 8 * 8 * numerics.BLOCK


class TestAdaptiveQuad:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_power_tail_closed_form(self, alpha):
        res = adaptive_quad(lambda u: u ** (-1.0 - alpha), LN2, math.inf, tol=1e-12)
        exact = LN2 ** (-alpha) / alpha
        assert not res.diverged
        assert res.value == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_power_closed_form_finite_interval(self, alpha):
        res = adaptive_quad(lambda u: u ** (-1.0 - alpha), 1.0, 9.0, tol=1e-12)
        exact = (1.0 - 9.0 ** (-alpha)) / alpha
        assert res.value == pytest.approx(exact, rel=1e-10)

    def test_inverse_square_tail(self):
        res = adaptive_quad(lambda u: u ** -2, LN2, math.inf, tol=1e-12)
        assert res.value == pytest.approx(1.0 / LN2, rel=1e-10)

    def test_divergent_tail_at_infinity(self):
        res = adaptive_quad(lambda u: 1.0 / u, 1.0, math.inf)
        assert res.diverged

    def test_error_estimate_covers_truth(self):
        res = adaptive_quad(lambda u: np.sin(u) ** 2 * u ** -2.0,
                            1.0, 30.0, tol=1e-11)
        oracle, _ = scipy_quad(lambda u: math.sin(u) ** 2 * u ** -2.0,
                               1.0, 30.0, epsabs=1e-13, limit=300)
        assert res.abs_error >= 0.0
        assert abs(res.value - oracle) <= max(1e-11, res.abs_error) * 10

    def test_subdivision_cap_raises_distinct_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_PANELS", 4)
        spike = lambda u: 1.0 / (1e-10 + (u - 0.5) ** 2)
        with pytest.raises(SubdivisionLimitError):
            adaptive_quad(spike, 0.1, 1.0, tol=1e-14)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda u: np.full_like(u, math.nan), 0.5, 1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda u: u, 1.0, 1.0)
        with pytest.raises(ValueError):
            adaptive_quad(lambda u: u, -math.inf, 1.0)

    @pytest.mark.parametrize("integrate", [
        lambda tol: adaptive_quad(lambda u: u, 1.0, 2.0, tol),
        lambda tol: quad_partition(lambda u: u, [1.0, 2.0], tol),
    ], ids=["adaptive_quad", "quad_partition"])
    def test_zero_tolerance_rejected(self, integrate):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate(0.0)

    @pytest.mark.parametrize("lo", [0.0, -1.0])
    def test_nonpositive_lower_limit_rejected(self, lo):
        # every measure integral starts at u = ln 2 or x = 1
        with pytest.raises(ValueError, match="positive"):
            adaptive_quad(lambda u: u ** -0.5, lo, 1.0)

    def test_zero_integrand_tail(self):
        res = adaptive_quad(lambda u: np.zeros_like(u), 1.0, math.inf, tol=1e-12)
        assert res.value == 0.0
        assert not res.diverged

    @pytest.mark.parametrize("s", [256.0, 1000.0])
    def test_flat_start_then_decay(self, s):
        # the blocks grow up to u ~ s, then decay like 1/u^2; only a
        # trailing streak of blocks that fail to decay means divergence
        res = adaptive_quad(lambda u: 1.0 / (1.0 + (u / s) ** 2), 1.0,
                            math.inf)
        assert not res.diverged
        assert res.value == pytest.approx(
            s * (math.pi / 2.0 - math.atan(1.0 / s)), rel=1e-10)

    def test_blocks_leaving_float_range_raise(self):
        with pytest.raises(SubdivisionLimitError, match="undecided"):
            adaptive_quad(lambda u: u ** -2.0, 1e306, math.inf)

    def test_panel_cap_covers_the_whole_walk(self, monkeypatch):
        # one batch of 12 doubling blocks takes 96 panels
        monkeypatch.setattr(numerics, "_MAX_PANELS", 90)
        with pytest.raises(SubdivisionLimitError):
            adaptive_quad(lambda u: u ** -2.0, 1.0, math.inf)


def geometric(v, r, n):
    return [v * r ** k for k in range(n)]


class TestTailVerdict:
    def test_late_no_decay_streak_diverges(self):
        blocks = geometric(1.0, 0.5, 5) + [0.1] * (_DIVERGENCE_STREAK + 1)
        rest, err = _tail_verdict(blocks)
        assert math.isnan(rest) and err == math.inf

    def test_streak_one_short_is_undecided(self):
        assert _tail_verdict([0.1] * _DIVERGENCE_STREAK) is None

    def test_slow_decay_is_not_a_streak(self):
        # ratio 1 - 2e-6 is below the no-decay ratio 1 - 1e-6
        r = 1.0 - 2e-6
        rest, err = _tail_verdict(geometric(1.0, r, 12))
        assert rest == pytest.approx(r ** 11 * r / (1.0 - r), rel=1e-9)

    def test_early_flat_run_then_geometric_decay(self):
        blocks = [1.0] * 20 + geometric(0.5, 0.5, 4)
        rest, err = _tail_verdict(blocks)
        assert rest == 0.0625       # 0.0625 * 0.5 / (1 - 0.5)
        assert err == 0.0

    def test_two_trailing_zeros(self):
        assert _tail_verdict([3.0, 1.0, 0.0, 0.0]) == (0.0, 0.0)
        assert _tail_verdict([0.0] * 20) == (0.0, 0.0)
        assert _tail_verdict([3.0, 0.0, 1.0, 0.0]) is None

    def test_ratios_that_do_not_yet_agree_are_undecided(self):
        # ratios 0.5, 0.6, 0.7 spread by 0.2, far above 1e-3 of 0.7
        assert _tail_verdict([1.0, 0.5, 0.3, 0.21]) is None
        # agreement to 1e-3 settles, with the spread in the error
        rest, err = _tail_verdict([1.0, 0.5, 0.25, 0.1250625])
        r = 0.1250625 / 0.25
        assert rest == pytest.approx(0.1250625 * r / (1.0 - r), rel=1e-15)
        assert err == pytest.approx(abs(rest) * (r - 0.5) / (1.0 - r),
                                    rel=1e-12)

    def test_alternating_signs(self):
        # decaying magnitudes of alternating sign are not a positive
        # geometric tail; constant magnitudes still fail to decay
        assert _tail_verdict(geometric(1.0, -0.5, 12)) is None
        rest, err = _tail_verdict(geometric(1.0, -1.0, 12))
        assert math.isnan(rest) and err == math.inf

    def test_too_few_blocks_undecided(self):
        assert _tail_verdict([]) is None
        assert _tail_verdict(geometric(1.0, 0.5, 3)) is None


def wavy(u):
    return u ** -1.5 * (1.0 + 0.5 * np.sin(3.0 * u))


class TestQuadPartition:
    @pytest.mark.parametrize("f, edges", [
        (wavy, [0.5, 1.0, 2.5, 7.0, 40.0]),
        (lambda u: np.expm1(u) ** 2 * u ** -2.5, [LN2, 2.0, 5.0, 20.0, 300.0]),
        (lambda u: 1.0 / (1e-6 + (u - 0.5) ** 2), [0.1, 0.45, 0.5, 0.7, 1.0]),
    ], ids=["wavy", "second-moment", "spike"])
    def test_each_interval_equals_adaptive_quad(self, f, edges):
        # intervals are refined independently of each other
        parts = quad_partition(f, edges, tol=1e-12)
        assert len(parts) == len(edges) - 1
        for (lo, hi), part in zip(zip(edges, edges[1:]), parts):
            alone = adaptive_quad(f, lo, hi, tol=1e-12)
            assert part.value == pytest.approx(alone.value, rel=1e-13)
            assert part.subdivisions == alone.subdivisions

    @settings(max_examples=60)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=12, unique=True),
           st.floats(0.2, 5.0), st.floats(0.5, 60.0))
    def test_additive_over_random_partitions(self, cuts, lo, span):
        hi = lo + span
        edges = sorted({lo, hi, *(lo + span * c for c in cuts)})
        whole = adaptive_quad(wavy, lo, hi, tol=1e-13).value
        parts = quad_partition(wavy, edges, tol=1e-13)
        assert math.fsum(r.value for r in parts) == pytest.approx(
            whole, rel=1e-12, abs=1e-13 * len(parts))

    @pytest.mark.parametrize("edges", [[1.0], [1.0, 1.0, 2.0], [2.0, 1.0],
                                       [0.0, 1.0], [1.0, math.inf],
                                       [1.0, math.nan, 2.0]],
                             ids=["one-edge", "repeated", "decreasing",
                                  "zero-start", "infinite", "nan"])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            quad_partition(wavy, edges)

    def test_scalar_integrand_rejected(self):
        # integrands map node arrays to arrays of the same shape
        with pytest.raises(TypeError, match="elementwise"):
            quad_partition(lambda u: 1.0, [1.0, 2.0])

    def test_starts_with_eight_panels_in_one_call(self):
        calls = []

        def counted(u):
            calls.append(u.size)
            return np.ones_like(u)

        parts = quad_partition(counted, [1.0, 2.0, 3.0], tol=1e-10)
        assert calls == [2 * 8 * 15]
        assert [r.value for r in parts] == pytest.approx([1.0, 1.0], rel=1e-15)
        assert [r.subdivisions for r in parts] == [8, 8]


def counting(f, calls):
    """f, recording the node count of each call (one call per round)."""
    def counted(u):
        calls.append(u.size)
        return f(u)
    return counted


class TestPinnedPanels:
    """Rounds, panel counts and values of calls that settle in one, two
    and more rounds, recorded from the engine that summed every round's
    totals with bincount; never re-recorded.  The first round is now
    summed over its panel axis, and the panels and bits must not move."""

    @pytest.mark.parametrize("f, lo, hi, tol, rounds, panels, value", [
        (lambda u: np.exp(-u), 1.0, 5.0, 1e-12, 1, 8, "0x1.71cf136acb9e9p-2"),
        (lambda u: np.exp(-u), 1.0, 30.0, 1e-13, 2, 10, "0x1.78b56362ce8a2p-2"),
        (lambda u: u ** -2.5, 1.0, 10.0, 1e-12, 3, 11, "0x1.4a8a17cb952e4p-1"),
        (wavy, 0.5, 40.0, 1e-12, 6, 55, "0x1.5af6d0c0e00b6p+1"),
        (lambda u: u ** -2.0, 1.0, math.inf, 1e-10, 1, 96,
         "0x1.fffffffffffffp-1"),
    ], ids=["one-round", "two-rounds", "three-rounds", "wavy", "improper"])
    def test_adaptive_quad(self, f, lo, hi, tol, rounds, panels, value):
        calls = []
        res = adaptive_quad(counting(f, calls), lo, hi, tol)
        assert len(calls) == rounds
        assert res.subdivisions == panels
        assert res.value == float.fromhex(value)

    def test_partition(self):
        # each interval settles in its own round, three in all
        calls = []
        parts = quad_partition(counting(wavy, calls), [0.5, 1.0, 2.5, 7.0, 40.0],
                               tol=1e-12)
        assert calls == [4 * 8 * 15, 16 * 15, 32 * 15]
        assert [r.subdivisions for r in parts] == [8, 8, 8, 32]
        assert [r.value for r in parts] == [float.fromhex(v) for v in (
            "0x1.26b729369c8b2p+0", "0x1.2e50b58494223p-1",
            "0x1.117e394970ffep-1", "0x1.bd3c039083ea0p-2")]
