import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from kalpha import numerics
from kalpha.numerics import (LN2, QuadratureError, SignedLogValue,
                             SubdivisionLimitError, adaptive_quad, slv_sum)


class TestSignedLogValue:
    def test_decode_overflow_flag(self):
        # never returns infinity, returns the flag instead
        assert SignedLogValue(1, 1000.0).decode() is None
        assert SignedLogValue(-1, 710.0).decode() is None


class TestSlvSum:
    def test_exact_cancellation(self):
        assert slv_sum([math.log(5.0), math.log(5.0)], [1.0, -1.0]) == (-math.inf, 0.0)
        assert slv_sum([3000.0, 3000.0, 2.0], [2.5, -2.5, 0.0]) == (-math.inf, 0.0)

    def test_matches_native(self):
        rng = np.random.default_rng(11)
        for size in (1, 2, 3, 10, 1000):
            for _ in range(200 if size < 1000 else 20):
                xs = rng.normal(size=size) * np.exp(rng.uniform(-30, 30, size))
                ref, total = slv_sum(np.log(np.abs(xs)), np.sign(xs))
                assert total * math.exp(ref) == pytest.approx(math.fsum(xs),
                                                              rel=1e-12)

    def test_permutation_is_bit_identical(self):
        # math.fsum is exact, so the order of the terms cannot show
        rng = np.random.default_rng(23)
        logs = rng.uniform(-8.0, 8.0, 1000)
        coefs = rng.normal(size=1000)
        first = slv_sum(logs, coefs)
        for _ in range(20):
            perm = rng.permutation(len(logs))
            assert slv_sum(logs[perm], coefs[perm]) == first

    def test_absorbs_tiny_term(self):
        # adding 1 to e^700 perturbs the total by e^-700, below its last bit
        assert slv_sum([700.0, 0.0], [1.0, 1.0]) == (700.0, 1.0)

    def test_far_beyond_float_range(self):
        ref, total = slv_sum([5000.0, 5000.0 + math.log(3.0), -5000.0],
                             [-1.0, 1.0, 1.0])
        assert ref == 5000.0 + math.log(3.0)
        assert total == pytest.approx(2.0 / 3.0, rel=1e-15)
        ref, total = slv_sum([-5000.0, -5000.0], [1.5, 2.5])
        assert (ref, total) == (-5000.0, 4.0)

    @pytest.mark.parametrize("logs, coefs", [([], []), ([1.0, 900.0], [0.0, 0.0])],
                             ids=["empty", "all-zero"])
    def test_no_live_terms_is_zero(self, logs, coefs):
        assert slv_sum(logs, coefs) == (-math.inf, 0.0)


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
        res = adaptive_quad(lambda u: math.sin(u) ** 2 * u ** -2.0,
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
            adaptive_quad(lambda u: math.nan, 0.5, 1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda u: u, 1.0, 1.0)
        with pytest.raises(ValueError):
            adaptive_quad(lambda u: u, -math.inf, 1.0)

    @pytest.mark.parametrize("lo", [0.0, -1.0])
    def test_nonpositive_lower_limit_rejected(self, lo):
        # every measure integral starts at u = ln 2 or x = 1
        with pytest.raises(ValueError, match="positive"):
            adaptive_quad(lambda u: u ** -0.5, lo, 1.0)

    def test_zero_integrand_tail(self):
        res = adaptive_quad(lambda u: 0.0, 1.0, math.inf, tol=1e-12)
        assert res.value == 0.0
        assert not res.diverged
