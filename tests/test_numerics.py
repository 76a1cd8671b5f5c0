import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from kalpha.numerics import (LN2, SLV_ZERO, QuadratureError, SignedLogValue,
                             SubdivisionLimitError, adaptive_quad, slv_sum)


class TestSignedLogValue:
    def test_encode_zero(self):
        v = SignedLogValue.encode(0.0)
        assert v.sign == 0
        assert v.decode() == 0.0

    def test_encode_negative(self):
        v = SignedLogValue.encode(-3.0)
        assert v.sign == -1
        assert v.logmag == pytest.approx(math.log(3.0), rel=1e-15)

    def test_decode_overflow_flag(self):
        # never returns infinity, returns the flag instead
        assert SignedLogValue(1, 1000.0).decode() is None
        assert SignedLogValue(-1, 710.0).decode() is None

    def test_roundtrip_within_native_range(self):
        # exp/log round trip costs about |ln x| ulps, well inside the
        # documented 1e-12 per-operation tolerance
        rng = np.random.default_rng(5)
        xs = rng.normal(size=200) * np.exp(rng.uniform(-250, 250, 200))
        for x in xs:
            x = float(x)
            assert SignedLogValue.encode(x).decode() == pytest.approx(x, rel=1e-12)

    def test_encode_of_decode_is_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = SignedLogValue(int(rng.choice([-1, 1])),
                               float(rng.uniform(-600, 600)))
            back = SignedLogValue.encode(v.decode())
            assert back.sign == v.sign
            assert back.logmag == pytest.approx(v.logmag, abs=1e-12)

    def test_encode_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SignedLogValue.encode(math.inf)
        with pytest.raises(ValueError):
            SignedLogValue.encode(math.nan)

    def test_add_two_plus_two(self):
        v = SignedLogValue.encode(2.0) + SignedLogValue.encode(2.0)
        assert v.sign == 1
        assert v.logmag == pytest.approx(math.log(4.0), rel=1e-15)

    def test_add_exact_cancellation(self):
        v = SignedLogValue.encode(5.0) + SignedLogValue.encode(-5.0)
        assert v.sign == 0
        assert v == SLV_ZERO

    def test_add_absorbs_tiny_term(self):
        # adding 1 to e^700 perturbs the log magnitude by less than 1e-300
        v = SignedLogValue(1, 700.0) + SignedLogValue(1, 0.0)
        assert v.sign == 1
        assert v.logmag == 700.0          # perturbation exp(-700) ~ 1e-304 absorbed
        assert math.exp(-700.0) < 1e-300

    def test_add_matches_native(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=10_000) * np.exp(rng.uniform(-30, 30, 10_000))
        b = rng.normal(size=10_000) * np.exp(rng.uniform(-30, 30, 10_000))
        for x, y in zip(a, b):
            native = float(x) + float(y)
            got = (SignedLogValue.encode(float(x))
                   + SignedLogValue.encode(float(y))).decode()
            if native == 0.0:
                assert abs(got) < 1e-250
            else:
                assert got == pytest.approx(native, rel=1e-12)

    def test_sum_permutation_drift(self):
        rng = np.random.default_rng(23)
        xs = [float(v) for v in rng.normal(size=1000) * np.exp(rng.uniform(-8, 8, 1000))]
        results = []
        for k in range(20):
            perm = rng.permutation(len(xs))
            total = slv_sum(SignedLogValue.encode(xs[i]) for i in perm)
            results.append(total.decode())
        spread = (max(results) - min(results)) / abs(np.mean(results))
        assert spread < 1e-9

    def test_neg_abs(self):
        v = SignedLogValue.encode(-4.0)
        assert (-v).decode() == 4.0
        assert abs(v).decode() == 4.0
        assert (-SLV_ZERO) == SLV_ZERO


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

    def test_nonintegrable_origin_flagged(self):
        res = adaptive_quad(lambda u: u ** -2, 0.0, 1.0)
        assert res.diverged
        assert math.isnan(res.value)

    def test_log_singularity_origin_flagged(self):
        # borderline 1/u is also non-integrable
        res = adaptive_quad(lambda u: 1.0 / u, 0.0, 1.0)
        assert res.diverged

    def test_integrable_sqrt_singularity(self):
        res = adaptive_quad(lambda u: u ** -0.5, 0.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-10)

    # reference values from scipy.integrate.quad at 1e-14 tolerance with the
    # u = t^2 substitution that removes the endpoint singularity
    @pytest.mark.parametrize("alpha,expected", [
        (0.5, 0.6041131763512408),
        (1.0, 1.0158532278342618),
        (1.5, 2.167355848961648),
        (1.9, 10.407682511782731),
    ])
    def test_small_jump_variance_integrand(self, alpha, expected):
        res = adaptive_quad(lambda u: math.expm1(u) ** 2 * u ** (-1.0 - alpha),
                            0.0, LN2, tol=1e-12)
        assert res.value > 0.0
        assert res.value == pytest.approx(expected, rel=1e-10)

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

    def test_subdivision_cap_raises_distinct_error(self):
        spike = lambda u: 1.0 / (1e-10 + (u - 0.5) ** 2)
        with pytest.raises(SubdivisionLimitError):
            adaptive_quad(spike, 0.1, 1.0, tol=1e-14, max_subdiv=4)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda u: math.nan, 0.5, 1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda u: u, 1.0, 1.0)
        with pytest.raises(ValueError):
            adaptive_quad(lambda u: u, -math.inf, 1.0)

    def test_zero_integrand_tail(self):
        res = adaptive_quad(lambda u: 0.0, 1.0, math.inf, tol=1e-12)
        assert res.value == 0.0
        assert not res.diverged
