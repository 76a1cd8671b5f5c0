import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from kalpha import measure
from kalpha.measure import (ConsistencyError, EnvelopeSpec, KAlphaParams,
                            classify_support, inverse_tail, laplace_exponent,
                            levy_density, pruitt_index, pruitt_indices,
                            tail_one_sided, truncated_moment, truncated_moments,
                            upper_function_integral)
from kalpha.numerics import LN2, adaptive_quad


class TestParams:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, -1.0, 2.5])
    def test_alpha_domain_enforced(self, alpha):
        with pytest.raises(ValueError):
            KAlphaParams(alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_trunc_mass_matches_quadrature(self, alpha):
        p = KAlphaParams(alpha)
        q = 2.0 * adaptive_quad(lambda u: u ** (-1.0 - alpha), LN2, math.inf,
                                tol=1e-13).value
        assert p.trunc_mass == pytest.approx(q, rel=1e-10)
        assert p.trunc_mass == pytest.approx(2.0 / (alpha * LN2 ** alpha), rel=1e-14)

class TestDensity:
    def test_value_at_one(self):
        p = KAlphaParams(1.0)
        assert levy_density(1.0, p) == pytest.approx(1.0 / (2.0 * LN2 ** 2),
                                                     rel=1e-12)

    def test_symmetry(self):
        p = KAlphaParams(1.0)
        assert levy_density(-1.0, p) == levy_density(1.0, p)
        p = KAlphaParams(0.7)
        for x in (0.2, 3.0, 1e4):
            assert levy_density(-x, p) == levy_density(x, p)

    def test_unit_log_point(self):
        # ln(1+x) = 1 kills the log factor
        p = KAlphaParams(1.5)
        assert levy_density(math.e - 1.0, p) == pytest.approx(1.0 / math.e,
                                                              rel=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            levy_density(0.0, KAlphaParams(1.0))

    def test_positive(self):
        p = KAlphaParams(0.5)
        for x in (1e-8, 0.5, 2.0, 1e6):
            assert levy_density(x, p) > 0.0


class TestTail:
    def test_closed_forms(self):
        p = KAlphaParams(1.0)
        assert tail_one_sided(1.0, p) == pytest.approx(1.0 / LN2, rel=1e-14)
        assert tail_one_sided(math.e - 1.0, p) == pytest.approx(1.0, rel=1e-14)
        assert tail_one_sided(3.0, p) == pytest.approx(1.0 / math.log(4.0),
                                                       rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_one_sided(0.5, KAlphaParams(1.0))

    def test_nan_radius_refused(self):
        with pytest.raises(ValueError, match="r >= 1"):
            tail_one_sided(math.nan, KAlphaParams(1.5))

    def test_decreasing_to_zero(self):
        p = KAlphaParams(0.5)
        rs = [1.0, 10.0, 1e3, 1e8, 1e300]
        vals = [tail_one_sided(r, p) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("r", [1.0, 10.0, 1e3, 1e6])
    def test_matches_quadrature_of_density(self, alpha, r):
        # the u-substituted density integrates to the closed-form tail
        p = KAlphaParams(alpha)
        q = adaptive_quad(lambda u: u ** (-1.0 - alpha), math.log1p(r),
                          math.inf, tol=1e-12)
        assert tail_one_sided(r, p) == pytest.approx(q.value, rel=1e-8)


class TestInverseTail:
    def test_boundary(self):
        assert inverse_tail(1.0, KAlphaParams(1.3)) == pytest.approx(LN2, rel=1e-15)

    def test_exact_halves(self):
        assert inverse_tail(0.5, KAlphaParams(1.0)) == pytest.approx(2 * LN2,
                                                                     rel=1e-14)
        assert inverse_tail(0.5, KAlphaParams(0.5)) == pytest.approx(4 * LN2,
                                                                     rel=1e-14)

    def test_domain(self):
        p = KAlphaParams(1.0)
        for u in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                inverse_tail(u, p)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_survival_round_trip(self, alpha):
        p = KAlphaParams(alpha)
        rng = np.random.default_rng(3)
        for u in 1.0 - rng.random(1000):
            # the large-jump survival of ell = ln(1+|x|) is (ln 2 / ell)^alpha
            ell = inverse_tail(float(u), p)
            assert (LN2 / ell) ** alpha == pytest.approx(u, rel=1e-12)


class TestTruncatedMoment:
    def test_empty_interval(self):
        assert truncated_moment(1.0, 1.0, KAlphaParams(1.0)) == 0.0

    def test_monotone_in_cap(self):
        p = KAlphaParams(1.5)
        vals = [truncated_moment(0.25, X, p) for X in (10.0, 1e2, 1e3, 1e4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cap_growth_example(self):
        p = KAlphaParams(1.5)
        m3 = truncated_moment(0.25, 1e3, p)
        m4 = truncated_moment(0.25, 1e4, p)
        assert m4 > m3
        oracle = lambda X: 2 * scipy_quad(
            lambda u: math.expm1(u) ** 0.25 * u ** -2.5,
            LN2, math.log1p(X), epsabs=1e-13, epsrel=1e-13)[0]
        assert m3 == pytest.approx(oracle(1e3), rel=1e-9)
        assert m4 == pytest.approx(oracle(1e4), rel=1e-9)

    def test_small_eta_reduces_to_mass_difference(self):
        p = KAlphaParams(1.0)
        lim = 2.0 * (tail_one_sided(1.0, p) - tail_one_sided(50.0, p))
        assert truncated_moment(1e-9, 50.0, p) == pytest.approx(lim, rel=1e-6)

    def test_dyadic_value_ratios_eventually_increasing(self):
        # the growth ratio M(2X)/M(X) dips at moderate caps and then turns;
        # past the turn (cap ~ e^((1+alpha)/eta)) it increases for good
        p = KAlphaParams(1.5)
        caps = [2.0 ** k for k in range(15, 22)]
        vals = [truncated_moment(0.25, c, p) for c in caps]
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_domain(self):
        p = KAlphaParams(1.0)
        with pytest.raises(ValueError):
            truncated_moment(0.0, 10.0, p)
        with pytest.raises(ValueError):
            truncated_moment(0.5, 0.5, p)
        with pytest.raises(ValueError, match="caps must be nondecreasing"):
            truncated_moments(0.5, [100.0, 10.0], p)

    def test_nan_eta_refused(self):
        # a ValueError (exit 2), not the quadrature's exit-4 QuadratureError
        with pytest.raises(ValueError, match="eta must be positive"):
            truncated_moments(math.nan, [10.0, 100.0], KAlphaParams(1.5))


class TestPruittIndex:
    def test_at_truncation_boundary(self):
        # only the tail term survives at r = 1: exactly the truncated mass
        p = KAlphaParams(1.0)
        assert pruitt_index(1.0, p) == pytest.approx(p.trunc_mass, rel=1e-12)
        assert pruitt_index(1.0, p) == pytest.approx(2.0 / LN2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("r", [1.0, 7.0, 1e3, 1e6])
    def test_lower_bound(self, alpha, r):
        p = KAlphaParams(alpha)
        assert pruitt_index(r, p) >= 1.0 / (alpha * math.log1p(r) ** alpha)

    def test_example_bound_at_large_radius(self):
        p = KAlphaParams(1.5)
        h = pruitt_index(1e3, p)
        assert h >= 1.0 / (1.5 * math.log(1001.0) ** 1.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            pruitt_index(0.99, KAlphaParams(1.0))
        with pytest.raises(ValueError, match="radii must be nondecreasing"):
            pruitt_indices([100.0, 10.0], KAlphaParams(1.0))

    def test_second_moment_term_against_oracle(self):
        p = KAlphaParams(1.0)
        r = 100.0
        oracle_second = 2.0 * scipy_quad(
            lambda u: math.expm1(u) ** 2 * u ** -2.0, LN2, math.log1p(r),
            epsabs=1e-12, epsrel=1e-12)[0] / r ** 2
        expected = 2.0 * tail_one_sided(r, p) + oracle_second
        assert pruitt_index(r, p) == pytest.approx(expected, rel=1e-9)


class TestLaplaceExponent:
    def test_zero_at_zero(self):
        assert laplace_exponent(0.0, KAlphaParams(1.5)) == 0.0

    def test_saturates_at_truncated_tail(self):
        p = KAlphaParams(1.0)
        assert laplace_exponent(1e6, p) == pytest.approx(1.0 / LN2, rel=1e-9)

    def test_value_between_zero_and_saturation(self):
        p = KAlphaParams(1.5)
        v = laplace_exponent(1.0, p)
        assert 0.0 < v < tail_one_sided(1.0, p)

    def test_against_scipy_oracle(self):
        p = KAlphaParams(1.5)

        def oracle_integrand(u, lam):
            x = math.expm1(u) if u < 700.0 else math.inf
            w = 1.0 if lam * x > 745.0 else -math.expm1(-lam * x)
            return w * u ** -2.5

        for lam in (0.3, 1.0, 7.0):
            oracle, _ = scipy_quad(oracle_integrand, LN2, np.inf, args=(lam,),
                                   epsabs=1e-13, epsrel=1e-13, limit=400)
            assert laplace_exponent(lam, p) == pytest.approx(oracle, rel=1e-9)

    def test_monotone_concave_on_grid(self):
        p = KAlphaParams(1.0)
        lams = np.linspace(0.0, 10.0, 50)
        vals = [laplace_exponent(float(l), p) for l in lams]
        d1 = np.diff(vals)
        assert np.all(d1 >= 0.0)
        assert np.all(np.diff(d1) <= 1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 1.9])
    def test_nondecreasing_within_tolerance_on_plateau(self, alpha):
        # on the saturated plateau values may drop by a few ulp, within
        # the quadrature tolerance tol=1e-13
        p = KAlphaParams(alpha)
        vals = [laplace_exponent(float(l), p) for l in np.logspace(-6, 6, 200)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a * (1.0 - 1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            laplace_exponent(-1.0, KAlphaParams(1.0))

    def test_nan_rejected(self):
        # not the saturated value tail_one_sided(1)
        with pytest.raises(ValueError, match="nonnegative"):
            laplace_exponent(math.nan, KAlphaParams(1.5))

    @pytest.mark.parametrize("alpha, lam, rounds, panels, head, value", [
        (1.5, 1e-6, 1, [8] * 5,
         ["0x1.04bede5f32c20p-19", "0x1.581ca63422e3cp-19",
          "0x1.8fb9ec889345ap-16", "0x1.e54addfb55598p-9",
          "0x1.a2fb83f7667fdp-9"], "0x1.cf959a575de76p-7"),
        (0.1, 3e-6, 2, [8, 8, 8, 10, 8],
         ["0x1.15df3c07be34dp-17", "0x1.397aff1e3eb99p-15",
          "0x1.0fd1bb97c2956p-10", "0x1.bb6a4f077832dp-3",
          "0x1.22b81daa69e86p-3"], "0x1.f2f48f5751eccp+2"),
    ], ids=["converged", "refined"])
    def test_pinned_head(self, alpha, lam, rounds, panels, head, value,
                         monkeypatch):
        # recorded from the engine that summed every round with bincount
        # and the integrand with the overflow branch; never re-recorded.
        # A head that converges at once costs one integrand call.
        calls, results = [], []
        partition = measure.quad_partition

        def recorded(f, edges, tol):
            def counted(u):
                calls.append(u.size)
                return f(u)
            results.extend(partition(counted, edges, tol))
            return results

        monkeypatch.setattr(measure, "quad_partition", recorded)
        v = laplace_exponent(lam, KAlphaParams(alpha))
        assert len(calls) == rounds
        assert [r.subdivisions for r in results] == panels
        assert [r.value for r in results] == list(map(float.fromhex, head))
        assert v == float.fromhex(value)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("lam", [4e-306, 1e-310, 5e-324])
    def test_tiny_lambda(self, lam, alpha):
        # below 745/DBL_MAX the ratio 745/lam overflows a float
        p = KAlphaParams(alpha)
        v = laplace_exponent(lam, p)
        assert 0.0 < v <= laplace_exponent(5e-306, p)

        # the factor 1 - e^(-lam x) turns over near u = ln(1/lam) = L; the
        # oracle forms lam (e^u - 1) in logs and is 1 beyond L + 40
        L = -math.log(lam)

        def oracle_integrand(u):
            x = math.exp(math.log(lam) + u + math.log(-math.expm1(-u)))
            return -math.expm1(-x) * u ** (-1.0 - alpha)

        head = scipy_quad(oracle_integrand, LN2, L - 40.0, epsabs=0.0,
                          epsrel=1e-13, limit=200)[0]
        turn = scipy_quad(oracle_integrand, L - 40.0, L + 40.0, epsabs=0.0,
                          epsrel=1e-13, limit=200, points=[L])[0]
        oracle = head + turn + (L + 40.0) ** -alpha / alpha
        assert v == pytest.approx(oracle, rel=1e-9, abs=0.0)


class TestEnvelopeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeSpec("power", beta=0.5)
        with pytest.raises(ValueError):
            EnvelopeSpec("power", beta=1.0)
        with pytest.raises(ValueError):
            EnvelopeSpec("exponential", c=0.0)
        with pytest.raises(ValueError):
            EnvelopeSpec("power_exponential", c=1.0, beta=1.0)
        with pytest.raises(ValueError):
            EnvelopeSpec("sine")

    @pytest.mark.parametrize("kind,kwargs", [
        ("exponential", {"c": 1.0, "beta": 2.0}),
        ("power", {"beta": 2.0, "c": 5.0}),
    ])
    def test_parameter_of_another_kind_refused(self, kind, kwargs):
        with pytest.raises(ValueError, match="envelope takes no"):
            EnvelopeSpec(kind, **kwargs)

    def test_exponential_is_power_exponential_at_beta_one(self):
        expo = EnvelopeSpec("exponential", c=0.7)
        near = EnvelopeSpec("power_exponential", c=0.7, beta=1.0 + 1e-12)
        for x in (1.0, 3.0, 50.0, 1e4):
            assert expo.log_value(x) == pytest.approx(near.log_value(x), rel=1e-10)
            assert expo.log_tail_argument(x) == \
                   pytest.approx(near.log_tail_argument(x), rel=1e-10)
            assert expo.crossing_time(x) == \
                   pytest.approx(near.crossing_time(x), rel=1e-10)
        assert [expo.converges_at(a) for a in (0.9, 1.1)] == [False, True]

    def test_exponential_tail_argument_beyond_float_range(self):
        # c x = 1e309 overflows a float; its log does not
        env = EnvelopeSpec("exponential", c=1e3)
        assert env.log_tail_argument(1e306) == \
               pytest.approx(math.log(1e3) + math.log(1e306), rel=1e-15)

    def test_crossing_time_log_domain(self):
        # works for magnitudes far beyond float range
        assert EnvelopeSpec("exponential", c=2.0).crossing_time(5000.0) == 2500.0
        assert EnvelopeSpec("power", beta=2.0).crossing_time(5000.0) == math.inf
        pe = EnvelopeSpec("power_exponential", c=1.0, beta=2.0)
        assert pe.crossing_time(1e6) == pytest.approx(1e3)

    def test_log_value_beyond_float_range_is_inf(self):
        # c t^beta = 1e400 is not a float; its log is
        env = EnvelopeSpec("power_exponential", c=1.0, beta=10.0)
        assert env.log_value(1e40) == math.inf
        assert env.log_value(10.0) == pytest.approx(1e10, rel=1e-15)

    def test_tail_argument_takes_arrays(self):
        xs = np.array([1.0, 3.0, 50.0, 1e4, 1e306])
        for env in (EnvelopeSpec("power", beta=1.5),
                    EnvelopeSpec("exponential", c=0.3),
                    EnvelopeSpec("power_exponential", c=0.5, beta=2.0)):
            out = env.log_tail_argument(xs)
            assert out.shape == xs.shape
            for x, v in zip(xs, out):
                assert v == env.log_tail_argument(float(x))

    def test_increasing_on_comparison_range(self):
        for env in (EnvelopeSpec("power", beta=1.5),
                    EnvelopeSpec("exponential", c=0.3),
                    EnvelopeSpec("power_exponential", c=0.5, beta=2.0)):
            ts = np.linspace(1.0, 50.0, 200)
            vals = [env.log_value(t) for t in ts]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestUpperFunction:
    def test_pinned_exponential(self):
        # recorded from the engine that summed every round with bincount;
        # twelve doubling blocks, each settled in its first round
        r = upper_function_integral(EnvelopeSpec("exponential", c=1.0),
                                    KAlphaParams(1.5))
        assert r.quad.subdivisions == 96
        assert r.value == float.fromhex("0x1.3de2b948e60b2p+0")

    def test_power_always_divergent(self):
        for alpha in (0.5, 1.0, 1.5):
            r = upper_function_integral(EnvelopeSpec("power", beta=2.0),
                                        KAlphaParams(alpha))
            assert not r.convergent
            assert r.value is None

    def test_exponential_splits_at_one(self):
        conv = upper_function_integral(EnvelopeSpec("exponential", c=1.0),
                                       KAlphaParams(1.5))
        assert conv.convergent
        div = upper_function_integral(EnvelopeSpec("exponential", c=1.0),
                                      KAlphaParams(0.8))
        assert not div.convergent

    def test_power_exponential_product_criterion(self):
        r = upper_function_integral(
            EnvelopeSpec("power_exponential", c=1.0, beta=2.0),
            KAlphaParams(0.8))
        assert r.convergent           # 0.8 * 2 > 1
        r = upper_function_integral(
            EnvelopeSpec("power_exponential", c=1.0, beta=2.0),
            KAlphaParams(0.4))
        assert not r.convergent       # 0.4 * 2 < 1

    def test_convergent_value_against_scipy(self):
        r = upper_function_integral(EnvelopeSpec("exponential", c=1.0),
                                    KAlphaParams(1.5))
        oracle, _ = scipy_quad(
            lambda x: 1.0 / (1.5 * (x + math.log1p(math.exp(-x))) ** 1.5),
            1.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
        assert r.value == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.2, 1.9])
    @pytest.mark.parametrize("kind,kwargs", [
        ("exponential", {"c": 1e-3}),
        ("power_exponential", {"c": 1e-3, "beta": 1.01}),
    ])
    def test_slow_envelope_converges_against_scipy(self, alpha, kind, kwargs):
        # the integrand stays near its value at x = 1 until c x^p ~ 1;
        # in its own scale y = c^(1/p) x the decay starts near y = 1
        env = EnvelopeSpec(kind, **kwargs)
        r = upper_function_integral(env, KAlphaParams(alpha))
        c, pw = kwargs["c"], kwargs.get("beta", 1.0)

        def oracle_integrand(x):
            w = c * x ** pw
            return 1.0 / (alpha * (w + math.log1p(math.exp(-w))) ** alpha)

        x0 = c ** (-1.0 / pw)
        oracle = (scipy_quad(oracle_integrand, 1.0, x0, epsabs=0.0,
                             epsrel=1e-13, limit=500)[0]
                  + scipy_quad(oracle_integrand, x0, np.inf, epsabs=0.0,
                               epsrel=1e-13, limit=500)[0])
        assert r.convergent
        assert r.value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("kind,c,pw,expected", [
        ("exponential", 1e-303, 1.0, 1.9698381147826e303),
        ("power_exponential", 1e-300, 1.5, None),
    ])
    def test_tiny_c_against_scipy_in_own_scale(self, kind, c, pw, expected):
        # I = c^(-1/p) * integral over [c^(1/p), inf) of the c = 1 integrand
        alpha = 1.5
        kwargs = {"c": c} if kind == "exponential" else {"c": c, "beta": pw}
        r = upper_function_integral(EnvelopeSpec(kind, **kwargs),
                                    KAlphaParams(alpha))

        def unit_integrand(y):
            w = y ** pw
            return 1.0 / (alpha * (w + math.log1p(math.exp(-w))) ** alpha)

        oracle = c ** (-1.0 / pw) * (
            scipy_quad(unit_integrand, c ** (1.0 / pw), 1.0, epsabs=0.0,
                       epsrel=1e-13, limit=500)[0]
            + scipy_quad(unit_integrand, 1.0, np.inf, epsabs=0.0,
                         epsrel=1e-13, limit=500)[0])
        assert r.convergent
        assert r.value == pytest.approx(oracle, rel=1e-9)
        assert r.quad.value == r.value
        if expected is not None:
            assert r.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-320, 1e-308])
    def test_integral_beyond_float_range_refused(self, c):
        # c^(-1) overflows at 1e-320; at 1e-308 it fits but I ~ 1.97/c
        # does not
        with pytest.raises(ValueError, match="float range"):
            upper_function_integral(EnvelopeSpec("exponential", c=c),
                                    KAlphaParams(1.5))

    def test_tiny_alpha_integrates_at_unit_tail_mass(self):
        # the tail's factor 1/alpha ~ 1e306 stays out of the panel sums,
        # which it overflowed, and is applied once, after the quadrature,
        # also on top of a tiny c's scale
        p = KAlphaParams(1e-306)
        assert not upper_function_integral(
            EnvelopeSpec("exponential", c=1e-300), p).convergent
        # past x = 1 the integrand is x^(-alpha*beta) = x^(-10), so
        # I = 1/(9 alpha)
        r = upper_function_integral(
            EnvelopeSpec("power_exponential", c=1.0, beta=1e307), p)
        assert r.convergent
        assert r.value == pytest.approx(1.0 / (9.0 * 1e-306), rel=1e-9)

    def test_boundary_band_at_alpha_half(self):
        # exp(t^beta) has block ratio 2^(1 - alpha*beta), read as "no
        # decay" once it reaches 1 - 1e-6: for 0 < alpha*beta - 1 <= band
        # the quadrature says divergent against a convergent analytic
        # answer, the same at any rounding of the block integrals
        band = -math.log2(1.0 - 1e-6)
        betas = [1.9999, 2.0, 2.0000001, 2.0000015, 2.00000288, 2.0000029,
                 2.000003, 2.00001]
        assert 0.5 * 2.00000288 - 1.0 <= band < 0.5 * 2.0000029 - 1.0

        def outcome(beta):
            env = EnvelopeSpec("power_exponential", c=1.0, beta=beta)
            try:
                r = upper_function_integral(env, KAlphaParams(0.5))
            except ConsistencyError:
                return "inconsistent"
            return "convergent" if r.convergent else "divergent"

        assert [outcome(b) for b in betas] == (
            ["divergent"] * 2 + ["inconsistent"] * 3 + ["convergent"] * 3)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("kind,kwargs", [
        ("power", {"beta": 2.0}),
        ("exponential", {"c": 1.0}),
        ("power_exponential", {"c": 1.0, "beta": 2.0}),
    ])
    def test_analytic_and_quadrature_agree_on_grid(self, alpha, kind, kwargs):
        # disagreement would raise ConsistencyError
        upper_function_integral(EnvelopeSpec(kind, **kwargs), KAlphaParams(alpha))


class TestClassifySupport:
    def test_exponential_regime(self):
        v = classify_support(KAlphaParams(1.5), [2.0])
        assert v.in_S_prime is False
        assert v.in_K_prime is True
        assert v.in_K_beta == {2.0: True}
        assert "in_K_prime" in v.reasons

    def test_power_exponential_regime(self):
        v = classify_support(KAlphaParams(0.8), [2.0])
        assert (v.in_S_prime, v.in_K_prime) == (False, False)
        assert v.in_K_beta == {2.0: True}   # 0.8 > 1/2

    def test_below_threshold(self):
        v = classify_support(KAlphaParams(0.4), [2.0])
        assert v.in_K_beta == {2.0: False}  # 0.4 < 1/2

    def test_multiple_betas(self):
        v = classify_support(KAlphaParams(0.4), [1.5, 3.0])
        assert v.in_K_beta == {1.5: False, 3.0: True}

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            classify_support(KAlphaParams(1.0), [0.9])
