import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kalpha import spaces
from kalpha.measure import KAlphaParams
from kalpha.numerics import LN2, SignedLogValue, slv_sum
from kalpha.paths import BLOCK, EventPath, _log_jumps, simulate_large_jumps
from kalpha.spaces import (Bump, ExpPoly, Gaussian, _segment_terms, log_k_norm,
                           log_kbeta_norm, log_s_norm, pair_white_noise,
                           parse_test_function)


def manual_path(alpha=1.0, horizon=10.0, times=(), signs=(), mags=()):
    return EventPath(params=KAlphaParams(alpha), horizon=horizon, seed=0,
                     times=np.array(times, dtype=float),
                     signs=np.array(signs, dtype=np.int64),
                     log1p_mags=np.array(mags, dtype=float))


class TestFamilies:
    def test_gaussian_basics(self):
        g = Gaussian(0.0, 1.0)
        assert g(0.0) == 1.0
        assert g(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert Gaussian(2.0, 0.5)(2.0) == 1.0

    def test_bump_compact_support(self):
        b = Bump(5.0, 2.0)
        assert b(5.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert b(3.0) == 0.0 and b(7.0) == 0.0
        assert b(2.9) == 0.0 and b(7.1) == 0.0
        assert b.deriv(3, 7.0) == 0.0

    def test_bump_boundary_is_flat(self):
        # all derivatives fade to zero at the support edge, no overflow
        b = Bump(0.0, 1.0)
        for n in range(9):
            edge = b.deriv(n, np.array([-1.0 + 1e-9, 1.0 - 1e-9]))
            assert np.all(np.isfinite(edge))
            assert np.max(np.abs(edge)) < 1e-100

    @pytest.mark.parametrize("family, args", [
        (ExpPoly, (1.0, 3)), (ExpPoly, (0.0, 4)), (ExpPoly, (1.0, 0)),
        (ExpPoly, (math.nan, 4)), (ExpPoly, (1.0, math.inf)),
        (Gaussian, (0.0, math.nan)), (Gaussian, (math.nan, 1.0)),
        (Gaussian, (0.0, math.inf)), (Gaussian, (0.0, -1.0)),
        (Bump, (0.0, math.nan)), (Bump, (math.inf, 1.0)), (Bump, (0.0, 0.0)),
    ], ids=lambda v: getattr(v, "__name__", None) or ",".join(map(str, v)))
    def test_constructor_validation(self, family, args):
        with pytest.raises(ValueError):
            family(*args)

    def test_bump_order_cap(self):
        b = Bump(0.0, 1.0)
        b.deriv(8, 0.3)
        with pytest.raises(ValueError):
            b.deriv(9, 0.3)
        with pytest.raises(ValueError):
            b.log_abs_deriv(9, np.array([0.3]))
        with pytest.raises(ValueError, match="nonnegative"):
            b.deriv(-1, 0.3)

    @pytest.mark.parametrize("phi", [Gaussian(0.0, 1.0), Gaussian(1.0, 0.7),
                                     Bump(0.5, 2.0), ExpPoly(1.0, 4),
                                     ExpPoly(0.5, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_derivatives_match_finite_differences(self, phi, n):
        xs = np.array([-1.3, -0.4, 0.1, 0.6, 1.2])
        h = 1e-5
        fd = (phi.deriv(n - 1, xs + h) - phi.deriv(n - 1, xs - h)) / (2 * h)
        an = phi.deriv(n, xs)
        scale = np.max(np.abs(an)) + 1.0
        assert np.max(np.abs(fd - an)) / scale < 1e-4

    def test_log_abs_matches_deriv(self):
        for phi in (Gaussian(0.0, 1.0), Bump(0.0, 2.0), ExpPoly(1.0, 4)):
            xs = np.linspace(-1.5, 1.5, 11)
            direct = np.abs(phi.deriv(2, xs))
            logs = phi.log_abs_deriv(2, xs)
            back = np.exp(logs)
            mask = direct > 0
            assert np.allclose(back[mask], direct[mask], rtol=1e-10)

    @pytest.mark.parametrize("phi", [Gaussian(0.0, 1.0), Bump(0.0, 2.0),
                                     ExpPoly(1.0, 4)],
                             ids=["gaussian", "bump", "exppoly"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_derivatives_vanish_at_infinity(self, phi, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = (math.inf, -math.inf, 1e200, -1e200, 1e308, -1e308)
            for x in far:
                assert phi.deriv(n, x) == 0.0
                assert phi.log_abs_deriv(n, x) == -math.inf
            assert phi.deriv(n, np.array(far)).tolist() == [0.0] * len(far)
            assert phi.log_abs_deriv(n, np.array(far)).tolist() == \
                   [-math.inf] * len(far)

    @pytest.mark.parametrize("phi", [Gaussian(0.0, 1.0), Gaussian(1e300, 1e-300),
                                     Bump(0.0, 2.0), Bump(-3e5, 2e5),
                                     ExpPoly(1.0, 4), ExpPoly(1e-307, 2)],
                             ids=["gaussian", "gaussian-tiny-scale", "bump",
                                  "bump-wide", "exppoly", "exppoly-power-overflows"])
    def test_order_zero_is_the_recursion_bit_for_bit(self, phi):
        # deriv(0) is e^g, the value the recursion's sign and log give
        xs = np.array([0.0, -0.0, 0.5, -1.0, 1.0, 3.0, 2e154, -4e5, 1e200,
                       -1e308, 5e-324, math.inf, -math.inf])
        sign, log = phi._log_deriv(0, phi._y(xs))
        assert phi.deriv(0, xs).tobytes() == (sign * np.exp(log)).tobytes()
        assert [phi.deriv(0, x) for x in xs.tolist()] == phi.deriv(0, xs).tolist()

    def test_far_field_keeps_finite_logs(self):
        # e^(-28^2) and e^(-10^200) underflow to 0, but the logs are finite:
        # ln |H_3(y)| - y^2 with H_3(y) = 8y^3 - 12y
        g = Gaussian(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.log_abs_deriv(3, 28.0) == pytest.approx(
                math.log(8 * 28.0 ** 3 - 12 * 28.0) - 784.0, rel=1e-15)
            assert g.log_abs_deriv(3, 1e100) == pytest.approx(-1e200, rel=1e-15)

    def test_rescaling_is_per_point(self):
        # the recursion rescales each point on its own: an array call
        # equals the calls at its points one at a time
        for phi, n in ((Gaussian(0.0, 1.0), 300), (ExpPoly(1.0, 400), 200)):
            ys = np.linspace(-12.0, 12.0, 97)
            whole = phi.log_abs_deriv(n, ys)
            single = [phi.log_abs_deriv(n, float(y)) for y in ys]
            assert np.isfinite(whole).any()
            assert np.allclose(whole, single, rtol=1e-13, atol=0.0)

    def test_high_order_hermite_does_not_overflow(self):
        # ln |H_300(10)| - 10^2 from the exact integer recursion
        h_prev, h = 1, 20
        for k in range(1, 300):
            h, h_prev = 20 * h - 2 * k * h_prev, h
        expected = math.log(abs(h)) - 100.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = Gaussian(0.0, 1.0).log_abs_deriv(300, 10.0)
        assert v == pytest.approx(expected, rel=1e-12)


def exact_exppoly_derivs(degree, y, top):
    """phi^(m) / e^g for m <= top, phi = exp(-y^degree), in exact rationals,
    by Leibniz's rule phi^(m+1) = sum_j C(m, j) g^(j+1) phi^(m-j)."""
    y = Fraction(y)
    dg = [-math.perm(degree, j + 1) * y ** (degree - j - 1) for j in range(degree)]
    d = [Fraction(1)]
    for m in range(top):
        d.append(sum(math.comb(m, j) * dg[j] * d[m - j]
                     for j in range(min(m + 1, degree))))
    return d


def exact_bump_numerators(top):
    """Integer coefficient lists of P_n, phi^(n) = phi P_n(y) / (1-y^2)^(2n),
    from P_(n+1) = P_n' (1-y^2)^2 + 4n y (1-y^2) P_n - 2y P_n."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, z in enumerate(b):
                out[i + j] += x * z
        return out

    def add(*ps):
        return [sum(p[i] for p in ps if i < len(p))
                for i in range(max(map(len, ps)))]

    w = [1, 0, -1]
    polys = [[1]]
    for n in range(top):
        p = polys[-1]
        dp = [i * c for i, c in enumerate(p)][1:] or [0]
        polys.append(add(mul(dp, mul(w, w)), mul([0, 4 * n], mul(p, w)),
                         mul([0, -2], p)))
    return polys


def exact_log(q: Fraction) -> float:
    return math.log(abs(q.numerator)) - math.log(q.denominator)


class TestExpPolyExponent:
    def test_exponent_where_the_power_overflows(self):
        # y^2 = 4e308 overflows a float; rate y^2 = 40 does not
        rate, y = 1e-307, 2e154
        exact = float(Fraction(rate) * Fraction(y) ** 2)
        assert ExpPoly(rate, 2).deriv(0, y) == pytest.approx(math.exp(-exact),
                                                             rel=1e-12, abs=0.0)

    def test_order_zero_is_the_plain_exponential(self):
        xs = np.linspace(-3.0, 3.0, 601)
        assert np.array_equal(ExpPoly(2.5, 4).deriv(0, xs), np.exp(-2.5 * xs ** 4))


class TestExactDerivatives:
    """The one recursion against exact rational arithmetic."""

    @pytest.mark.parametrize("degree", [2, 4, 6])
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_exppoly(self, degree, y):
        exact = exact_exppoly_derivs(degree, y, 300)
        phi = ExpPoly(1.0, degree)
        for n in (1, 10, 50, 150, 300):
            sign, log = phi._log_deriv(n, y)
            assert sign == (exact[n] > 0) - (exact[n] < 0)
            assert log == pytest.approx(exact_log(exact[n]) - y ** degree,
                                        rel=1e-12)

    def test_bump(self):
        polys = exact_bump_numerators(8)
        phi = Bump(0.0, 1.0)
        for k in range(-56, 57):
            y = Fraction(k, 64)
            for n, poly in enumerate(polys):
                p = sum(c * y ** i for i, c in enumerate(poly))
                sign, log = phi._log_deriv(n, k / 64)
                assert sign == (p > 0) - (p < 0), (k, n)
                if p == 0:
                    assert log == -math.inf
                else:
                    w = 1 - y * y
                    expected = (exact_log(p) - float(1 / w)
                                - 2 * n * math.log(float(w)))
                    assert log == pytest.approx(expected, abs=1e-12), (k, n)

    def test_degree_two_is_the_gaussian(self):
        # ln |H_150(5)| - 25 from the exact integer Hermite recursion
        v = ExpPoly(1.0, 2).log_abs_deriv(150, 5.0)
        assert v == Gaussian(0.0, 1.0).log_abs_deriv(150, 5.0)
        assert v == pytest.approx(340.37668210896874, rel=1e-14)

    def test_binomials_beyond_float_range(self):
        # k C(2000, k) passes 1.8e308 for k near 300
        exact = exact_exppoly_derivs(2000, 1, 300)
        phi = ExpPoly(1.0, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 150, 300):
                sign, log = phi._log_deriv(n, 1.0)
                assert sign == (exact[n] > 0) - (exact[n] < 0)
                assert log == pytest.approx(exact_log(exact[n]) - 1.0,
                                            rel=0.0, abs=1e-12)

    def test_powers_beyond_float_range(self):
        # 0.5^1999 underflows a float and C(2000, 1000) overflows one
        phi = ExpPoly(1.0, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = phi.log_abs_deriv(1, 0.5)
            assert math.isfinite(phi.log_abs_deriv(1000, 0.5))
        # phi' = -2000 y^1999 e^g, with g = -0.5^2000 = -0.0 in floats
        assert first == pytest.approx(math.log(2000.0) - 1999 * LN2,
                                      rel=0.0, abs=1e-12)

    def test_high_degree_high_order(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ExpPoly(1.0, 400).log_abs_deriv(200, 0.5)
        assert v == pytest.approx(998.6392746788479, rel=1e-12)


class TestSNorm:
    def test_gaussian_sup(self):
        g = Gaussian(0.0, 1.0)
        assert log_s_norm(g, 0, 0) == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_weighted_sup(self):
        # sup |x e^(-x^2)| = (2e)^(-1/2) at x = 1/sqrt(2)
        g = Gaussian(0.0, 1.0)
        assert log_s_norm(g, 1, 0) == pytest.approx(-0.5 * math.log(2 * math.e),
                                                    abs=1e-6)

    def test_bump_peak(self):
        assert log_s_norm(Bump(0.0, 1.0), 0, 0) == pytest.approx(-1.0, abs=1e-6)

    def test_exppoly_peak(self):
        assert log_s_norm(ExpPoly(2.0, 4), 0, 0) == pytest.approx(0.0, abs=1e-6)

    def test_derivative_order_gate(self):
        with pytest.raises(ValueError):
            log_s_norm(Bump(0.0, 1.0), 0, 9)
        with pytest.raises(ValueError, match="orders must be nonnegative"):
            log_s_norm(Gaussian(0.0, 1.0), -1, 0)

    def test_dead_outer_probe_brackets(self):
        # y^400 overflows at the first probe, y = 10: the objective is -inf
        # at both probes, which still brackets the sup
        assert log_s_norm(ExpPoly(1.0, 400), 0, 0) == pytest.approx(0.0, abs=1e-9)

    def test_polynomial_weight_always_finite(self):
        for phi in (Gaussian(0.0, 1.0), Bump(1.0, 0.5), ExpPoly(1.0, 2)):
            for p in (0, 3, 6):
                v = log_s_norm(phi, p, 1)
                assert math.isfinite(v)


class TestKNorm:
    def test_weight_one(self):
        g = Gaussian(0.0, 1.0)
        assert log_k_norm(g, 0) == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_p1_value(self):
        # q=1 term e^|x| 2|x| e^(-x^2) peaks at exactly 2 (x = 1), beating
        # the q=0 term e^(1/4)
        g = Gaussian(0.0, 1.0)
        assert log_k_norm(g, 1) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_bump_finite_any_p(self):
        b = Bump(0.0, 1.0)
        for p in (0, 2, 5, 8):
            assert math.isfinite(log_k_norm(b, p))

    def test_finite_for_all_families(self):
        for phi in (Gaussian(0.5, 2.0), Bump(0.0, 3.0), ExpPoly(0.3, 4)):
            assert math.isfinite(log_k_norm(phi, 3))

    def test_nondecreasing_in_p(self):
        for phi in (Gaussian(0.0, 1.0), Bump(0.0, 1.0), ExpPoly(1.0, 4)):
            vals = [log_k_norm(phi, p) for p in range(4)]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="p must be nonnegative"):
            log_k_norm(Gaussian(0.0, 1.0), -1)

    def test_norm_beyond_float_range_is_finite(self):
        # e^(1000 |x|) on the support: the norm itself is about e^1000
        assert math.isfinite(log_k_norm(Bump(1000.0, 1.0), 1))

    def test_dead_outer_probe_brackets(self):
        # the q = 1 term e^y 400 y^399 e^(-y^400) peaks at exactly 400 (y = 1)
        assert log_k_norm(ExpPoly(1.0, 400), 1) == pytest.approx(math.log(400.0),
                                                                abs=1e-6)

    def test_translation_covariance(self):
        # on a support inside x > 0 the weight e^(p|x|) shifts by e^(p c)
        shift = log_k_norm(Bump(30.0, 1.0), 2) - log_k_norm(Bump(20.0, 1.0), 2)
        assert shift == pytest.approx(20.0, abs=1e-9)


class TestKBetaNorm:
    def test_weight_one(self):
        assert log_kbeta_norm(Gaussian(0.0, 1.0), 0, 2.0) == pytest.approx(
            0.0, abs=1e-6)

    def test_bump_finite(self):
        assert math.isfinite(log_kbeta_norm(Bump(0.0, 1.0), 3, 2.0))

    def test_norm_beyond_float_range_is_finite(self):
        assert math.isfinite(log_kbeta_norm(Bump(100.0, 1.0), 1, 1.5))

    def test_gaussian_divergence_flagged(self):
        # e^(|x|^3) beats any gaussian decay
        assert log_kbeta_norm(Gaussian(0.0, 1.0), 1, 3.0) == math.inf
        assert log_kbeta_norm(Gaussian(0.0, 1.0), 1, 2.0) == math.inf

    def test_gaussian_narrow_scale_survives_beta_two(self):
        # decay rate 1/s^2 = 4 beats weight coefficient p = 1
        v = log_kbeta_norm(Gaussian(0.0, 0.5), 1, 2.0)
        assert math.isfinite(v)

    def test_gaussian_tiny_scale_analytic(self):
        # the weight is 1 where phi lives; the q=1 term 2|y| e^(-y^2) / s
        # peaks at y = 1/sqrt(2)
        v = log_kbeta_norm(Gaussian(0.0, 1e-200), 1, 2.0)
        expected = 0.5 * math.log(2.0) + 200 * math.log(10.0) - 0.5
        assert v == pytest.approx(expected, abs=1e-9)

    def test_exppoly_thresholds(self):
        quartic = ExpPoly(1.0, 4)
        assert math.isfinite(log_kbeta_norm(quartic, 2, 3.0))
        assert log_kbeta_norm(quartic, 1, 5.0) == math.inf
        assert log_kbeta_norm(quartic, 1, 4.0) == math.inf   # p >= rate at beta == degree

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            log_kbeta_norm(Gaussian(0.0, 1.0), 1, 1.0)
        with pytest.raises(ValueError):
            log_kbeta_norm(Gaussian(0.0, 1.0), 1, 0.5)

    def test_nondecreasing_in_p(self):
        b = Bump(0.0, 1.0)
        vals = [log_kbeta_norm(b, p, 2.0) for p in range(4)]
        assert all(bv >= av - 1e-9 for av, bv in zip(vals, vals[1:]))


class TestPairing:
    def test_empty_path_is_zero(self):
        res = pair_white_noise(manual_path(), Gaussian(0.0, 1.0))
        assert res.value.is_zero
        assert res.crosscheck.is_zero
        assert res.rel_err == 0.0

    def test_single_jump_analytic_gaussian(self):
        ell = 3.0
        path = manual_path(times=[1.0], signs=[1], mags=[ell])
        res = pair_white_noise(path, Gaussian(0.0, 1.0))
        expected = math.expm1(ell) * math.exp(-1.0)
        for got in (res.value, res.crosscheck):
            value = got.sign * math.exp(got.logmag)
            assert value == pytest.approx(expected, rel=1e-12)
        assert not res.truncation_warning

    def test_single_jump_analytic_bump(self):
        # bump centred on the jump time, supported inside the horizon
        ell = 2.0
        path = manual_path(times=[1.0], signs=[-1], mags=[ell])
        phi = Bump(1.0, 3.0)
        res = pair_white_noise(path, phi)
        expected = -math.expm1(ell) * phi(1.0)
        assert res.value.sign * math.exp(res.value.logmag) == pytest.approx(
            expected, rel=1e-12)
        assert not res.truncation_warning

    @pytest.mark.parametrize("phi", [Bump(5.0, 2.0), Gaussian(0.0, 1.0),
                                     Gaussian(4.0, 1.5)])
    def test_dual_algorithms_agree_on_seeded_path(self, phi):
        p = KAlphaParams(1.5)
        path = simulate_large_jumps(p, 10.0, 11)
        res = pair_white_noise(path, phi)
        assert res.rel_err < 1e-9

    def test_agreement_across_many_seeds(self):
        p = KAlphaParams(1.0)
        phi = Bump(5.0, 2.0)
        for seed in range(30):
            path = simulate_large_jumps(p, 10.0, seed)
            assert pair_white_noise(path, phi).rel_err < 1e-9

    def test_linearity_under_event_concatenation(self):
        p = KAlphaParams(1.2)
        a = simulate_large_jumps(p, 10.0, 101)
        b = simulate_large_jumps(p, 10.0, 202)
        times = np.concatenate([a.times, b.times])
        order = np.argsort(times)
        merged = EventPath(
            params=p, horizon=10.0, seed=0,
            times=times[order],
            signs=np.concatenate([a.signs, b.signs])[order],
            log1p_mags=np.concatenate([a.log1p_mags, b.log1p_mags])[order])
        phi = Gaussian(3.0, 2.0)
        lhs, ra, rb = (pair_white_noise(x, phi).value for x in (merged, a, b))
        logs = np.array([lhs.logmag, ra.logmag, rb.logmag])
        coefs = np.array([lhs.sign, -ra.sign, -rb.sign], dtype=float)
        ref, diff = slv_sum(lambda: [(logs, coefs)])
        assert diff == 0.0 or ref + math.log(abs(diff)) - lhs.logmag < math.log(1e-11)

    def test_rel_err_not_log_quantised(self):
        # logs near 8e8 carry an ulp of about 1e-7, so comparing the rounded
        # logs read 0 here; the exact totals differ in their last bits
        path = manual_path(times=(4.0, 9.0), signs=(1, -1),
                           mags=(8e8, 8e8 + 4.0))
        res = pair_white_noise(path, Gaussian(5.0, 2.0))
        assert res.value.logmag == res.crosscheck.logmag
        assert 0.0 < res.rel_err < 1e-12

    def test_shifted_bump_beyond_horizon_gives_exact_zero(self):
        p = KAlphaParams(1.0)
        path = simulate_large_jumps(p, 10.0, 5)
        res = pair_white_noise(path, Bump(20.0, 2.0))
        assert res.value.is_zero
        assert res.crosscheck.is_zero

    def test_truncation_warning_when_phi_alive_at_horizon(self):
        p = KAlphaParams(1.0)
        path = simulate_large_jumps(p, 10.0, 5)
        res = pair_white_noise(path, Gaussian(10.0, 1.0))
        assert res.truncation_warning

def reference_pairing(path, phi) -> Fraction:
    """-integral K phi' by the dominant-jump regrouping, in exact rationals.

    sum over i in [lo, hi) of (K_i - K_lo-entry) * (phi_i - phi_next):
    the range's first largest jump m splits it, the level of the jumps
    lo..m multiplies the telescoped phi_m - phi_right, and the
    sub-ranges on either side recurse relative to their own entry.
    """
    mags = path.log1p_mags.tolist()
    jumps = [Fraction(s * math.expm1(m)) for s, m in zip(path.signs.tolist(), mags)]
    prefix = [Fraction(0)]
    for j in jumps:
        prefix.append(prefix[-1] + j)
    phis = [Fraction(phi(t)) for t in path.times.tolist()]

    def segment(lo, hi, phi_right):
        if lo >= hi:
            return Fraction(0)
        m = max(range(lo, hi), key=mags.__getitem__)   # first largest
        return (segment(lo, m, phis[m])
                + (prefix[m + 1] - prefix[lo]) * (phis[m] - phi_right)
                + segment(m + 1, hi, phi_right))

    return segment(0, len(jumps), Fraction(phi(path.horizon)))


@st.composite
def adversarial_pairings(draw):
    """Paths of up to 200 events with repeated magnitudes and sorted
    orders, and a test function alive somewhere inside the horizon."""
    n = draw(st.integers(0, 200))
    mag = st.floats(min_value=LN2, max_value=40.0)
    pool = draw(st.lists(mag, min_size=1, max_size=6))
    mags = draw(st.lists(st.one_of(st.sampled_from(pool), mag),
                         min_size=n, max_size=n))
    order = draw(st.sampled_from(["drawn", "increasing", "decreasing"]))
    if order != "drawn":
        mags.sort(reverse=order == "decreasing")
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    center = draw(st.floats(0.0, 10.0))
    if draw(st.booleans()):
        phi = Gaussian(center, draw(st.floats(0.3, 5.0)))
    else:
        phi = Bump(center, draw(st.floats(0.3, 8.0)))
    path = manual_path(times=(np.arange(n) + 0.5) * (10.0 / max(n, 1)),
                       signs=signs, mags=mags)
    return path, phi


def reference_levels(lj, signs):
    """The stack pass's scaled levels and hi, by the per-event recursion
    over whole-path lists."""
    n = len(lj)
    a, hi, stack = [0.0] * n, [n] * n, []
    for i, (x, s) in enumerate(zip(lj, signs)):
        acc = float(s)
        while stack and lj[stack[-1]] < x:
            p = stack.pop()
            hi[p] = i
            acc += a[p] * math.exp(lj[p] - x)
        a[i] = acc
        stack.append(i)
    return a, hi


def assert_terms_match_reference(path, phi):
    """_segment_terms is the reference levels times phi_i - phi_next,
    formed in numpy (phi_next being phi at the horizon past the last
    larger jump), bit for bit; returns the reference hi."""
    a, hi = reference_levels(_log_jumps(path.log1p_mags).tolist(),
                             path.signs.tolist())
    phis = np.append(phi(path.times), phi(path.horizon))
    want = np.array(a, dtype=float) * (phis[:-1] - phis[hi])
    got = _segment_terms(path, phi, phi(path.horizon))
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    return hi


def seeded_pairing(seed):
    """One of adversarial_pairings's cases, drawn from a seed: up to 60
    events, drawn, increasing or decreasing magnitudes half of which
    repeat a small pool, and a gaussian or a bump by the seed's parity."""
    rng = np.random.default_rng(seed)
    n = seed * 37 % 61
    pool = rng.uniform(LN2, 40.0, rng.integers(1, 7))
    mags = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                    rng.uniform(LN2, 40.0, n))
    order = ("drawn", "increasing", "decreasing")[seed % 3]
    if order != "drawn":
        mags.sort()
        mags = mags[::-1] if order == "decreasing" else mags
    center = rng.uniform(0.0, 10.0)
    phi = (Bump(center, rng.uniform(0.3, 8.0)) if seed % 2
           else Gaussian(center, rng.uniform(0.3, 5.0)))
    path = manual_path(times=(np.arange(n) + 0.5) * (10.0 / max(n, 1)),
                       signs=rng.choice([-1, 1], n), mags=mags)
    return path, phi


def assert_pairing_matches_reference(path, phi):
    ref = float(reference_pairing(path, phi))
    res = pair_white_noise(path, phi)
    got = res.value.sign * math.exp(res.value.logmag)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    # the stack and phi go by blocks of any size, bit for bit
    for block in (1, 3, 7, BLOCK):
        with mock.patch.object(spaces, "BLOCK", block):
            assert_terms_match_reference(path, phi)
            assert pair_white_noise(path, phi) == res


class TestPairingKernel:
    @given(adversarial_pairings())
    def test_matches_reference_recursion(self, case):
        assert_pairing_matches_reference(*case)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_on_seeded_paths(self, seed):
        # a fixed companion of the property test, which can take minutes
        # to find a fault in the stack pass; these cases take seconds
        assert_pairing_matches_reference(*seeded_pairing(seed))

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_record_held_across_block_edges(self, n):
        # event 1 outgrows everything until the last event, so it stays on
        # the stack over every block edge and is closed from the last block
        rng = np.random.default_rng(n)
        mags = LN2 + rng.exponential(2.0, n)
        mags[1], mags[-1] = 60.0, 70.0
        path = manual_path(times=(np.arange(n) + 0.5) * (10.0 / n),
                           signs=rng.choice([-1, 1], n), mags=mags)
        hi = assert_terms_match_reference(path, Gaussian(5.0, 3.0))
        assert (hi[1], hi[-1]) == (n - 1, n)

    @pytest.mark.parametrize("order, bound", [("random", 2.5),
                                              ("decreasing", 4.5),
                                              ("tied", 4.5)],
                             ids=["random", "decreasing", "tied"])
    def test_memory_is_a_few_arrays_of_the_path(self, order, bound,
                                                traced_peak):
        # Beyond the path the pairing holds one float64 array of its
        # length: the segment coefficients, which the cross-check's terms
        # at the events then overwrite.  The log jumps and phi are formed
        # a block at a time and slv_sum reads its terms a block at a
        # time, so the rest is one block of scratch, mostly the stack
        # pass's Python floats, under one array at this length: 2.5
        # arrays in all.  On decreasing or tied magnitudes every event
        # stays on the stack across every block edge, its index and jump
        # carried as 8 bytes each: two arrays more.
        path = simulate_large_jumps(KAlphaParams(1.5), 5e4, 42)
        n = path.n_events
        assert n >= 100_000
        if order != "random":
            mags = (np.linspace(50.0, 1.0, n) if order == "decreasing"
                    else np.full(n, 7.0))
            path = manual_path(alpha=1.5, horizon=path.horizon,
                               times=path.times, signs=path.signs, mags=mags)
        phi = Bump(2.5e4, 2e4)
        _, peak = traced_peak(pair_white_noise, path, phi)
        assert peak <= bound * 8 * n

    @pytest.mark.parametrize("phi, sign, logmag, warn", [
        (Bump(5e3, 4e3), 1, "0x1.6502999639011p+8", False),
        (Gaussian(8e3, 2e3), 1, "0x1.fa7666401e3a4p+9", True)],
        ids=["bump", "gaussian"])
    def test_pinned_pairing(self, phi, sign, logmag, warn):
        # recorded from the whole-array pairing on this seeded path of
        # 23,091 events; never re-recorded
        path = simulate_large_jumps(KAlphaParams(1.5), 1e4, 7)
        res = pair_white_noise(path, phi)
        pinned = SignedLogValue(sign, float.fromhex(logmag))
        assert (res.value, res.crosscheck) == (pinned, pinned)
        assert res.rel_err == 0.0
        assert res.truncation_warning is warn


class TestDescriptors:
    def test_parse_round_trip(self):
        phi = parse_test_function("bump:center=5,width=2")
        assert isinstance(phi, Bump)
        assert phi.describe() == "bump:center=5,width=2"
        phi = parse_test_function("gaussian:center=0,scale=1")
        assert isinstance(phi, Gaussian)
        phi = parse_test_function("exppoly:rate=2,degree=4")
        assert isinstance(phi, ExpPoly) and phi.rate == 2.0

    def test_defaults(self):
        phi = parse_test_function("gaussian")
        assert (phi.center, phi.scale) == (0.0, 1.0)

    def test_bad_descriptors(self):
        for text in ("mexican_hat", "gaussian:sigma=1", "bump:center",
                     "gaussian:center=nan", "gaussian:scale=1,scale=2",
                     "exppoly:degree=4.5"):
            with pytest.raises(ValueError):
                parse_test_function(text)
