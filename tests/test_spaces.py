import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from kalpha.measure import KAlphaParams
from kalpha.numerics import LN2, slv_sum
from kalpha.paths import EventPath, simulate_large_jumps
from kalpha.spaces import (Bump, ExpPoly, Gaussian, k_norm, kbeta_norm,
                           pair_white_noise, parse_test_function, s_norm)

# database=None turns the example database off, but hypothesis still caches
# the constants it reads from the source when tests are collected; keep that
# cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "kalpha-hypothesis")


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

    def test_exppoly_validation(self):
        with pytest.raises(ValueError):
            ExpPoly(rate=1.0, degree=3)
        with pytest.raises(ValueError):
            ExpPoly(rate=0.0, degree=4)
        with pytest.raises(ValueError):
            ExpPoly(rate=1.0, degree=0)

    def test_bump_order_cap(self):
        b = Bump(0.0, 1.0)
        b.deriv(8, 0.3)
        with pytest.raises(ValueError):
            b.deriv(9, 0.3)
        with pytest.raises(ValueError):
            b.log_abs_deriv(9, np.array([0.3]))

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


class TestSNorm:
    def test_gaussian_sup(self):
        g = Gaussian(0.0, 1.0)
        assert s_norm(g, 0, 0) == pytest.approx(1.0, rel=1e-6)

    def test_gaussian_weighted_sup(self):
        # sup |x e^(-x^2)| = (2e)^(-1/2) at x = 1/sqrt(2)
        g = Gaussian(0.0, 1.0)
        assert s_norm(g, 1, 0) == pytest.approx((2 * math.e) ** -0.5, rel=1e-6)

    def test_bump_peak(self):
        assert s_norm(Bump(0.0, 1.0), 0, 0) == pytest.approx(math.exp(-1.0),
                                                             rel=1e-6)

    def test_exppoly_peak(self):
        assert s_norm(ExpPoly(2.0, 4), 0, 0) == pytest.approx(1.0, rel=1e-6)

    def test_derivative_order_gate(self):
        with pytest.raises(ValueError):
            s_norm(Bump(0.0, 1.0), 0, 9)

    def test_polynomial_weight_always_finite(self):
        for phi in (Gaussian(0.0, 1.0), Bump(1.0, 0.5), ExpPoly(1.0, 2)):
            for p in (0, 3, 6):
                v = s_norm(phi, p, 1)
                assert math.isfinite(v)


class TestKNorm:
    def test_weight_one(self):
        g = Gaussian(0.0, 1.0)
        assert k_norm(g, 0) == pytest.approx(1.0, rel=1e-6)

    def test_gaussian_p1_value(self):
        # q=1 term e^|x| 2|x| e^(-x^2) peaks at exactly 2 (x = 1), beating
        # the q=0 term e^(1/4)
        g = Gaussian(0.0, 1.0)
        assert k_norm(g, 1) == pytest.approx(2.0, rel=1e-6)

    def test_bump_finite_any_p(self):
        b = Bump(0.0, 1.0)
        for p in (0, 2, 5, 8):
            assert math.isfinite(k_norm(b, p))

    def test_finite_for_all_families(self):
        for phi in (Gaussian(0.5, 2.0), Bump(0.0, 3.0), ExpPoly(0.3, 4)):
            assert math.isfinite(k_norm(phi, 3))

    def test_nondecreasing_in_p(self):
        for phi in (Gaussian(0.0, 1.0), Bump(0.0, 1.0), ExpPoly(1.0, 4)):
            vals = [k_norm(phi, p) for p in range(4)]
            assert all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))


class TestKBetaNorm:
    def test_weight_one(self):
        assert kbeta_norm(Gaussian(0.0, 1.0), 0, 2.0) == pytest.approx(1.0,
                                                                       rel=1e-6)

    def test_bump_finite(self):
        assert math.isfinite(kbeta_norm(Bump(0.0, 1.0), 3, 2.0))

    def test_gaussian_divergence_flagged(self):
        # e^(|x|^3) beats any gaussian decay
        assert kbeta_norm(Gaussian(0.0, 1.0), 1, 3.0) == math.inf
        assert kbeta_norm(Gaussian(0.0, 1.0), 1, 2.0) == math.inf

    def test_gaussian_narrow_scale_survives_beta_two(self):
        # decay rate 1/s^2 = 4 beats weight coefficient p = 1
        v = kbeta_norm(Gaussian(0.0, 0.5), 1, 2.0)
        assert math.isfinite(v)

    def test_exppoly_thresholds(self):
        quartic = ExpPoly(1.0, 4)
        assert math.isfinite(kbeta_norm(quartic, 2, 3.0))
        assert kbeta_norm(quartic, 1, 5.0) == math.inf
        assert kbeta_norm(quartic, 1, 4.0) == math.inf   # p >= rate at beta == degree

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            kbeta_norm(Gaussian(0.0, 1.0), 1, 1.0)
        with pytest.raises(ValueError):
            kbeta_norm(Gaussian(0.0, 1.0), 1, 0.5)

    def test_nondecreasing_in_p(self):
        b = Bump(0.0, 1.0)
        vals = [kbeta_norm(b, p, 2.0) for p in range(4)]
        assert all(bv >= av * (1 - 1e-9) for av, bv in zip(vals, vals[1:]))


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
        assert res.value.decode() == pytest.approx(expected, rel=1e-12)
        assert res.crosscheck.decode() == pytest.approx(expected, rel=1e-12)
        assert not res.truncation_warning

    def test_single_jump_analytic_bump(self):
        # bump centred on the jump time, supported inside the horizon
        ell = 2.0
        path = manual_path(times=[1.0], signs=[-1], mags=[ell])
        phi = Bump(1.0, 3.0)
        res = pair_white_noise(path, phi)
        expected = -math.expm1(ell) * phi(1.0)
        assert res.value.decode() == pytest.approx(expected, rel=1e-12)
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
        ref, diff = slv_sum([lhs.logmag, ra.logmag, rb.logmag],
                            [lhs.sign, -ra.sign, -rb.sign])
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


class TestPairingKernel:
    @settings(derandomize=True, database=None, deadline=None)
    @given(adversarial_pairings())
    def test_matches_reference_recursion(self, case):
        path, phi = case
        ref = float(reference_pairing(path, phi))
        res = pair_white_noise(path, phi)
        got = res.value.decode()
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


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
