"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  All tolerances are pinned here, not calibrated later.

Criterion 4 is asserted exactly as stated and is expected to fail in its
small-eta cells at this grid: r^eta * h-bar(r) turns increasing only
beyond the radius e^(alpha/eta), which for eta = 0.05 and alpha >= 1
lies past the grid end of 10^8.  The failure is real, not numerical;
see the slope report itself for the measured trend.
"""

import math
import time

import numpy as np
import pytest

from kalpha.cli import EXIT_OK, main as cli_main
from kalpha.diagnostics import (build_exceedance_report, moment_scan,
                                pruitt_slope)
from kalpha.measure import (EnvelopeSpec, KAlphaParams, laplace_exponent,
                            tail_one_sided, upper_function_integral)
from kalpha.numerics import LN2, adaptive_quad
from kalpha.paths import simulate_large_jumps
from kalpha.spaces import Bump, Gaussian, pair_white_noise
from util_stats import ks_statistic, poisson_chi2_pvalue

# seeded regression values for criterion 6 (base seed 42, 200 paths,
# alpha = 1.5, burn-in 10; recorded at first computation, exact-match since)
POWER_FRACTIONS = {10.0: 0.0, 100.0: 1.0, 1000.0: 1.0}
EXP_LAST_HALF_FRACTIONS = {10.0: 0.64, 100.0: 0.245, 1000.0: 0.085}


def _finish(num, desc, failures, elapsed=None, budget=None):
    if budget is not None and elapsed is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    extra = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[acceptance] criterion {num}: {status} - {desc}{extra}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_tail_closed_form_vs_quadrature():
    failures = []
    t0 = time.monotonic()
    for alpha in (0.5, 1.0, 1.5):
        p = KAlphaParams(alpha)
        for r in (1.0, 10.0, 1e3, 1e6):
            quad = adaptive_quad(lambda u, a=alpha: u ** (-1.0 - a),
                                 math.log1p(r), math.inf, tol=1e-12)
            closed = tail_one_sided(r, p)
            rel = abs(quad.value - closed) / closed
            if rel >= 1e-8:
                failures.append(f"alpha={alpha} r={r}: rel {rel:.2e}")
    _finish(1, "one-sided tail: closed form vs quadrature at 1e-8",
            failures, time.monotonic() - t0, 1.0)


def test_criterion_2_sampler_law():
    failures = []
    t0 = time.monotonic()
    for alpha in (0.5, 1.0, 1.5):
        p = KAlphaParams(alpha)
        horizon = 1.1e5 / p.trunc_mass
        path = simulate_large_jumps(p, horizon, 977)
        mags = path.log1p_mags[:100_000]
        if len(mags) < 100_000:
            failures.append(f"alpha={alpha}: only {len(mags)} events")
            continue
        D = ks_statistic(mags, lambda l, a=alpha: 1.0 - (LN2 / l) ** a)
        if D >= 0.01:
            failures.append(f"alpha={alpha}: KS {D:.4f}")
        counts = [simulate_large_jumps(p, 1.0, 10_000 + s).n_events
                  for s in range(1000)]
        pval = poisson_chi2_pvalue(counts, p.trunc_mass)
        if pval <= 0.001:
            failures.append(f"alpha={alpha}: chi2 p {pval:.5f}")
    _finish(2, "magnitude law KS < 0.01 and Poisson counts chi2 p > 0.001",
            failures, time.monotonic() - t0, 5.0)


def test_criterion_3_moment_divergence():
    failures = []
    t0 = time.monotonic()
    scan = moment_scan(KAlphaParams(1.5), 0.25, [10.0 ** k for k in range(1, 6)])
    if not all(b > a for a, b in zip(scan.values, scan.values[1:])):
        failures.append(f"values not increasing: {scan.values}")
    if not all(b > a for a, b in zip(scan.growth_ratios,
                                     scan.growth_ratios[1:])):
        failures.append(f"ratios not strictly increasing: {scan.growth_ratios}")
    if not scan.divergence_flagged:
        failures.append("divergence flag not set")
    _finish(3, "truncated moment scan flags divergence at caps 10^1..10^5",
            failures, time.monotonic() - t0, 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_criterion_4_growth_index_signature(alpha):
    failures = []
    t0 = time.monotonic()
    etas = (0.05, 0.1, 0.5)
    r_grid = [10.0 ** k for k in range(1, 9)]
    report = pruitt_slope(KAlphaParams(alpha), etas, r_grid)
    for eta in etas:
        if not report.tail_increasing[eta]:
            seq = report.values[eta]
            failures.append(
                f"eta={eta}: r^eta*hbar still falling at r=1e8 "
                f"(last two: {seq[-2]:.6g}, {seq[-1]:.6g}; turnover radius "
                f"e^(alpha/eta) = e^{alpha / eta:.0f})")
    if report.beta_estimate != 0.0:
        failures.append(f"index estimate {report.beta_estimate}, expected 0")
    _finish(f"4[alpha={alpha}]",
            "r^eta * hbar(r) increasing along 10^1..10^8, index estimate 0",
            failures, time.monotonic() - t0, 2.0)


def test_criterion_5_upper_function_classification():
    failures = []
    t0 = time.monotonic()
    table = [
        (EnvelopeSpec("power", beta=2.0), 0.5, False),
        (EnvelopeSpec("power", beta=2.0), 1.0, False),
        (EnvelopeSpec("power", beta=2.0), 1.5, False),
        (EnvelopeSpec("exponential", c=1.0), 1.5, True),
        (EnvelopeSpec("exponential", c=1.0), 0.8, False),
        (EnvelopeSpec("power_exponential", c=1.0, beta=2.0), 0.8, True),
    ]
    for env, alpha, expect in table:
        try:
            res = upper_function_integral(env, KAlphaParams(alpha))
        except Exception as exc:   # consistency error would exit 4 in the CLI
            failures.append(f"{env.describe()} alpha={alpha}: {exc}")
            continue
        if res.convergent != expect:
            failures.append(f"{env.describe()} alpha={alpha}: "
                            f"convergent={res.convergent}, expected {expect}")
    # the classify command runs the same cross-checks; any disagreement
    # between analytic and quadrature routes surfaces as exit code 4
    for alpha in ("0.8", "1.5"):
        rc = cli_main(["classify", "--alpha", alpha, "--betas", "2",
                       "--json", "/dev/null"])
        if rc != EXIT_OK:
            failures.append(f"classify --alpha {alpha} exited {rc}")
    _finish(5, "upper-function classification table, analytic == quadrature",
            failures, time.monotonic() - t0, 30.0)


def test_criterion_6_envelope_behaviour_regression():
    failures = []
    t0 = time.monotonic()
    p = KAlphaParams(1.5)
    power = EnvelopeSpec("power", beta=2.0)
    expo = EnvelopeSpec("exponential", c=1.0)
    power_fracs = {}
    exp_fracs = {}
    for horizon in (10.0, 100.0, 1000.0):
        paths = [simulate_large_jumps(p, horizon, 42, spawn_key=(i,))
                 for i in range(200)]
        power_fracs[horizon] = build_exceedance_report(
            paths, power, burn_in=10.0).exceedance_fraction
        exp_fracs[horizon] = build_exceedance_report(
            paths, expo, burn_in=10.0).last_in_final_half_fraction
    pv = [power_fracs[h] for h in (10.0, 100.0, 1000.0)]
    ev = [exp_fracs[h] for h in (10.0, 100.0, 1000.0)]
    if not all(b >= a for a, b in zip(pv, pv[1:])):
        failures.append(f"power exceedance fraction not nondecreasing: {pv}")
    if not all(b <= a for a, b in zip(ev, ev[1:])):
        failures.append(f"exp last-half fraction not nonincreasing: {ev}")
    if power_fracs != POWER_FRACTIONS:
        failures.append(f"power regression drift: {power_fracs}")
    if exp_fracs != EXP_LAST_HALF_FRACTIONS:
        failures.append(f"exp regression drift: {exp_fracs}")
    _finish(6, "seeded envelope trends across horizons 10/100/1000",
            failures, time.monotonic() - t0, 60.0)


def test_criterion_7_pairing_keystone():
    failures = []
    t0 = time.monotonic()
    p = KAlphaParams(1.5)
    test_functions = [Bump(5.0, 2.0), Gaussian(0.0, 1.0), Gaussian(4.0, 1.5)]
    worst = 0.0
    for seed in range(100):
        path = simulate_large_jumps(p, 10.0, seed)
        for phi in test_functions:
            rel = pair_white_noise(path, phi).rel_err
            worst = max(worst, rel)
            if rel >= 1e-9:
                failures.append(f"seed {seed} {phi.describe()}: rel {rel:.2e}")
    # single-jump analytic case J * phi(1)
    from kalpha.paths import EventPath
    ell = 3.0
    single = EventPath(params=p, horizon=10.0, seed=0,
                       times=np.array([1.0]), signs=np.array([1]),
                       log1p_mags=np.array([ell]))
    for phi in (Gaussian(0.0, 1.0), Bump(1.0, 3.0)):
        got = pair_white_noise(single, phi).value.decode()
        expect = math.expm1(ell) * phi(1.0)
        if abs(got - expect) / abs(expect) >= 1e-12:
            failures.append(f"single jump {phi.describe()}: {got} vs {expect}")
    _finish(7, f"dual pairing algorithms agree (worst rel {worst:.1e})",
            failures, time.monotonic() - t0, 60.0)


def test_criterion_8_laplace_exponent():
    failures = []
    t0 = time.monotonic()
    p = KAlphaParams(1.5)
    if laplace_exponent(0.0, p) != 0.0:
        failures.append("Phi(0) != 0")
    lams = np.linspace(0.0, 10.0, 50)
    vals = [laplace_exponent(float(l), p) for l in lams]
    d1 = np.diff(vals)
    if not np.all(d1 >= 0.0):
        failures.append("not monotone on the 50-point grid")
    if not np.all(np.diff(d1) <= 1e-12):
        failures.append("not concave on the 50-point grid")
    gap = abs(laplace_exponent(1e6, p) - tail_one_sided(1.0, p))
    if gap >= 1e-6:
        failures.append(f"Phi(1e6) off the saturation value by {gap:.2e}")
    _finish(8, "Laplace exponent: zero at 0, monotone concave, saturates",
            failures, time.monotonic() - t0, 30.0)


@pytest.mark.usefixtures("pool_as_asked")
def test_criterion_9_simulate_determinism(tmp_path):
    failures = []
    t0 = time.monotonic()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--alpha", "1.5", "--horizon", "200", "--seed", "42"]
    for out in (a, b):
        if cli_main(args + ["--out", str(out)]) != EXIT_OK:
            failures.append("simulate exited nonzero")
    if a.read_bytes().splitlines()[1:] != b.read_bytes().splitlines()[1:]:
        failures.append("event sections differ between identical runs")
    multi = ["simulate", "--alpha", "1.5", "--horizon", "50", "--seed", "7",
             "--paths", "4"]
    if cli_main(multi + ["--workers", "1",
                         "--out", str(tmp_path / "w1.jsonl")]) != EXIT_OK:
        failures.append("1-worker run failed")
    if cli_main(multi + ["--workers", "4",
                         "--out", str(tmp_path / "w4.jsonl")]) != EXIT_OK:
        failures.append("4-worker run failed")
    for i in range(4):
        one = (tmp_path / f"w1-p{i:03d}.jsonl").read_bytes().splitlines()[1:]
        four = (tmp_path / f"w4-p{i:03d}.jsonl").read_bytes().splitlines()[1:]
        if one != four:
            failures.append(f"path {i} differs between 1 and 4 workers")
    _finish(9, "byte-identical event sections across reruns and worker counts",
            failures, time.monotonic() - t0, 60.0)
