"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single [n] PASS/FAIL line
(collected again in the terminal summary).  Criteria 2 and 3 fail on the
shipped parameter set: the near-threshold equilibrium keeps an E gap of
order 10 from the trivial state, and the root window closes near 2.909.
Both are left failing rather than weakened; the remaining criteria pass.
"""

import math
import random
import time

import pytest

from hemodelay import (
    classify_asymptotics,
    default_params,
    detect_period,
    positive_equilibrium,
    positive_root_intervals,
    scan,
    tau_max,
    trivial_equilibrium,
)

import checks


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_criterion_1_existence_threshold(params):
    best = math.inf
    for _ in range(5):
        tm, wall = timed(tau_max, params)
        best = min(best, wall)
    ok = abs(tm - 2.99) <= 0.01 and best < 1e-3
    assert checks.record(
        1, ok, f"tau_max = {tm:.10f} (band 2.99 +- 0.01), {best * 1e6:.0f} us"
    )


def test_criterion_2_trivial_equilibrium_limit(params):
    f0k = trivial_equilibrium(params).E
    tm = tau_max(params)
    eq, wall = timed(positive_equilibrium, params, tm - 1e-6)
    if eq is None:
        dist = math.inf
    else:
        dist = max(abs(eq.Q), abs(eq.M), abs(eq.E - f0k))
    ok = abs(f0k - 2346.4) <= 0.5 and dist <= 1e-3 and wall < 10e-3
    assert checks.record(
        2,
        ok,
        f"f(0)/k = {f0k:.4f} (band 2346.4 +- 0.5); "
        f"distance at tau_max - 1e-6 = {dist:.4f} (required <= 1e-3); "
        f"{wall * 1e3:.2f} ms",
    )


def test_criterion_3_root_existence_window(params):
    tm = tau_max(params)
    grid = [i * tm / 600 for i in range(600)]
    t0 = time.perf_counter()
    intervals = positive_root_intervals(params, grid)
    signs_ok = True
    for t in grid:
        if t > 2.9:
            continue
        cc = checks.coeffs_at(params, t)
        if not (cc.b2 > 0.0 and cc.b3 < 0.0):
            signs_ok = False
    wall = time.perf_counter() - t0
    window_ok = (
        len(intervals) == 1
        and intervals[0][0] <= 1e-12
        and abs(intervals[0][1] - 2.92) <= 0.01
    )
    ok = window_ok and signs_ok and wall < 1.0
    assert checks.record(
        3,
        ok,
        f"I = {[(round(a, 6), round(b, 6)) for a, b in intervals]} "
        f"(edge band 2.92 +- 0.01); b2>0 and b3<0 on [0, 2.9]: {signs_ok}; "
        f"{wall:.2f} s on 600 points",
    )


def test_criterion_4_stability_switches(params, default_grid):
    result, wall = timed(scan, params, default_grid, 1)
    reports = result.reports
    s1_rootless = not any(r.n >= 1 for r in reports) and all(
        c.roots == () for c in result.curves if c.n == 1
    )
    ok = (
        len(reports) == 2
        and all(r.refined for r in reports)
        and abs(reports[0].tau_star - 1.40) <= 0.05
        and reports[0].direction == "destabilizing"
        and abs(reports[1].tau_star - 2.82) <= 0.02
        and reports[1].direction == "stabilizing"
        and s1_rootless
        and all(r.residual < 1e-8 for r in reports)
        and wall < 10.0
    )
    detail = "; ".join(
        f"tau*={r.tau_star:.6f} ({r.direction}, residual {r.residual:.1e})"
        for r in reports
    )
    assert checks.record(
        4, ok, f"{detail}; S1 rootless: {s1_rootless}; {wall:.2f} s"
    )


def test_criterion_5_regime_reproduction(standard_runs):
    expected = {
        0.5: "converging",
        1.4: "sustained-oscillation",
        2.8: "sustained-oscillation",
        2.9: "converging",
    }
    wall = sum(run.wall for run in standard_runs.values())
    t0 = time.perf_counter()
    verdicts = {
        tau: classify_asymptotics(run.traj, run.eq, run.transient)
        for tau, run in standard_runs.items()
    }
    wall += time.perf_counter() - t0
    ok = verdicts == expected and wall < 30.0
    assert checks.record(5, ok, f"verdicts = {verdicts}; {wall:.1f} s total")


def test_criterion_6_long_period_oscillations(standard_runs):
    est14 = detect_period(standard_runs[1.4].traj, "Q", standard_runs[1.4].transient)
    est28 = detect_period(standard_runs[2.8].traj, "Q", standard_runs[2.8].transient)
    p14 = None if est14 is None else est14.period
    p28 = None if est28 is None else est28.period
    ok = (
        p14 is not None
        and abs(p14 - 100.0) <= 15.0
        and p28 is not None
        and abs(p28 - 220.0) <= 25.0
    )
    assert checks.record(
        6,
        ok,
        f"period(tau=1.4) = {p14 and round(p14, 2)} (band 100 +- 15); "
        f"period(tau=2.8) = {p28 and round(p28, 2)} (band 220 +- 25)",
    )


@pytest.mark.parametrize("tau", [1.4, 2.8])
def test_simulated_period_matches_hopf_frequency(scan_result, standard_runs, tau):
    # the integrator against the analysis: near a switch the oscillation is
    # born at omega*, so the simulated period lies close to 2*pi/omega*
    # (94.39 against 92.39 d at 1.4, 217.52 against 215.36 d at 2.8)
    run = standard_runs[tau]
    est = detect_period(run.traj, "Q", run.transient)
    assert est is not None
    report = min(scan_result.reports, key=lambda r: abs(r.tau_star - tau))
    assert abs(report.tau_star - tau) < 0.05
    ratio = est.period / (2.0 * math.pi / report.omega_star)
    assert abs(ratio - 1.0) <= 0.04, f"period {est.period} at tau {tau}, ratio {ratio}"


def test_criterion_7_property_suite(params, scan_result, standard_runs, probe_runs):
    t0 = time.perf_counter()
    failures = []

    sign_bad = checks.coefficient_sign_violations(params, n_points=200)
    if sign_bad:
        failures.append(f"coefficient signs: {sign_bad[:3]}")

    h_err = checks.h_identity_max_err(params, random.Random(140814), n_samples=100)
    if not h_err < 1e-9:
        failures.append(f"h identity err {h_err:.2e}")

    cubic_err = checks.cubic_oracle_max_err(random.Random(240814), n_triples=300)
    if not cubic_err < 1e-8:
        failures.append(f"cubic oracle err {cubic_err:.2e}")

    rh_bad = checks.rh_oracle_mismatches(random.Random(340814), n_sets=500)
    if rh_bad:
        failures.append(f"{rh_bad} Routh-Hurwitz mismatches")

    slope = checks.rk4_order_slope()
    if not 3.5 <= slope <= 4.5:
        failures.append(f"RK4 slope {slope:.2f}")

    cf_err = checks.closed_form_max_err(params)
    if not cf_err < 1e-9:
        failures.append(f"closed form err {cf_err:.2e}")

    sn_bad = checks.sn_ordering_violations(scan_result)
    if sn_bad:
        failures.append(f"{sn_bad} S_n ordering violations")

    for runs in (standard_runs, probe_runs):
        for tau, run in runs.items():
            bad = checks.bound_violations(run)
            if bad:
                failures.append(f"bounds at tau={tau}: {bad[:2]}")

    wall = time.perf_counter() - t0
    ok = not failures and wall < 60.0
    detail = (
        f"signs, h identity ({h_err:.1e}), cubic oracle ({cubic_err:.1e}), "
        f"Routh-Hurwitz (500 sets), RK4 slope ({slope:.2f}), "
        f"closed form ({cf_err:.1e}), S_n order, bounds; {wall:.1f} s"
    )
    if failures:
        detail = "; ".join(failures) + f"; {wall:.1f} s"
    assert checks.record(7, ok, detail)
