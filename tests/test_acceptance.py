"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single [n] PASS/FAIL line
(collected again in the terminal summary).  Criteria 1-6 are the table that
`hemodelay reproduce` evaluates, `cli._CRITERIA`, which holds their
reference bands; here it reads the `reproduction` fixture, the same
quantities computed through library calls on the CLI's delay grid and run
windows, and each criterion also bounds the wall time of those calls.
Criteria 2 and 3 fail on the shipped parameter set: the near-threshold
equilibrium keeps an E gap of order 10 from the trivial state, and the root
window closes near 2.909.  Both are left failing rather than weakened; the
remaining criteria pass.
"""

import math
import random
import time

import pytest

from hemodelay import cli

import checks


def gate(num: int, name: str, reproduction, limit: float | None = None) -> bool:
    """Record criterion `num`, cli._CRITERIA[name], with its calls' wall time
    under `limit` seconds when one is given."""
    quantities, walls = reproduction
    passed, detail = cli._CRITERIA[name](quantities)
    if limit is not None:
        passed = passed and walls[name] < limit
        detail += f"; {walls[name]:.3g} s (limit {limit:g} s)"
    return checks.record(num, passed, detail)


def test_criterion_1_existence_threshold(reproduction):
    assert gate(1, "existence_threshold", reproduction, 1e-3)


def test_criterion_2_trivial_equilibrium_limit(reproduction):
    assert gate(2, "trivial_limit", reproduction, 10e-3)


def test_criterion_3_root_existence_window(reproduction):
    assert gate(3, "root_window", reproduction, 1.0)


def test_criterion_4_stability_switches(reproduction):
    assert gate(4, "stability_switches", reproduction, 10.0)


def test_criterion_5_regime_reproduction(reproduction):
    assert gate(5, "regimes", reproduction, 30.0)


def test_criterion_6_long_period_oscillations(reproduction):
    assert gate(6, "oscillation_periods", reproduction)


@pytest.mark.parametrize("tau", [1.4, 2.8])
def test_simulated_period_matches_hopf_frequency(scan_result, standard_runs, tau):
    # the integrator against the analysis: near a switch the oscillation is
    # born at omega*, so the simulated period lies close to 2*pi/omega*
    # (94.39 against 92.39 d at 1.4, 217.52 against 215.36 d at 2.8)
    est = standard_runs[tau].period
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
