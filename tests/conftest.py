from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, settings

from hemodelay import (
    default_params,
    positive_equilibrium,
    positive_root_intervals,
    scan,
    tau_max,
    trivial_equilibrium,
)
from hemodelay import cli

import checks

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def default_grid(params):
    return checks.cli_grid(params)


@pytest.fixture(scope="session")
def scan_result(params, default_grid):
    return scan(params, default_grid, 1)


@pytest.fixture(scope="session")
def standard_runs():
    """The four long simulations behind the regime and period claims, in
    `hemodelay reproduce`'s windows."""
    return {tau: checks.run_case(tau, t_end, transient) for tau, t_end, transient in cli._REPRO_RUNS}


@pytest.fixture(scope="session")
def probe_runs():
    """Short-offset runs bracketing each stability switch (0.05 away)."""
    return {tau: checks.run_case(tau, *window) for tau, window in checks.PROBE_WINDOWS.items()}


@pytest.fixture(scope="session")
def reproduction(params, default_grid, standard_runs):
    """What `hemodelay reproduce`'s criteria read, computed through library
    calls on the CLI's delay grid and run windows, and the wall time of each
    criterion's calls by criterion name (for tau_max, the best of 5)."""
    tm = tau_max(params)
    walls = {"existence_threshold": min(checks.timed(tau_max, params)[1] for _ in range(5))}
    near, walls["trivial_limit"] = checks.timed(
        positive_equilibrium, params, tm - cli._NEAR_THRESHOLD
    )
    # the scan goes first, before the root window's calls fill the memos
    result, walls["stability_switches"] = checks.timed(scan, params, default_grid, 1)
    t0 = time.perf_counter()
    coeffs = [checks.coeffs_at(params, t) for t in default_grid]
    intervals = positive_root_intervals(params, default_grid)
    walls["root_window"] = time.perf_counter() - t0
    walls["regimes"] = sum(run.wall for run in standard_runs.values())
    runs = standard_runs.values()
    quantities = cli._Reproduction(
        tm, trivial_equilibrium(params).E, near, coeffs, intervals, result,
        {run.tau: run.verdict for run in runs},
        {run.tau: None if run.period is None else run.period.period for run in runs},
    )
    return quantities, walls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not checks.ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for num, passed, detail in sorted(checks.ACCEPTANCE_LOG):
        terminalreporter.write_line(f"[{num}] {'PASS' if passed else 'FAIL'} {detail}")
