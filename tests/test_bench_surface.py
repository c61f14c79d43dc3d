"""The names perfbench reads from hemodelay still resolve, and its outputs hold.

perfbench/ is the benchmark's own code and changes only with the benchmark,
so a trim of the package must keep every name it imports, calls or patches.
The check runs in a fresh interpreter, as the benchmark imports the package,
and loads perfbench/tracing.py by path without writing anything next to it.
The sweep and stability-map checks repeat, for the inputs nearest their
gates, the benchmark's comparison against perfbench/reference.json, which
they only read; one more runs the benchmark's own sweep check on two delays.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hemodelay
from hemodelay import (
    classify_asymptotics,
    default_params,
    detect_period,
    integrate,
    positive_equilibrium,
    scaled_equilibrium_history,
)

import checks

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
hd = importlib.import_module("hemodelay")
importlib.import_module("hemodelay.cli")

def resolves(obj, path):
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True

names = list(tracing.API_SPANS)
names += [path for path, _ in tracing.CLI_TARGETS + tracing.SWITCH_TARGETS]
names += json.loads(sys.argv[2])
print(json.dumps([n for n in names if not resolves(hd, n)]))
"""

# read by perfbench/workloads.py, run.py, selftest.py and the microbenchmarks
OTHER_NAMES = [
    "HillRates", "ModelParams", "parse_config", "default_config_path", "default_params",
    "hill_equilibrium_closed_form", "trivial_equilibrium", "scaled_equilibrium_history",
    "positive_roots_h", "real_cubic_roots", "theta", "rhs", "cli.main",
    "dde.Trajectory.states", "dde.Trajectory.state", "Equilibrium.state",
]


def child_errors(code: str, *args: str) -> list:
    """What `code` prints as JSON when run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(hemodelay.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_names_read_by_the_benchmark_resolve():
    tracing = ROOT / "perfbench" / "tracing.py"
    assert child_errors(CHILD, str(tracing), json.dumps(OTHER_NAMES)) == []


# sweep-pool delays whose recorded off-mesh states sit nearest the 1e-12
# gate, from 6.4e-13 down to 3.8e-13 relative
THIN_MARGIN_DELAYS = (2.06, 1.85, 2.32, 2.27, 2.31)


@pytest.mark.parametrize("tau", THIN_MARGIN_DELAYS)
def test_sweep_delays_match_the_benchmark_reference(tau):
    # the `sweep` defaults: t_end 1200, transient 400, max_step 0.05,
    # history equilibrium*1.1
    rec = checks.bench_reference()["sweep_dense"][repr(tau)]
    p = default_params(tau=tau)
    eq = positive_equilibrium(p, tau)
    traj = integrate(p, scaled_equilibrium_history(eq, 1.1), 1200.0, max_step=0.05)
    assert classify_asymptotics(traj, eq, 400.0) == rec["verdict"]
    est = detect_period(traj, "Q", 400.0)
    assert (est is None) == (rec["period"] is None)
    if est is not None:
        assert checks.rel_close(est.period, rec["period"], 1e-6)
    for t, *want in rec["off_mesh"]:
        assert all(checks.rel_close(a, b, 1e-12) for a, b in zip(traj.state(t), want)), t


MAP_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
hd = workloads.fresh_import()
ref, _ = hd.parse_config(hd.default_config_path())
recorded = workloads.load_reference()["stability_map"]
fn = workloads.api(hd)
errors = []
for i in json.loads(sys.argv[2]):
    member = {"index": i, "params": workloads.member_params(hd, ref, i),
              "cross_check": [0.05, 0.35, 0.65, 0.95]}
    out = workloads.map_member(fn, member["params"])
    errors += workloads.check_member(hd, recorded[i], member, out)
print(json.dumps(errors))
"""

# stability_map pool members: the reference set, the two with no recorded
# crossing, the three whose crossing pairs are closest and the three whose
# last crossing sits nearest the root-window edge
MAP_MEMBERS = [0, 22, 88, 44, 212, 160, 96, 237, 119]


def test_stability_map_members_match_the_benchmark_reference():
    assert child_errors(MAP_CHILD, str(ROOT / "perfbench"), json.dumps(MAP_MEMBERS)) == []


SWEEP_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
hd = workloads.fresh_import()
ref, _ = hd.parse_config(hd.default_config_path())
recorded = workloads.load_reference()["sweep_dense"]
fn = workloads.api(hd)
errors = []
for delay in workloads.sweep_inputs(int(sys.argv[2]), 1, 400):
    rec = recorded[repr(delay["tau"])]
    off_mesh = [row[0] for row in rec["off_mesh"]]
    out = workloads.simulate_delay(hd, fn, ref, delay, off_mesh=off_mesh)
    errors += workloads.check_delay(rec, delay["tau"], out)
print(json.dumps(errors))
"""


def test_sweep_reads_pass_the_benchmark_check():
    # tau = 0 and one pool delay, read back as sweep_dense reads them: the
    # mesh reads against `states`, the recorded off-mesh reads, and every
    # read finite and nonnegative
    assert child_errors(SWEEP_CHILD, str(ROOT / "perfbench"), "3401") == []
