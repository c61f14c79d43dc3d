"""The names perfbench reads from hemodelay still resolve.

perfbench/ is the benchmark's own code and changes only with the benchmark,
so a trim of the package must keep every name it imports, calls or patches.
The check runs in a fresh interpreter, as the benchmark imports the package,
and loads perfbench/tracing.py by path without writing anything next to it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import hemodelay

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


def test_names_read_by_the_benchmark_resolve():
    tracing = ROOT / "perfbench" / "tracing.py"
    env = dict(os.environ, PYTHONPATH=str(Path(hemodelay.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(tracing), json.dumps(OTHER_NAMES)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
