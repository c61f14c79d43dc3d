"""Self-test of the benchmark harness (stdlib unittest, about a minute).

    python3 perfbench/selftest.py

Each workload runs one pass at minimal size, traced and untraced, and must
emit exactly the metrics BENCHMARK.json names and pass its correctness
check.  Input generation must repeat for a seed and change with it, and a
checkout without the package sources must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05  # stability_map: 2 pool members; sweep_dense: one delay besides 0


def spec_metrics(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class WorkloadRuns(unittest.TestCase):
    def check(self, workload: str, trace: int) -> dict:
        report = run.run(workload, 7, 0.0, trace, SCALE)
        self.assertEqual(report["failed"], 0, report["errors"])
        self.assertGreaterEqual(report["attempted"], 1)
        got = {k: m["unit"] for k, m in report["metrics"].items()}
        self.assertEqual(got, spec_metrics("per_layer" if trace else "end_to_end"))
        for name, m in report["metrics"].items():
            self.assertIsInstance(m["value"], float, name)
        for key in ("commit", "python", "nproc", "platform", "seed",
                    "loadavg_1m_start", "loadavg_1m_end"):
            self.assertIn(key, report["environment"])
        return report

    def test_reproduce(self):
        self.check("reproduce", 0)
        layers = self.check("reproduce", 1)["metrics"]
        self.assertGreater(layers["dde.integrate_share"]["value"], 0.5)

    def test_stability_map(self):
        e2e = self.check("stability_map", 0)["metrics"]
        for name in ("setup_s", "cpu_s", "items_per_s", "item_tail_s"):
            self.assertGreater(e2e[name]["value"], 0.0, name)
        layers = self.check("stability_map", 1)["metrics"]
        self.assertEqual(layers["dde.integrate_s"]["value"], 0.0)
        self.assertGreater(layers["analytic.self_share"]["value"], 0.5)

    def test_sweep_dense(self):
        self.check("sweep_dense", 0)
        layers = self.check("sweep_dense", 1)["metrics"]
        self.assertGreater(layers["dde.dense_reads"]["value"], 0.0)
        self.assertGreater(layers["dde.dense_read_share"]["value"], 0.0)

    def test_off_mesh_reads_are_checked(self):
        hd = wl.fresh_import()
        ref, _ = hd.parse_config(hd.default_config_path())
        record = wl.load_reference()["sweep_dense"]["0.4"]
        times = [row[0] for row in record["off_mesh"]]
        out = wl.simulate_delay(hd, wl.api(hd), ref, {"tau": 0.4, "reads": [], "mesh": []}, None, times)
        self.assertEqual(wl.check_delay(record, 0.4, out), [])
        traj = out["traj"]
        # a read path that returns the state at the mesh point to the left
        out["off_values"] = [traj.states[int(t / traj.dt)] for t in times]
        self.assertEqual(len(wl.check_delay(record, 0.4, out)), 1)


class Inputs(unittest.TestCase):
    def test_seed_fixes_inputs(self):
        hd = wl.fresh_import()
        ref, _ = hd.parse_config(hd.default_config_path())
        same = wl.stability_inputs(hd, ref, 3) == wl.stability_inputs(hd, ref, 3)
        self.assertTrue(same)
        self.assertNotEqual(wl.stability_inputs(hd, ref, 3), wl.stability_inputs(hd, ref, 4))
        self.assertEqual(wl.sweep_inputs(3), wl.sweep_inputs(3))
        self.assertNotEqual(wl.sweep_inputs(3), wl.sweep_inputs(4))

    def test_inputs_have_references(self):
        ref = wl.load_reference()
        self.assertEqual(len(ref["stability_map"]), wl.POOL_SIZE)
        for tau in (0.0,) + wl.SWEEP_POOL:
            self.assertIn(repr(tau), ref["sweep_dense"])
        for seed in range(20):
            taus = [d["tau"] for d in wl.sweep_inputs(seed)]
            self.assertEqual(taus[0], 0.0)
            self.assertEqual(len(set(taus)), len(taus))

    def test_reference_set_crossings(self):
        crossings = wl.load_reference()["stability_map"][0]["crossings"]
        self.assertEqual(
            [(round(t, 6), d) for t, d in crossings],
            [(1.373422, "destabilizing"), (2.823997, "stabilizing")],
        )


class Harness(unittest.TestCase):
    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        values = [float(i) for i in range(40)]
        self.assertEqual(run.tail(values), (29.0, 75.0))

    def test_self_time(self):
        tr = tracing.Tracer()
        with tr.span("a.outer"):
            with tr.span("b.inner"):
                pass
        incl, own, calls = tr.totals()
        self.assertAlmostEqual(own["a.outer"], incl["a.outer"] - incl["b.inner"])
        self.assertEqual(calls, {"a.outer": 1, "b.inner": 1})

    def test_solves_per_grid_point_is_per_pass(self):
        tr = tracing.Tracer()
        solve = tr.wrap("equilibria.positive_equilibrium", lambda params, tau: None)
        for _ in range(3):  # three passes over the same two points, each solved twice
            with tr.span("bench.item"):
                for tau in (0.0, 0.005, 0.0, 0.005):
                    solve("params", tau)
            tr.end_pass()
        metrics = tracing.layer_metrics(tr, 3, "bench.item")
        self.assertEqual(metrics["equilibria.solves_per_grid_point"], 2.0)
        self.assertEqual(metrics["equilibria.solves"], 4.0)

    def test_fails_without_sources(self):
        bare = wl.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(wl.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "stability_map",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.path.insert(0, str(wl.SRC))
    unittest.main()
