"""Span tracing around hemodelay's public functions, and layer microbenchmarks.

The tracer replaces module attributes with recording wrappers for the
duration of a traced run and restores them afterwards; nothing under src/
changes.  A wrapper is installed under the name the *calling* module uses,
so `hemodelay.cli.integrate` and `hemodelay.switch.theta` are traced where
those modules call them.  Spans are kept in flat arrays (name id, start,
end, parent) and written out when the run ends; a layer's self time is the
sum over its spans of duration minus the time covered by direct children.

`model.rhs` is deliberately not wrapped: it runs four times per RK4 step, so
a per-call span would dominate what it measures.  Its cost comes from the
microbenchmark and its count from the step counts (4*steps + 1 per run).
"""

from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (module attribute path, span name); span names are "<layer>.<function>"
CLI_TARGETS = (
    ("cli.integrate", "dde.integrate"),
    ("cli.positive_equilibrium", "equilibria.positive_equilibrium"),
    ("cli.linearize", "linearization.linearize"),
    ("cli.char_coeffs", "linearization.char_coeffs"),
    ("cli.positive_root_intervals", "switch.positive_root_intervals"),
    ("cli.run_scan", "switch.scan"),
    ("cli.classify_asymptotics", "dde.classify_asymptotics"),
    ("cli.detect_period", "dde.detect_period"),
    ("cli.parse_config", "config.parse_config"),
)
SWITCH_TARGETS = (
    ("switch.positive_equilibrium", "equilibria.positive_equilibrium"),
    ("switch.linearize", "linearization.linearize"),
    ("switch.char_coeffs", "linearization.char_coeffs"),
    ("switch.real_cubic_roots", "cubic.real_cubic_roots"),
    ("switch.theta", "switch.theta"),
    ("switch.sn_value", "switch.sn_value"),
)
# functions the benchmark itself calls in the in-process workloads
API_SPANS = {
    "tau_max": "equilibria.tau_max",
    "positive_equilibrium": "equilibria.positive_equilibrium",
    "linearize": "linearization.linearize",
    "char_coeffs": "linearization.char_coeffs",
    "positive_root_intervals": "switch.positive_root_intervals",
    "scan": "switch.scan",
    "integrate": "dde.integrate",
    "classify_asymptotics": "dde.classify_asymptotics",
    "detect_period": "dde.detect_period",
    "parse_config": "config.parse_config",
}
ANALYTIC_LAYERS = ("equilibria", "linearization", "cubic", "switch")


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._eq_points: set[tuple] = set()  # (params, tau) solved in this pass
        self.distinct_points = 0  # summed over passes, see end_pass
        self.steps = 0
        self.integrations = 0
        self.crossings = 0
        self.refined = 0
        self.reads = 0  # calls of Trajectory.state, counted without spans

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        on_return = {
            "equilibria.positive_equilibrium": self._on_solve,
            "dde.integrate": self._on_integrate,
            "switch.scan": self._on_scan,
        }.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _on_solve(self, args, _result) -> None:
        self._eq_points.add((args[0], args[1]))

    def end_pass(self) -> None:
        """Count the distinct (params, tau) points solved in the pass just run."""
        self.distinct_points += len(self._eq_points)
        self._eq_points.clear()

    def _on_integrate(self, _args, traj) -> None:
        self.steps += len(traj.times) - 1
        self.integrations += 1

    def _on_scan(self, _args, result) -> None:
        self.crossings += len(result.reports)
        self.refined += sum(1 for r in result.reports if r.refined)

    def _count_reads(self, state):
        def counted(traj, t):
            self.reads += 1
            return state(traj, t)

        return counted

    @contextmanager
    def installed(self, hd):
        """Patch hemodelay.cli, hemodelay.switch and Trajectory.state for the `with` body."""
        saved = []
        try:
            traj_cls = hd.dde.Trajectory
            saved.append((traj_cls, "state", traj_cls.state))
            traj_cls.state = self._count_reads(traj_cls.state)
            for path, name in CLI_TARGETS + SWITCH_TARGETS:
                mod_name, attr = path.split(".")
                mod = getattr(hd, mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        incl = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for i in range(n):
            name = self.names[self.name_id[i]]
            d = self.end[i] - self.start[i]
            incl[name] += d
            own[name] += d - child[i]
            calls[name] += 1
        return incl, own, calls

    def write(self, path: Path) -> None:
        """One CSV line per span: its index, parent index, name id, start and
        duration in microseconds from the first span; names on the first line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with path.open("w") as f:
            f.write("# names: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            f.write("span,parent,name,start_us,dur_us\n")
            for i in range(len(self.start)):
                s = self.start[i]
                f.write(
                    f"{i},{self.parent[i]},{self.name_id[i]},"
                    f"{(s - t0) * 1e6:.3f},{(self.end[i] - s) * 1e6:.3f}\n"
                )


def layer_metrics(tr: Tracer, items: int, root: str) -> dict[str, float]:
    """Per-item layer metrics from the spans of `items` traced items.

    `root` names the span that encloses one item; its total is the traced
    wall time the shares are taken of.
    """
    incl, own, calls = tr.totals()

    def layer_self(layer: str) -> float:
        return sum(v for k, v in own.items() if k.split(".")[0] == layer)

    def per_item(v: float) -> float:
        return v / items

    wall = incl.get(root, 0.0)
    solves = calls.get("equilibria.positive_equilibrium", 0)
    distinct = tr.distinct_points
    integrate_s = incl.get("dde.integrate", 0.0)
    read_s = incl.get("dde.dense_read", 0.0)
    parses = calls.get("config.parse_config", 0)
    return {
        "model.rhs_calls": per_item(4 * tr.steps + tr.integrations),
        "equilibria.solves": per_item(solves),
        "equilibria.self_s": per_item(layer_self("equilibria")),
        "equilibria.solves_per_grid_point": solves / distinct if distinct else 0.0,
        "linearization.calls": per_item(
            calls.get("linearization.linearize", 0) + calls.get("linearization.char_coeffs", 0)
        ),
        "linearization.self_s": per_item(layer_self("linearization")),
        "cubic.calls": per_item(calls.get("cubic.real_cubic_roots", 0)),
        "cubic.self_s": per_item(layer_self("cubic")),
        "switch.scan_s": per_item(incl.get("switch.scan", 0.0)),
        "switch.root_intervals_s": per_item(incl.get("switch.positive_root_intervals", 0.0)),
        "switch.sn_evals": per_item(calls.get("switch.sn_value", 0)),
        "switch.refined_ratio": tr.refined / tr.crossings if tr.crossings else 1.0,
        "switch.self_s": per_item(layer_self("switch")),
        "dde.integrate_s": per_item(integrate_s),
        "dde.steps": per_item(tr.steps),
        "dde.steps_per_s": tr.steps / integrate_s if integrate_s else 0.0,
        "dde.postprocess_s": per_item(
            incl.get("dde.classify_asymptotics", 0.0) + incl.get("dde.detect_period", 0.0)
        ),
        "dde.dense_reads": per_item(tr.reads),
        "dde.integrate_share": integrate_s / wall if wall else 0.0,
        "dde.dense_read_share": read_s / wall if wall else 0.0,
        "analytic.self_share": sum(map(layer_self, ANALYTIC_LAYERS)) / wall if wall else 0.0,
        "config.parse_s": incl.get("config.parse_config", 0.0) / parses if parses else 0.0,
        "cli.self_s": per_item(layer_self("cli")),
        "trace.spans": per_item(len(tr.start)),
    }


def _per_call(fn, repeat: int = 7, min_time: float = 0.02) -> float:
    """Median seconds per call over `repeat` timed loops, after a warm-up."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_time:
            break
        number *= 2
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def microbenchmarks(hd) -> dict[str, float]:
    """Per-call cost of the layer kernels at the reference inputs, tau = 1.4."""
    p = hd.default_params(1.4)
    eq = hd.positive_equilibrium(p, 1.4)
    state = eq.state
    cc = hd.char_coeffs(hd.linearize(p, eq, 1.4), p.mu, p.k)
    omega = hd.positive_roots_h(cc)[0].omega
    traj = hd.integrate(p, hd.scaled_equilibrium_history(eq, 1.1), 100.0)
    reads = [0.37 + 9.91 * i for i in range(10)]

    def dense_batch():
        for t in reads:
            traj.state(t)

    return {
        "model.rhs_ns": 1e9 * _per_call(lambda: hd.rhs(state, state, p)),
        "equilibria.solve_us": 1e6 * _per_call(lambda: hd.positive_equilibrium(p, 1.4)),
        "cubic.roots_ns": 1e9 * _per_call(lambda: hd.real_cubic_roots(cc.b1, cc.b2, cc.b3)),
        "switch.theta_ns": 1e9 * _per_call(lambda: hd.theta(cc, omega)),
        "dde.dense_read_us": 1e6 * _per_call(dense_batch) / len(reads),
    }
