"""Workload inputs, items and correctness checks.

Every workload draws its inputs from `--seed` and hands the package only
those inputs.  The random parts are drawn from fixed, finite pools (256
parameter sets, 260 delays) whose outputs were recorded in reference.json
from the package as it stood when the benchmark was added, so every item of
every seed is checked against a recorded answer, not only against itself.

  reproduce      `hemodelay reproduce` on the packaged config, as a
                 subprocess; the seed does not change its input.
  stability_map  the reference set plus ENSEMBLE sets from a +-20% box
                 around it (r in [5, 9]): tau_max, the 0.005-grid
                 equilibrium/linearization/char_coeffs chain,
                 positive_root_intervals and scan(n_max=1).
  sweep_dense    tau = 0 plus one delay from each of SWEEP_STRATA strata of
                 [0.40, 2.98]: integrate with the sweep defaults, classify,
                 detect_period, then READS dense reads Trajectory.state(t).

READS is sized from a measurement, not from a known caller (nothing in the
package reads a trajectory back).  On the code the benchmark was written
against, one integration takes 0.35-0.76 s (24000 steps), and at 20000 reads
a delay spent 14-23% of its time reading, too little for a slower read path
to cross the 0.25 bound.  At 96000 reads, four per mesh step, the read-back
span is about half of an item (dde.dense_read_share), and calling
`interpolate` twice per read raised item_p50_s by 15-39% (three seeds).

Delays below 0.40 are left out of the sweep pool because there the step is
tau/ceil(tau/0.05), which reaches 1200/tau steps for tau < 0.05; a per-seed
draw from that range would make the run cost depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from tracing import API_SPANS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).with_name("reference.json")

GRID_STEP = 0.005          # the CLI's default tau grid
POOL_SIZE = 256            # stability_map pool; index 0 is the reference set
ENSEMBLE = 47              # pool members drawn per run, besides the reference set
CROSS_CHECK_TAUS = 4       # closed-form equilibrium checks per member
SWEEP_POOL = tuple(round(0.01 * i, 2) for i in range(40, 299))  # 0.40 .. 2.98
SWEEP_STRATA = 6
SWEEP_T_END, SWEEP_TRANSIENT, SWEEP_MAX_STEP = 1200.0, 400.0, 0.05  # `sweep` defaults
READS = 96000              # dense reads per delay, of which MESH_READS at mesh times
MESH_READS = 200
OFF_MESH = 10              # recorded reads per delay at times between mesh points
SIM_STRIDE = 1000          # reproduce simulation CSVs: rows kept in the reference
ANALYTIC_CSVS = (
    "equilibria.csv", "coeffs.csv", "s0_curve.csv", "s1_curve.csv",
    "switches.csv", "partition.csv",
)
SIM_CSVS = ("sim_tau0.5.csv", "sim_tau1.4.csv", "sim_tau2.8.csv", "sim_tau2.9.csv")


@dataclass
class Item:
    """One measured item: wall, CPU and calibrated seconds, and what its check found."""

    wall: float
    cpu: float
    cal: float
    errors: list[str] = field(default_factory=list)
    rss_mb: float = 0.0


# --- calibration ----------------------------------------------------------------
#
# The machine this benchmark was written on is a shared 2-vCPU VM whose CPU
# speed drifts by 30-50% over tens of seconds (other tenants); CPU time drifts
# with it.  Every timing that enters a metric is therefore CPU time scaled by
# K_REF over the CPU time of a fixed pure-Python kernel run next to it on the
# same CPU: "reference seconds".  The kernel shares no code with hemodelay, so
# a change to the package moves the scaled figures exactly as it moves the
# raw ones.  Raw wall and CPU times stay in the report.

K_REF = 0.0065        # kernel CPU seconds at the reference speed
SAMPLE_EVERY = 0.2    # seconds between kernel runs while a child process runs


def kernel_cpu() -> float:
    """CPU seconds of one run of the calibration kernel."""
    c0 = time.process_time()
    s = 0
    for i in range(100_000):
        s += i * i
    return time.process_time() - c0


class Clock:
    """Turns CPU seconds into reference seconds with kernel runs around them."""

    def __init__(self) -> None:
        self.last = kernel_cpu()

    def scale(self, samples: list[float] = ()) -> float:
        """K_REF over the mean kernel time since the previous call, this one included."""
        now = kernel_cpu()
        k = statistics.fmean([self.last, *samples, now])
        self.last = now
        return K_REF / k


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the kernel measures."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fresh_import():
    """Import hemodelay (and its CLI) from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "hemodelay" or m.startswith("hemodelay.")]:
        del sys.modules[name]
    hd = importlib.import_module("hemodelay")
    importlib.import_module("hemodelay.cli")
    return hd


def api(hd, tracer=None) -> SimpleNamespace:
    """The public functions the in-process workloads call, traced or not."""
    fns = {name: getattr(hd, name) for name in API_SPANS}
    if tracer is not None:
        fns = {name: tracer.wrap(API_SPANS[name], fn) for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def tau_grid(tm: float) -> list[float]:
    """The 0.005 grid on [0, tau_max), built as the CLI builds it."""
    grid = [i * GRID_STEP for i in range(math.ceil(tm / GRID_STEP))]
    while grid and grid[-1] >= tm:
        grid.pop()
    return grid


# --- inputs -----------------------------------------------------------------

def member_params(hd, ref, index: int):
    """Pool member `index`: every scalar scaled by U(0.8, 1.2), r ~ U(5, 9)."""
    if index == 0:
        return replace(ref, tau=0.0)
    rng = random.Random(f"stability_map/member/{index}")
    r = ref.rates
    u = lambda: rng.uniform(0.8, 1.2)  # noqa: E731
    rates = hd.HillRates(
        beta0=r.beta0 * u(), G=r.G * u(), a=r.a * u(), K=r.K * u(), r=rng.uniform(5.0, 9.0)
    )
    return hd.ModelParams(
        delta=ref.delta * u(), gamma=ref.gamma * u(), tau=0.0,
        mu=ref.mu * u(), k=ref.k * u(), rates=rates,
    )


def stability_inputs(hd, ref, seed: int, ensemble: int = ENSEMBLE) -> list[dict]:
    rng = random.Random(f"stability_map/{seed}")
    indices = [0] + rng.sample(range(1, POOL_SIZE), ensemble)
    return [
        {
            "index": i,
            "params": member_params(hd, ref, i),
            "cross_check": [rng.random() for _ in range(CROSS_CHECK_TAUS)],
        }
        for i in indices
    ]


def sweep_inputs(seed: int, strata: int = SWEEP_STRATA, reads: int = READS) -> list[dict]:
    rng = random.Random(f"sweep_dense/{seed}")
    size = len(SWEEP_POOL)
    taus = [0.0] + [
        SWEEP_POOL[rng.randrange(s * size // strata, (s + 1) * size // strata)]
        for s in range(strata)
    ]
    return [
        {
            "tau": tau,
            "reads": [-tau + rng.random() * (SWEEP_T_END + tau) for _ in range(reads - MESH_READS)],
            "mesh": [rng.random() for _ in range(MESH_READS)],
        }
        for tau in taus
    ]


def setup(workload: str, seed: int, scale: float = 1.0):
    """Import, parse the packaged config and generate the run's inputs.

    `scale` shrinks the input sets for the harness self-test.
    """
    hd = fresh_import()
    ref, _opts = hd.parse_config(hd.default_config_path())
    if workload == "stability_map":
        inputs = stability_inputs(hd, ref, seed, max(1, round(ENSEMBLE * scale)))
    elif workload == "sweep_dense":
        inputs = sweep_inputs(
            seed, max(1, round(SWEEP_STRATA * scale)), max(2 * MESH_READS, round(READS * scale))
        )
    else:
        inputs = []
    return SimpleNamespace(hd=hd, ref=ref, inputs=inputs, workload=workload, clock=None)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# --- reproduce ----------------------------------------------------------------

def reproduce_out() -> Path:
    return OUT / "reproduce"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], clock: Clock) -> dict:
    """Run `python args...` to the end, sampling the kernel while it runs.

    Returns its exit code, output, wall seconds, CPU seconds (user + system),
    reference seconds and peak RSS in MB.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    log = OUT / "child.out"
    samples = []
    with log.open("w") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(), stdout=f, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(SAMPLE_EVERY)
                samples.append(kernel_cpu())
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    cpu = ru.ru_utime + ru.ru_stime
    return {
        "code": proc.returncode, "out": log.read_text(), "wall": wall, "cpu": cpu,
        "cal": cpu * clock.scale(samples), "rss_mb": ru.ru_maxrss / 1024.0,
    }


def reproduce_setup(clock: Clock) -> float:
    """Interpreter start-up plus `import hemodelay.cli` in a child, in reference seconds."""
    child = run_child(["-c", "import hemodelay.cli"], clock)
    if child["code"] != 0:
        raise RuntimeError("hemodelay.cli does not import: " + child["out"])
    return child["cal"]


def reproduce_item(ctx, tracer=None, in_process: bool = False) -> Item:
    """One `hemodelay reproduce`, as a subprocess or through cli.main."""
    out_dir = reproduce_out()
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["reproduce", "--out-dir", str(out_dir)]
    if in_process:
        main = ctx.hd.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        buf = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        child = {"code": code, "out": buf.getvalue(), "wall": wall, "cpu": cpu,
                 "cal": cpu * ctx.clock.scale(), "rss_mb": 0.0}
    else:
        child = run_child(["-m", "hemodelay", *argv], ctx.clock)
    errors = check_reproduce(ctx.reference["reproduce"], child["code"], child["out"], out_dir)
    return Item(child["wall"], child["cpu"], child["cal"], errors, child["rss_mb"])


def reproduce_record(code: int, stdout: str, out_dir: Path) -> dict:
    """What check_reproduce compares: exit code, check lines, CSV digests."""
    checks = {}
    for line in stdout.splitlines():
        if line.startswith("[PASS] ") or line.startswith("[FAIL] "):
            checks[line[7:].split(":", 1)[0]] = line[1:5]
    sims = {}
    for name in SIM_CSVS:
        lines = (out_dir / name).read_text().splitlines()
        sims[name] = {
            "rows": len(lines) - 1,
            "sample": [[float(v) for v in lines[i].split(",")] for i in range(1, len(lines), SIM_STRIDE)]
            + [[float(v) for v in lines[-1].split(",")]],
        }
    return {
        "exit_code": code,
        "checks": checks,
        "analytic_sha256": {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in ANALYTIC_CSVS},
        "simulations": sims,
    }


def check_reproduce(ref: dict, code: int, stdout: str, out_dir: Path) -> list[str]:
    try:
        got = reproduce_record(code, stdout, out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"reproduce outputs unreadable: {exc}"]
    errors = []
    if got["exit_code"] != ref["exit_code"]:
        errors.append(f"exit code {got['exit_code']}, expected {ref['exit_code']}")
    if got["checks"] != ref["checks"]:
        errors.append(f"checks {got['checks']}, expected {ref['checks']}")
    for name, digest in ref["analytic_sha256"].items():
        if got["analytic_sha256"][name] != digest:
            errors.append(f"{name} differs from the recorded bytes")
    for name, sim in ref["simulations"].items():
        g = got["simulations"][name]
        if g["rows"] != sim["rows"] or len(g["sample"]) != len(sim["sample"]):
            errors.append(f"{name}: {g['rows']} rows, expected {sim['rows']}")
            continue
        bad = sum(
            1 for a_row, b_row in zip(g["sample"], sim["sample"])
            for a, b in zip(a_row, b_row) if not close(a, b, 1e-12)
        )
        if bad:
            errors.append(f"{name}: {bad} sampled values off by more than 1e-12 relative")
    return errors


# --- stability_map --------------------------------------------------------------

def map_member(fn, p) -> dict:
    """The analytic stages of `reproduce` for one parameter set."""
    tm = fn.tau_max(p)
    grid = tau_grid(tm)
    eqs = []
    for t in grid:
        eq = fn.positive_equilibrium(p, t)
        fn.char_coeffs(fn.linearize(p, eq, t), p.mu, p.k)
        eqs.append(eq)
    intervals = fn.positive_root_intervals(p, grid)
    result = fn.scan(p, grid, 1)
    return {"tau_max": tm, "grid": grid, "eqs": eqs, "intervals": intervals, "scan": result}


def member_record(out: dict) -> dict:
    return {
        "tau_max": out["tau_max"],
        "intervals": [list(iv) for iv in out["intervals"]],
        "crossings": [[r.tau_star, r.direction] for r in out["scan"].reports],
    }


def check_member(hd, ref: dict, member: dict, out: dict) -> list[str]:
    tag = f"member {member['index']}"
    errors = []
    got = member_record(out)
    if not close(got["tau_max"], ref["tau_max"], 1e-12):
        errors.append(f"{tag}: tau_max {got['tau_max']!r}, expected {ref['tau_max']!r}")
    if len(got["intervals"]) != len(ref["intervals"]) or not all(
        abs(a - b) <= 1e-8 for g, r in zip(got["intervals"], ref["intervals"]) for a, b in zip(g, r)
    ):
        errors.append(f"{tag}: root intervals {got['intervals']}, expected {ref['intervals']}")
    if len(got["crossings"]) != len(ref["crossings"]) or not all(
        abs(g[0] - r[0]) <= 1e-8 and g[1] == r[1] for g, r in zip(got["crossings"], ref["crossings"])
    ):
        errors.append(f"{tag}: crossings {got['crossings']}, expected {ref['crossings']}")
    for r in out["scan"].reports:
        if not (r.refined and r.residual < 1e-8):
            errors.append(f"{tag}: crossing at {r.tau_star!r} refined={r.refined} residual={r.residual:.2e}")
    p, grid = member["params"], out["grid"]
    for u in member["cross_check"]:
        i = int(u * len(grid))
        eq, closed = out["eqs"][i], hd.hill_equilibrium_closed_form(p, grid[i])
        if not all(close(a, b, 1e-9) for a, b in zip((eq.Q, eq.M, eq.E), (closed.Q, closed.M, closed.E))):
            errors.append(f"{tag}: equilibrium at tau={grid[i]!r} is {eq}, closed form {closed}")
    return errors


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def timed_item(ctx, tag: str, compute, check, tracer=None) -> Item:
    """Time `compute()` as one item, then check its output outside the timing."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with _span(tracer, "bench.item"):
            out = compute()
    except Exception as exc:  # a failed item is counted, the run goes on
        out, errors = None, [f"{tag}: {exc!r}"]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    cal = cpu * ctx.clock.scale()
    return Item(wall, cpu, cal, errors if out is None else check(out))


def stability_item(ctx, fn, member: dict, tracer=None) -> Item:
    ref = ctx.reference["stability_map"][member["index"]]
    return timed_item(
        ctx, f"member {member['index']}",
        lambda: map_member(fn, member["params"]),
        lambda out: check_member(ctx.hd, ref, member, out),
        tracer,
    )


# --- sweep_dense ----------------------------------------------------------------

def simulate_delay(hd, fn, ref, delay: dict, tracer=None, off_mesh=()) -> dict:
    """Integrate, classify and read back one delay, as `sweep` does.

    `off_mesh` are the recorded times between mesh points, read with the rest.
    """
    tau = delay["tau"]
    p = replace(ref, tau=tau)
    eq = fn.positive_equilibrium(p, tau) or hd.trivial_equilibrium(p)
    traj = fn.integrate(p, hd.scaled_equilibrium_history(eq, 1.1), SWEEP_T_END, max_step=SWEEP_MAX_STEP)
    verdict = fn.classify_asymptotics(traj, eq, SWEEP_TRANSIENT)
    period = fn.detect_period(traj, "Q", SWEEP_TRANSIENT)
    with _span(tracer, "dde.dense_read"):
        read, last = traj.state, len(traj.times) - 1
        values = [read(t) for t in delay["reads"]]
        mesh = [int(u * last) for u in delay["mesh"]]
        mesh_values = [traj.state(traj.times[i]) for i in mesh]
        off_values = [traj.state(t) for t in off_mesh]
    return {
        "traj": traj, "verdict": verdict, "period": period,
        "values": values, "mesh": mesh, "mesh_values": mesh_values, "off_values": off_values,
    }


def off_mesh_times(traj) -> list[float]:
    """OFF_MESH times spread over the run, each a different fraction of a step
    (0.13 to 0.85) past a mesh point, where the Hermite weights are all nonzero."""
    last = len(traj.times) - 1
    times = []
    for k in range(OFF_MESH):
        i = (2 * k + 1) * last // (2 * OFF_MESH)
        times.append(traj.times[i] + (0.13 + 0.08 * k) * (traj.times[i + 1] - traj.times[i]))
    return times


def delay_record(out: dict) -> dict:
    """Verdict and period, and the state at the off-mesh times of the run."""
    period, traj = out["period"], out["traj"]
    return {
        "verdict": out["verdict"],
        "period": None if period is None else period.period,
        "off_mesh": [[t, *traj.state(t)] for t in off_mesh_times(traj)],
    }


def check_delay(ref: dict, tau: float, out: dict) -> list[str]:
    tag = f"tau={tau!r}"
    errors = []
    period = out["period"]
    got = {"verdict": out["verdict"], "period": None if period is None else period.period}
    if got["verdict"] != ref["verdict"]:
        errors.append(f"{tag}: verdict {got['verdict']}, expected {ref['verdict']}")
    if (got["period"] is None) != (ref["period"] is None) or (
        got["period"] is not None and not close(got["period"], ref["period"], 1e-6)
    ):
        errors.append(f"{tag}: period {got['period']!r}, expected {ref['period']!r}")
    states = out["traj"].states
    off = sum(
        1 for i, v in zip(out["mesh"], out["mesh_values"])
        if not all(close(a, b, 1e-12) for a, b in zip(v, states[i]))
    )
    if off:
        errors.append(f"{tag}: {off} reads at mesh times differ from the stored mesh state")
    off = sum(
        1 for v, row in zip(out["off_values"], ref["off_mesh"])
        if not all(close(a, b, 1e-12) for a, b in zip(v, row[1:]))
    )
    if off or len(out["off_values"]) != len(ref["off_mesh"]):
        errors.append(f"{tag}: {off} of {len(ref['off_mesh'])} reads between mesh points differ from the record")
    if not all(math.isfinite(x) and x >= -1e-6 for v in out["values"] for x in v):
        errors.append(f"{tag}: a dense read is not finite and nonnegative")
    return errors


def sweep_item(ctx, fn, delay: dict, tracer=None) -> Item:
    tau = delay["tau"]
    ref = ctx.reference["sweep_dense"][repr(tau)]
    off_mesh = [row[0] for row in ref["off_mesh"]]
    return timed_item(
        ctx, f"tau={tau!r}",
        lambda: simulate_delay(ctx.hd, fn, ctx.ref, delay, tracer, off_mesh),
        lambda out: check_delay(ref, tau, out),
        tracer,
    )


# --- one pass over a workload's inputs --------------------------------------------

def iteration(ctx, tracer=None, in_process: bool = False, inputs=None) -> list[Item]:
    """Run every input of the workload (or `inputs`) once, one after the other."""
    if ctx.workload == "reproduce":
        return [reproduce_item(ctx, tracer, in_process)]
    fn = api(ctx.hd, tracer)
    item = stability_item if ctx.workload == "stability_map" else sweep_item
    return [item(ctx, fn, inp, tracer) for inp in (ctx.inputs if inputs is None else inputs)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
