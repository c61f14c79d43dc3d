"""hemodelay benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Load is a closed loop with one client: each item starts only after the
previous one has finished, in this one process (reproduce spawns one child
per item and waits for it).  The run repeats whole passes over the seeded
inputs until --seconds have elapsed, at least one pass.

--trace 0 measures the end-to-end metrics with tracing off, in reference
seconds (CPU time scaled by a calibration kernel, see workloads.py).  --trace 1 runs
the same inputs in-process, alternating untraced and traced passes, and
reports the per-layer metrics (see perfbench/README.md).  Either way the
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The full report, with the environment block, is printed on the line before
and written to .bench_out/ together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wl

WORKLOADS = ("reproduce", "stability_map", "sweep_dense")
SETUP_REPEATS = 5


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten beyond it, and its percentile.

    With ten samples or fewer no sample qualifies; the maximum is returned
    with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def loadavg_1m() -> float | None:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def environment(seed: int) -> dict:
    commit = None
    if (wl.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "hemodelay").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "loadavg_1m_start": loadavg_1m(),
    }


def timed_setup(workload: str, seed: int, scale: float):
    """Set up SETUP_REPEATS times: the median set-up time, the last context."""
    clock = wl.Clock()
    if workload == "reproduce":
        times = [wl.reproduce_setup(clock) for _ in range(SETUP_REPEATS)]
        ctx = wl.setup(workload, seed, scale)
    else:
        times = []
        for _ in range(SETUP_REPEATS):
            c0 = time.process_time()
            ctx = wl.setup(workload, seed, scale)
            times.append((time.process_time() - c0) * clock.scale())
    ctx.clock = clock
    ctx.reference = wl.load_reference()
    return statistics.median(times), ctx


def measure(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Untraced closed loop: the end-to-end metrics, in reference seconds."""
    setup_s, ctx = timed_setup(workload, seed, scale)
    gc.collect()
    passes, items = [], []
    start = time.perf_counter()
    while True:
        batch = wl.iteration(ctx)
        items += batch
        passes.append(batch)
        if time.perf_counter() - start >= seconds:
            break

    def summary(attr: str) -> dict:
        # latency per input is its median over the passes, so the tail does
        # not move to another input when a slower run makes fewer passes
        per_input = [statistics.median(getattr(b[k], attr) for b in passes) for k in range(len(passes[0]))]
        tail_s, tail_pct = tail(per_input)
        return {
            "pass_s": statistics.median(sum(getattr(i, attr) for i in b) for b in passes),
            "items_per_s": len(items) / sum(getattr(i, attr) for i in items),
            "item_p50_s": statistics.median(per_input),
            "item_tail_s": tail_s,
            "item_tail_percentile": tail_pct,
        }

    cal = summary("cal")
    rss = max(i.rss_mb for i in items) if workload == "reproduce" else wl.peak_rss_mb()
    metrics = {
        "setup_s": setup_s,
        "cpu_s": cal["pass_s"],
        "items_per_s": cal["items_per_s"],
        "item_p50_s": cal["item_p50_s"],
        "item_tail_s": cal["item_tail_s"],
        "peak_rss_mb": rss,
    }
    details = {
        "passes": len(passes),
        "item_samples": len(items),
        "inputs": len(passes[0]),
        "item_tail_percentile": cal["item_tail_percentile"],
        "raw_wall": summary("wall"),
        "raw_cpu": summary("cpu"),
        "kernel_cpu_s": ctx.clock.last,
    }
    return {"metrics": metrics, "items": items, "details": details}


def traced(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Alternate untraced and traced in-process passes: the per-layer metrics."""
    _setup_s, ctx = timed_setup(workload, seed, scale)
    hd = ctx.hd
    micro = tracing.microbenchmarks(hd)
    tracer = tracing.Tracer()
    if workload != "reproduce":
        wl.api(hd, tracer).parse_config(hd.default_config_path())
    # one untraced item first, so neither side pays the first-pass page faults
    items = wl.iteration(ctx, None, in_process=True, inputs=ctx.inputs[:1])
    plain, traced_passes, traced_items = [], [], []
    csv_bytes = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        # ABBA order: untraced first on even pairs, traced first on odd ones
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not with_trace:
                batch = wl.iteration(ctx, None, in_process=True)
                plain.append(sum(i.cal for i in batch))
            else:
                with tracer.installed(hd):
                    batch = wl.iteration(ctx, tracer, in_process=True)
                tracer.end_pass()
                traced_passes.append(sum(i.cal for i in batch))
                traced_items += batch
                if workload == "reproduce":
                    csv_bytes += sum(p.stat().st_size for p in wl.reproduce_out().glob("*.csv"))
            items += batch
        if time.perf_counter() - start >= seconds:
            break
    n = len(traced_items)
    root = "cli.main" if workload == "reproduce" else "bench.item"
    metrics = dict(micro)
    metrics.update(tracing.layer_metrics(tracer, n, root))
    metrics["cli.csv_bytes"] = csv_bytes / n
    metrics["trace.overhead_ratio"] = statistics.median(traced_passes) / statistics.median(plain)
    spans = wl.OUT / f"{workload}.spans.csv"
    tracer.write(spans)
    details = {"passes": len(traced_passes), "traced_items": n, "spans_file": str(spans)}
    return {"metrics": metrics, "items": items, "details": details}


def run(workload: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment(seed)
    result = (traced if trace else measure)(workload, seed, seconds, scale)
    env["loadavg_1m_end"] = loadavg_1m()
    items = result["items"]
    failed = [i for i in items if i.errors]
    errors = [e for i in failed for e in i.errors]
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": env,
        "attempted": len(items),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(items),
        "errors": errors[:20],
        "details": result["details"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "hemodelay" / "__init__.py").is_file():
        print(f"no hemodelay sources under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    wl.pin_to_one_cpu()
    report = run(args.workload, args.seed, args.seconds, args.trace)
    wl.OUT.mkdir(parents=True, exist_ok=True)
    out = wl.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {report['fail_ratio']:.6g} ({report['failed']} of {report['attempted']})")
    for e in report["errors"]:
        print(f"error: {e}")
    print("report " + json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
