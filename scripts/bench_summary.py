"""Run the benchmark on a parent commit and on HEAD, in alternating pairs, and
write a summary of every end-to-end metric to a JSON file.

Usage:
    python scripts/bench_summary.py --out BENCH_21.json \\
        --workloads stability_map --seeds 301 302 303 --seconds 30

The parent commit (--parent, default HEAD) and HEAD are each extracted with
`git archive` into a directory under --scratch (default: a new temporary
directory), so both sides run `perfbench/run.py` from like checkouts with
identical settings.  The script refuses to start while tracked files differ
from HEAD, since the extract would not hold those changes.  Pair i runs the
parent first when i is even and the change first when i is odd.  Each run's
last stdout line is the benchmark's result; the line before it carries the
environment block.

Before the pairs, each side runs `python -m hemodelay reproduce` once from
its extract into its own directory under --scratch; the file records the
exit code, the manifest's checks and every CSV's sha256 of each side, and
`reproduce_bytes_identical`: both sides wrote the same CSV names with the
same digests.  It also records the child's peak RSS (`ru_maxrss` from
`os.wait4`) and this script's own, which on Linux a spawned child's
`ru_maxrss` cannot read below; the script hashes the CSVs in 1 MB chunks to
keep its own mark under the child's.  That standalone peak is not a
BENCHMARK.json metric.

For each workload and side the file holds the median and quartiles
(statistics.quantiles, n=4, exclusive method) of every end-to-end metric
named in BENCHMARK.json, the raw runs, the pairs the change won (ties
count for neither side), the median, min and max of the per-pair ratio
change/parent (`pair_ratio`; the two runs of a pair share the machine's
drift) and a verdict per metric, together with both
commits, the sha256 of each side's `src/hemodelay`, the line counts of its
`src/hemodelay` and `tests` (in total and per module: `src_lines`,
`src_module_lines`, `tests_lines`, `tests_module_lines`, and the same four
as `*_code_lines`, which leave out blank lines, comment-only lines and
module, class and function docstrings), the seeds, the Python version and
`nproc`.  The verdicts,
with a metric's bound taken relative to the parent's median:
- `gain`: the change won at least 9 in 10 pairs, and the medians differ in
  the better direction by more than the parent's q3 - q1;
- `regression`: the change's median is worse than the parent's by more
  than the bound;
- `unresolved`: the parent's q3 - q1 is wider than the bound, unless every
  run of the change reads better than every run of the parent;
- `within bound` otherwise.
Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines that hold a token other than a comment or a module, class or
    function docstring: blank and comment-only lines and docstrings do not
    count."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def line_counts(tree: Path) -> dict:
    """Raw and code lines (code_lines) in the tree's src/hemodelay/*.py and
    tests/*.py, in total and per file by module name."""
    counts = {}
    for key, directory in (("src", tree / "src" / "hemodelay"), ("tests", tree / "tests")):
        texts = {f.stem: f.read_text() for f in sorted(directory.glob("*.py"))}
        per_file = {name: len(text.splitlines()) for name, text in texts.items()}
        per_file_code = {name: code_lines(text) for name, text in texts.items()}
        counts[f"{key}_lines"] = sum(per_file.values())
        counts[f"{key}_module_lines"] = per_file
        counts[f"{key}_code_lines"] = sum(per_file_code.values())
        counts[f"{key}_module_code_lines"] = per_file_code
    return counts


def max_rss_mb(usage: resource.struct_rusage) -> float:
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def reproduce_record(tree: Path, out_dir: Path) -> dict:
    """One `python -m hemodelay reproduce` from the tree: exit code, checks,
    CSV digests and the child's peak RSS."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hemodelay", "reproduce", "--out-dir", str(out_dir)],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    manifest = out_dir / "manifest.json"
    return {
        "exit_code": proc.returncode,
        "checks": json.loads(manifest.read_text())["checks"] if manifest.exists() else None,
        "csv_sha256": {f.name: sha256_file(f) for f in sorted(out_dir.glob("*.csv"))},
        "child_peak_rss_mb": max_rss_mb(usage),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report "):
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = json.loads(lines[-2][len("report "):])["environment"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "src_sha256": env["src_sha256"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3}
    return out


def pairs_won(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    won = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        won[m["name"]] = sum(
            sign * (p["metrics"][m["name"]] - c["metrics"][m["name"]]) > 0.0
            for p, c in zip(parent, change)
        )
    return won


def pair_ratios(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Median, min and max of change/parent over the pairs, for each metric."""
    out = {}
    for m in metrics:
        name = m["name"]
        ratios = [c["metrics"][name] / p["metrics"][name] for p, c in zip(parent, change)]
        out[name] = {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)}
    return out


def verdicts(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """The verdict on the change for each metric, by the rules above."""
    stats = {"parent": summary(parent, metrics), "change": summary(change, metrics)}
    won = pairs_won(parent, change, metrics)
    out = {}
    for m in metrics:
        name = m["name"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        p, c = stats["parent"][name], stats["change"][name]
        better_by = sign * (p["median"] - c["median"])
        spread, bound = p["q3"] - p["q1"], m["bound"] * abs(p["median"])
        change_beats_all = max(sign * r["metrics"][name] for r in change) < min(
            sign * r["metrics"][name] for r in parent
        )
        if 10 * won[name] >= 9 * len(parent) and better_by > spread:
            out[name] = "gain"
        elif -better_by > bound:
            out[name] = "regression"
        elif spread > bound and not change_beats_all:
            out[name] = "unresolved"
        else:
            out[name] = "within bound"
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--scratch", type=Path, default=None)
    args = ap.parse_args(argv)

    dirty = git("status", "--porcelain", "--untracked-files=no")
    if dirty:
        raise SystemExit(f"tracked files differ from HEAD; commit them first:\n{dirty}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench_summary-"))
    trees = {side: scratch / f"{side}-{commit[:12]}" for side, commit in commits.items()}
    for side, tree in trees.items():
        if not tree.exists():
            tree.mkdir(parents=True)
            extract(commits[side], tree)
    reproduce = {side: reproduce_record(tree, scratch / f"reproduce-{side}")
                 for side, tree in trees.items()}
    runner_peak_rss_mb = max_rss_mb(resource.getrusage(resource.RUSAGE_SELF))

    report = {
        "parent": {"commit": commits["parent"]},
        "change": {"commit": commits["change"]},
        "reproduce": reproduce,
        "reproduce_bytes_identical": bool(reproduce["parent"]["csv_sha256"])
        and reproduce["parent"]["csv_sha256"] == reproduce["change"]["csv_sha256"],
        "reproduce_runner_peak_rss_mb": runner_peak_rss_mb,
        "reproduce_peak_rss_note": (
            "child_peak_rss_mb is the standalone reproduce child's ru_maxrss, read with "
            "os.wait4 by this script; not a BENCHMARK.json metric"
        ),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "quartiles": "statistics.quantiles(n=4, method='exclusive')",
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: cpu_s "
                      f"{runs[side][-1]['metrics'].get('cpu_s')}", file=sys.stderr)
        report["workloads"][workload] = {
            side: {
                "src_sha256": sorted({r["src_sha256"] for r in side_runs}),
                **line_counts(trees[side]),
                "failed": sum(r["failed"] for r in side_runs),
                "attempted": sum(r["attempted"] for r in side_runs),
                "summary": summary(side_runs, metrics),
                "runs": side_runs,
            }
            for side, side_runs in runs.items()
        }
        report["workloads"][workload]["change_won_pairs"] = pairs_won(
            runs["parent"], runs["change"], metrics
        )
        report["workloads"][workload]["pair_ratio"] = pair_ratios(
            runs["parent"], runs["change"], metrics
        )
        report["workloads"][workload]["pairs"] = len(args.seeds)
        report["workloads"][workload]["verdict"] = verdicts(
            runs["parent"], runs["change"], metrics
        )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
