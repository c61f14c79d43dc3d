"""Command line front end.

Subcommands: equilibria | coeffs | scan | simulate | sweep | reproduce.
Each run reads one config file (the packaged reference set by default),
overlays command-line flags, writes CSV artifacts plus a JSON manifest into
--out-dir, and exits 0 on success, 2 on configuration errors, 3 on numerical
failures, 4 when a reproduction check fails.

All CSV floats are written with str, which for a float equals its repr (the
shortest string that reads back to the same value), so two runs on the same
config produce byte-identical files; the manifest's duration field is the
only run-dependent value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .config import ConfigError, RunOptions, default_config_path, parse_config
from .dde import (
    PeriodEstimate,
    Trajectory,
    classify_asymptotics,
    detect_period,
    integrate,
    scaled_equilibrium_history,
)
from .equilibria import Equilibrium, positive_equilibrium, tau_max, trivial_equilibrium
from .linearization import CharCoeffs, LinCoeffs
from .linearization import char_coeffs, linearize  # noqa: F401 (traced by name in perfbench)
from .model import ModelParams, NumericalError, SystemState
from .switch import ScanResult, SwitchReport, linear_coeffs, positive_root_intervals
from .switch import scan as run_scan

_NO_EQ_SPAN = 10.0  # tau span for outputs when no positive equilibrium exists
_DEFAULT_GRID_STEP = 0.005
_MAX_GRID_POINTS = 1_000_000  # the reference grid has 598
# reproduction runs: (tau, t_end, transient), windows sized to hold several
# oscillation periods past the transient
_REPRO_RUNS = ((0.5, 1000.0, 100.0), (1.4, 1200.0, 400.0), (2.8, 2500.0, 800.0), (2.9, 2500.0, 800.0))
_NEAR_THRESHOLD = 1e-6  # trivial_limit's offset below tau_max
_TRAJ_HEADER = ["t", "Q", "M", "E"]
_CHUNK = 1024  # CSV rows formatted by one %


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[tuple]) -> Path:
    """One CSV with every cell written by %s: a float as its repr, a str as is.

    Rows are formatted _CHUNK at a time, with one % over the block's cells; a
    row whose length is not len(header) raises TypeError.
    """
    width = len(header)
    row_format = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, _CHUNK)):
            if set(map(len, block)) != {width}:
                raise TypeError(f"every row of {path.name} must have {width} cells")
            fh.write(row_format * len(block) % tuple(chain.from_iterable(block)))
    return path


def _load(args: argparse.Namespace) -> tuple[ModelParams, RunOptions, Path]:
    """Config plus flags (a flag left unset keeps the config value); creates --out-dir."""
    cfg = args.config if args.config is not None else default_config_path()
    params, opts = parse_config(cfg)
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunOptions)}
    opts = replace(opts, **{k: v for k, v in flags.items() if v is not None})
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return params, opts, cfg


def _grid_points(span: float, step: float) -> float:
    """span/step, refused before any list is built when it exceeds _MAX_GRID_POINTS."""
    points = span / step
    if not points <= _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid step {step!r} gives {points:.3g} points over span {span!r}; "
            f"at most {_MAX_GRID_POINTS} are allowed"
        )
    return points


def _tau_grid(params: ModelParams, opts: RunOptions) -> tuple[float | None, list[float]]:
    """tau_max and the delay grid over [0, tau_max), or over [0, _NO_EQ_SPAN)
    when tau_max is None or infinite."""
    tm = tau_max(params)
    span = tm if tm is not None and math.isfinite(tm) else _NO_EQ_SPAN
    step = opts.grid_step if opts.grid_step is not None else _DEFAULT_GRID_STEP
    if not (math.isfinite(step) and step > 0.0):
        raise ConfigError(f"grid step must be positive and finite, got {step!r}")
    grid = [i * step for i in range(math.ceil(_grid_points(span, step)))]
    while grid and grid[-1] >= span:
        grid.pop()
    if len(grid) < 2:
        raise ConfigError(f"grid step {step!r} too large for span {span!r}")
    return tm, grid


def _manifest(
    subcommand: str,
    cfg: Path,
    params: ModelParams,
    opts: RunOptions,
    outputs: list[Path],
    checks: list[dict],
) -> dict:
    tm = tau_max(params)
    resolved = {f.name: getattr(params, f.name) for f in fields(params) if f.name != "rates"}
    resolved.update(asdict(params.rates))
    resolved["tau_max"] = tm if tm is None or math.isfinite(tm) else repr(tm)
    return {
        "subcommand": subcommand,
        "config_path": str(cfg),
        "config_sha256": hashlib.sha256(cfg.read_bytes()).hexdigest(),
        "resolved": resolved,
        "options": asdict(opts),
        "outputs": [str(p) for p in outputs],
        "checks": checks,
        "duration_seconds": None,
    }


def _make_history(eq: Equilibrium, spec: str | None) -> SystemState:
    if spec is None:
        return scaled_equilibrium_history(eq)
    if spec.startswith("equilibrium"):
        rest = spec[len("equilibrium"):]
        if rest == "":
            factor = 1.0
        elif rest.startswith("*"):
            try:
                factor = float(rest[1:])
            except ValueError:
                raise ConfigError(f"bad history factor in {spec!r}") from None
        else:
            raise ConfigError(f"bad history spec {spec!r}")
        return scaled_equilibrium_history(eq, factor)
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(
            f"history must be 'equilibrium*FACTOR' or a 'Q,M,E' triple, got {spec!r}"
        )
    try:
        q, m, e = (float(x) for x in parts)
    except ValueError:
        raise ConfigError(f"bad history triple {spec!r}") from None
    return SystemState(q, m, e)


def _write_equilibria(out_dir: Path, params: ModelParams, grid: list[float]) -> Path:
    e0 = trivial_equilibrium(params).E
    rows = []
    for t in grid:
        eq = positive_equilibrium(params, t)
        rows.append(
            (t, 0.0, 0.0, e0)
            + ((eq.Q, eq.M, eq.E) if eq is not None else ("", "", ""))
        )
    header = ["tau", "Q_trivial", "M_trivial", "E_trivial", "Q_positive", "M_positive", "E_positive"]
    return _write_csv(out_dir / "equilibria.csv", header, rows)


def _cmd_equilibria(args: argparse.Namespace) -> tuple[dict, int]:
    params, opts, cfg = _load(args)
    tm, grid = _tau_grid(params, opts)
    out = _write_equilibria(args.out_dir, params, grid)
    print(f"tau_max = {tm}")
    if tm is None:
        print("no positive equilibrium at any delay")
    return _manifest("equilibria", cfg, params, opts, [out], []), 0


_COEFF_HEADER = ["tau", *LinCoeffs._fields[:6], *CharCoeffs._fields[:9]]


def _coefficients(params: ModelParams, grid: list[float]) -> list[tuple[LinCoeffs, CharCoeffs]]:
    """linear_coeffs at each grid delay with a positive equilibrium."""
    return [built for t in grid if (built := linear_coeffs(params, t)) is not None]


def _write_coeffs(out_dir: Path, coefficients: list[tuple[LinCoeffs, CharCoeffs]]) -> Path:
    rows = [(lc.tau, *lc[:6], *cc[:9]) for lc, cc in coefficients]
    return _write_csv(out_dir / "coeffs.csv", _COEFF_HEADER, rows)


def _cmd_coeffs(args: argparse.Namespace) -> tuple[dict, int]:
    params, opts, cfg = _load(args)
    tm, grid = _tau_grid(params, opts)
    if tm is None:
        print("no positive equilibrium at any delay; nothing to linearize")
    out = _write_coeffs(args.out_dir, _coefficients(params, grid))
    return _manifest("coeffs", cfg, params, opts, [out], []), 0


def _write_scan(out_dir: Path, result: ScanResult, n_max: int) -> list[Path]:
    """The S_n curve, switch and partition CSVs of a switch.scan result."""
    outputs = [
        _write_csv(
            out_dir / f"s{n}_curve.csv",
            ["tau", "branch", "S"],
            [(t, c.branch, s) for c in result.curves if c.n == n for t, s in c.samples],
        )
        for n in range(n_max + 1)
    ]
    outputs.append(
        _write_csv(
            out_dir / "switches.csv",
            SwitchReport._fields,
            [(*r[:-1], int(r.refined)) for r in result.reports],
        )
    )
    outputs.append(
        _write_csv(out_dir / "partition.csv", ["tau_lo", "tau_hi", "verdict"], result.partition)
    )
    return outputs


def _cmd_scan(args: argparse.Namespace) -> tuple[dict, int]:
    params, opts, cfg = _load(args)
    tm, grid = _tau_grid(params, opts)
    if tm is None:
        print("no positive equilibrium at any delay; scan skipped")
        return _manifest("scan", cfg, params, opts, [], []), 0
    result = run_scan(params, grid, opts.n_max)
    outputs = _write_scan(args.out_dir, result, opts.n_max)
    for r in result.reports:
        print(
            f"crossing: tau*={r.tau_star:.6f} omega*={r.omega_star:.6f} "
            f"n={r.n} branch={r.branch} {r.direction} residual={r.residual:.2e}"
        )
    for lo, hi, verdict in result.partition:
        print(f"[{lo:.6f}, {hi:.6f}): {verdict}")
    return _manifest("scan", cfg, params, opts, outputs, []), 0


def _simulate_once(
    params: ModelParams,
    tau: float,
    t_end: float,
    transient: float,
    max_step: float | None,
    history_spec: str | None,
) -> tuple[Trajectory, str, PeriodEstimate | None]:
    if not t_end > transient >= 0.0:
        raise ConfigError(
            f"need t_end > transient >= 0, got t_end={t_end!r}, transient={transient!r}"
        )
    p = replace(params, tau=tau)
    # the positive equilibrium, else the trivial one; a solve reads its delay
    # argument, not p.tau, so solving on params keeps the grid's memo
    eq = positive_equilibrium(params, tau) or trivial_equilibrium(p)
    traj = integrate(p, _make_history(eq, history_spec), t_end, max_step=max_step)
    verdict = classify_asymptotics(traj, eq, transient)
    return traj, verdict, detect_period(traj, "Q", transient)


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, int]:
    params, opts, cfg = _load(args)
    if opts.tau is None:
        raise ConfigError("tau is required: pass --tau or set run.tau in the config")
    if args.stride < 1:
        raise ConfigError(f"--stride must be at least 1, got {args.stride}")
    tau = opts.tau
    t_end = opts.t_end if opts.t_end is not None else 1000.0
    transient = opts.transient if opts.transient is not None else 100.0
    traj, verdict, period = _simulate_once(
        params, tau, t_end, transient, opts.max_step, opts.history
    )
    out = args.out if args.out is not None else args.out_dir / f"sim_tau{tau:g}.csv"
    rows = islice(zip(traj.times, traj.Q, traj.M, traj.E), 0, None, args.stride)
    _write_csv(out, _TRAJ_HEADER, rows)
    print(f"verdict: {verdict}")
    if period is not None:
        print(f"period: {period.period:.3f} +- {period.std:.3f} over {period.n_peaks} peaks")
    manifest = _manifest("simulate", cfg, replace(params, tau=tau), opts, [out], [])
    manifest["resolved"].update(dt=traj.dt, t_end=t_end, transient=transient, verdict=verdict,
                                period=period.period if period else None)
    return manifest, 0


def _cmd_sweep(args: argparse.Namespace) -> tuple[dict, int]:
    params, opts, cfg = _load(args)
    if args.tau_max_flag is None:
        raise ConfigError("--tau-max is required for sweep")
    lo, hi, step = args.tau_min, args.tau_max_flag, args.tau_step
    if not (step > 0.0 and hi >= lo >= 0.0):
        raise ConfigError(
            f"need tau-max >= tau-min >= 0 and tau-step > 0, got {lo!r}, {hi!r}, {step!r}"
        )
    _grid_points(hi - lo, step)
    t_end = opts.t_end if opts.t_end is not None else 1200.0
    transient = opts.transient if opts.transient is not None else 400.0
    max_step = opts.max_step if opts.max_step is not None else 0.05
    rows = []
    taus = []
    t = lo
    while t <= hi + 1e-12:
        taus.append(round(t, 12))
        t = lo + len(taus) * step
    for tau in taus:
        _traj, verdict, period = _simulate_once(
            params, tau, t_end, transient, max_step, opts.history
        )
        cells = ("", "", "") if period is None else (period.period, period.std, period.amplitude_ratio)
        rows.append((tau, verdict, *cells))
        print(f"tau={tau:g}: {verdict}" + (f", period {period.period:.2f}" if period else ""))
    out = _write_csv(
        args.out_dir / "sweep.csv",
        ["tau", "verdict", "period", "period_std", "amplitude_ratio"],
        rows,
    )
    manifest = _manifest("sweep", cfg, params, opts, [out], [])
    manifest["resolved"].update(t_end=t_end, transient=transient, max_step=max_step)
    return manifest, 0


class _Reproduction(NamedTuple):
    """What the reproduction criteria read: the analysis on the delay grid
    and the _REPRO_RUNS simulations."""

    tau_max: float
    trivial_E: float  # f(0)/k
    near_threshold: Equilibrium | None  # the positive equilibrium at tau_max - _NEAR_THRESHOLD
    coeffs: list[CharCoeffs]  # at each grid delay with a positive equilibrium
    intervals: list[tuple[float, float]]
    scan: ScanResult
    verdicts: dict[float, str]  # by run delay
    periods: dict[float, float | None]


def _near(x: float | None, ref: float, tol: float) -> bool:
    return x is not None and abs(x - ref) <= tol


def _existence_threshold(q: _Reproduction) -> tuple[bool, str]:
    return _near(q.tau_max, 2.99, 0.01), f"tau_max = {q.tau_max!r}"


def _trivial_limit(q: _Reproduction) -> tuple[bool, str]:
    eq = q.near_threshold
    dist = math.inf if eq is None else max(abs(eq.Q), abs(eq.M), abs(eq.E - q.trivial_E))
    return (
        _near(q.trivial_E, 2346.4, 0.5) and dist <= 1e-3,
        f"f(0)/k = {q.trivial_E!r}; distance at tau_max - 1e-6 = {dist!r}",
    )


def _root_window(q: _Reproduction) -> tuple[bool, str]:
    window_ok = (
        len(q.intervals) == 1
        and q.intervals[0][0] <= 1e-12
        and _near(q.intervals[0][1], 2.92, 0.01)
    )
    signs_ok = all(c.b2 > 0.0 and c.b3 < 0.0 for c in q.coeffs if c.tau <= 2.9)
    return (
        window_ok and signs_ok,
        f"intervals = {q.intervals!r}; b2>0 and b3<0 on [0, 2.9]: {signs_ok}",
    )


def _stability_switches(q: _Reproduction) -> tuple[bool, str]:
    reports = q.scan.reports
    s1_rootless = not any(r.n >= 1 for r in reports) and all(
        c.roots == () for c in q.scan.curves if c.n == 1
    )
    ok = (
        [r.direction for r in reports] == ["destabilizing", "stabilizing"]
        and all(r.refined and r.residual < 1e-8 for r in reports)
        and _near(reports[0].tau_star, 1.40, 0.05)
        and _near(reports[1].tau_star, 2.82, 0.02)
        and s1_rootless
    )
    crossings = [(r.tau_star, r.direction, r.residual) for r in reports]
    return ok, f"crossings = {crossings!r}; S1 rootless: {s1_rootless}"


def _regimes(q: _Reproduction) -> tuple[bool, str]:
    expected = {0.5: "converging", 1.4: "sustained-oscillation",
                2.8: "sustained-oscillation", 2.9: "converging"}
    return q.verdicts == expected, f"verdicts = {q.verdicts!r}"


def _oscillation_periods(q: _Reproduction) -> tuple[bool, str]:
    ok = _near(q.periods[1.4], 100.0, 15.0) and _near(q.periods[2.8], 220.0, 25.0)
    return ok, f"periods = {q.periods!r}"


# the reproduction criteria, in the order reproduce reports them: each maps
# a _Reproduction to (passed, detail) and holds its own reference bands
_CRITERIA = {
    "existence_threshold": _existence_threshold,
    "trivial_limit": _trivial_limit,
    "root_window": _root_window,
    "stability_switches": _stability_switches,
    "regimes": _regimes,
    "oscillation_periods": _oscillation_periods,
}


def _cmd_reproduce(args: argparse.Namespace) -> tuple[dict, int]:
    params, opts, cfg = _load(args)
    tm, grid = _tau_grid(params, opts)
    if tm is None:
        outputs = [_write_equilibria(args.out_dir, params, grid)]
        print("no positive equilibrium at any delay; scan and simulations skipped")
        manifest = _manifest("reproduce", cfg, params, opts, outputs, [])
        manifest["note"] = "no positive equilibrium"
        return manifest, 0

    # the scan and the runs refuse their inputs before the first CSV; the
    # analytic calls on the grid after them read the scan's memos
    result = run_scan(params, grid, opts.n_max)
    verdicts: dict[float, str] = {}
    periods: dict[float, float | None] = {}
    simulations = []
    for tau, t_end, transient in _REPRO_RUNS:
        traj, verdicts[tau], period = _simulate_once(
            params, tau, t_end, transient, opts.max_step, opts.history
        )
        periods[tau] = None if period is None else period.period
        rows = zip(traj.times, traj.Q, traj.M, traj.E)
        simulations.append(_write_csv(args.out_dir / f"sim_tau{tau:g}.csv", _TRAJ_HEADER, rows))

    coefficients = _coefficients(params, grid)
    outputs = [_write_equilibria(args.out_dir, params, grid), _write_coeffs(args.out_dir, coefficients)]
    outputs += _write_scan(args.out_dir, result, opts.n_max) + simulations
    q = _Reproduction(
        tm, trivial_equilibrium(params).E, positive_equilibrium(params, tm - _NEAR_THRESHOLD),
        [cc for _, cc in coefficients], positive_root_intervals(params, grid),
        result, verdicts, periods,
    )
    checks = []
    for name, criterion in _CRITERIA.items():
        passed, detail = criterion(q)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        checks.append({"name": name, "passed": passed, "detail": detail})
    manifest = _manifest("reproduce", cfg, params, opts, outputs, checks)
    return manifest, 0 if all(c["passed"] for c in checks) else 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="parameter file (default: packaged reference set)")
    common.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for CSV artifacts and the manifest")

    # the commands that build the delay grid
    grid_flags = argparse.ArgumentParser(add_help=False)
    grid_flags.add_argument("--grid-step", dest="grid_step", type=float, default=None,
                            help="tau grid spacing (default 0.005)")

    window_flags = argparse.ArgumentParser(add_help=False)
    window_flags.add_argument("--t-end", dest="t_end", type=float, default=None)
    window_flags.add_argument("--transient", type=float, default=None)

    # reproduce takes these but not the window flags: its windows are fixed
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--max-step", dest="max_step", type=float, default=None)
    run_flags.add_argument("--history", type=str, default=None,
                           help="'equilibrium*FACTOR' (default equilibrium*1.1) or a 'Q,M,E' triple")

    parser = argparse.ArgumentParser(
        prog="hemodelay",
        description="Delayed hematopoiesis model: equilibria, stability switches, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibria", parents=[common, grid_flags],
                       help="steady states over the delay range (CSV)")
    p.set_defaults(handler=_cmd_equilibria)

    p = sub.add_parser("coeffs", parents=[common, grid_flags],
                       help="linearization and characteristic coefficients per tau (CSV)")
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("scan", parents=[common, grid_flags],
                       help="S_n curves, stability switches and the stability partition")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("simulate", parents=[common, window_flags, run_flags],
                       help="integrate the system at one delay")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--out", type=Path, default=None, help="CSV path (default out-dir/sim_tau*.csv)")
    p.add_argument("--stride", type=int, default=1, help="write every Nth mesh point")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[common, window_flags, run_flags],
                       help="simulate over a tau grid and classify each run")
    p.add_argument("--tau-min", dest="tau_min", type=float, default=0.0)
    p.add_argument("--tau-max", dest="tau_max_flag", type=float, default=None)
    p.add_argument("--tau-step", dest="tau_step", type=float, default=0.1)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common, grid_flags, run_flags],
                       help="full pipeline with reproduction checks; exit 4 if any fails")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        manifest, code = args.handler(args)
        manifest["duration_seconds"] = time.perf_counter() - start
        manifest_path = args.out_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    print(f"manifest: {manifest_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
