"""Render PNG figures from the CSV artifacts of a `hemodelay reproduce` run.

Usage:
    hemodelay reproduce --out-dir out
    python scripts/plot_figures.py --out-dir out

Writes equilibria.png, coeffs.png, s_curves.png and simulations.png next to
the CSVs.  Plotting is the only place matplotlib is needed; install it with
`pip install -e .[plots]`.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

plt = None  # matplotlib.pyplot, imported by main() so that read_columns loads without it


def read_columns(path: Path) -> dict[str, list]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols: dict[str, list] = {name: [] for name in header}
    for row in data:
        for name, cell in zip(header, row):
            if cell == "":
                cols[name].append(None)
            else:
                try:
                    cols[name].append(float(cell))
                except ValueError:
                    cols[name].append(cell)
    return cols


def plot_equilibria(out_dir: Path) -> Path:
    cols = read_columns(out_dir / "equilibria.csv")
    fig, (top, bottom) = plt.subplots(2, 1, figsize=(7, 7), sharex=True)
    top.plot(cols["tau"], cols["Q_positive"], label="Q*")
    top.plot(cols["tau"], cols["M_positive"], label="M*")
    top.set_ylabel("cells (x 10^8 / kg)")
    top.legend()
    top.set_title("positive equilibrium vs delay")
    bottom.plot(cols["tau"], cols["E_positive"], label="E*")
    bottom.plot(cols["tau"], cols["E_trivial"], "--", label="f(0)/k")
    bottom.set_yscale("log")
    bottom.set_xlabel("tau (days)")
    bottom.set_ylabel("growth factor (mU/mL)")
    bottom.legend()
    target = out_dir / "equilibria.png"
    fig.savefig(target, dpi=150, bbox_inches="tight")
    plt.close(fig)
    return target


def plot_coeffs(out_dir: Path) -> Path:
    cols = read_columns(out_dir / "coeffs.csv")
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(cols["tau"], cols["b2"], label="b2")
    ax.plot(cols["tau"], cols["b3"], label="b3")
    ax.axhline(0.0, color="black", linewidth=0.6)
    ax.set_xlabel("tau (days)")
    ax.set_title("delay-dependent cubic coefficients")
    ax.legend()
    target = out_dir / "coeffs.png"
    fig.savefig(target, dpi=150, bbox_inches="tight")
    plt.close(fig)
    return target


def plot_s_curves(out_dir: Path) -> Path:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for path in sorted(out_dir.glob("s*_curve.csv")):
        cols = read_columns(path)
        if not cols["tau"]:
            continue
        label = path.stem.split("_")[0].upper()
        ax.plot(cols["tau"], cols["S"], label=label)
    switches = read_columns(out_dir / "switches.csv")
    for t in switches["tau_star"]:
        ax.axvline(t, color="gray", linestyle=":", linewidth=0.8)
    ax.axhline(0.0, color="black", linewidth=0.6)
    ax.set_xlabel("tau (days)")
    ax.set_ylabel("S_n(tau)")
    ax.set_title("crossing curves; dotted lines mark stability switches")
    ax.legend()
    target = out_dir / "s_curves.png"
    fig.savefig(target, dpi=150, bbox_inches="tight")
    plt.close(fig)
    return target


def plot_simulations(out_dir: Path) -> Path:
    paths = sorted(out_dir.glob("sim_tau*.csv"), key=lambda p: float(p.stem[7:]))
    fig, axes = plt.subplots(
        len(paths), 1, figsize=(7, 2.6 * len(paths)), sharex=False
    )
    if len(paths) == 1:
        axes = [axes]
    for ax, path in zip(axes, paths):
        cols = read_columns(path)
        ax.plot(cols["t"], cols["Q"], label="Q", linewidth=0.8)
        ax.plot(cols["t"], cols["M"], label="M", linewidth=0.8)
        ax.set_title(f"tau = {path.stem[7:]} days")
        ax.set_ylabel("cells")
        ax.legend(loc="upper right", fontsize="small")
    axes[-1].set_xlabel("t (days)")
    fig.tight_layout()
    target = out_dir / "simulations.png"
    fig.savefig(target, dpi=150)
    plt.close(fig)
    return target


def main() -> int:
    global plt
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory holding the reproduce CSVs")
    args = parser.parse_args()
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; run `pip install -e .[plots]`", file=sys.stderr)
        return 1
    if not (args.out_dir / "equilibria.csv").is_file():
        print(f"no CSVs in {args.out_dir}; run `hemodelay reproduce` first",
              file=sys.stderr)
        return 1
    written = [plot_equilibria(args.out_dir)]
    if (args.out_dir / "coeffs.csv").is_file():
        written.append(plot_coeffs(args.out_dir))
    if (args.out_dir / "switches.csv").is_file():
        written.append(plot_s_curves(args.out_dir))
    if list(args.out_dir.glob("sim_tau*.csv")):
        written.append(plot_simulations(args.out_dir))
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
