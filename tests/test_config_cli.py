import collections
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hemodelay
from hemodelay import (
    HillRates,
    NumericalError,
    SystemState,
    char_coeffs,
    default_params,
    linearize,
    positive_equilibrium,
    tau_max,
)
from hemodelay import cli, equilibria, switch
from hemodelay.cli import _CHUNK, _write_csv, main
from hemodelay.config import (
    ConfigError,
    RunOptions,
    default_config_path,
    parse_config,
)
from hemodelay.dde import _RK4_STABLE

import checks

BASE_CFG = default_config_path().read_text()
NO_EQ_CFG = BASE_CFG.replace("beta0 = 0.5", "beta0 = 0.01")  # no positive equilibrium
# A and B near 1.4e4: A^2 - B^2 cancels, so b1..b3 carry rounding error above 1e-9 relative
CANCELLING_CFG = BASE_CFG.replace("beta0 = 0.5", "beta0 = 2000000").replace("G = 0.04", "G = 7000")
# draw 43 of checks.log_box(7, 120, 2): at tau_max/2 = 4.603 the step tau/64
# gives dt*(delta + G + beta0) = 3.08, past RK4's stability interval, and
# with k and mu alone checked the run stopped at the floor (exit 3)
DRAW_43_CFG = """[model]
delta = 0.21799961836562176
gamma = 0.07470923646611713
mu = 0.021270309255321678
k = 15.780653139831
[rates.hill]
beta0 = 42.5336023004326
G = 0.009394604313536703
a = 140188.22683328582
K = 0.2564277191744263
r = 13.265573554372772
"""

EQ_HEADER = ["tau", "Q_trivial", "M_trivial", "E_trivial",
             "Q_positive", "M_positive", "E_positive"]
COEFF_HEADER = ["tau", "A", "B", "C", "D", "G", "H",
                "a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3"]
RUN_SECTION = """
[run]
grid_step = 0.3
n_max = 2
history = equilibrium*1.2
max_step = 0.1
t_end = 40
transient = 5
"""
REQUIRED_KEYS = [
    "model.delta", "model.gamma", "model.mu", "model.k",
    "rates.hill.beta0", "rates.hill.G", "rates.hill.a",
    "rates.hill.K", "rates.hill.r",
]


def write_cfg(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "test.cfg"
    path.write_text(text)
    return path


def model_cfg(v: dict) -> str:
    """A config file of the [model] and [rates.hill] values in v, by name."""
    return "[model]\n" + "".join(
        f"{name} = {v[name]!r}\n" for name in ("delta", "gamma", "mu", "k")
    ) + "[rates.hill]\n" + "".join(
        f"{name} = {v[name]!r}\n" for name in ("beta0", "G", "a", "K", "r")
    )


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_default_file_exists(self):
        assert default_config_path().is_file()

    def test_default_file_values(self):
        params, opts = parse_config(default_config_path())
        assert params.delta == 0.01
        assert params.gamma == 0.2
        assert params.mu == 0.02
        assert params.k == 2.8
        assert params.tau == 0.0
        r = params.rates
        assert (r.beta0, r.G, r.a, r.K, r.r) == (0.5, 0.04, 6570.0, 0.0382, 7.0)
        assert opts == RunOptions()

    def test_run_section(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + (
            "\n[run]\ntau = 1.4\nt_end = 500\ntransient = 50\nmax_step = 0.02\n"
            "history = equilibrium*1.2\ngrid_step = 0.01\nn_max = 2\n"
        ))
        params, opts = parse_config(cfg)
        assert params.tau == 1.4
        assert opts == RunOptions(tau=1.4, t_end=500.0, transient=50.0,
                                  max_step=0.02, history="equilibrium*1.2",
                                  grid_step=0.01, n_max=2)

    def test_readme_example_is_the_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        params, opts = parse_config(write_cfg(tmp_path, block))
        assert params == default_params()
        assert opts == RunOptions()

    def test_comments_and_blank_lines(self, tmp_path):
        noisy = "# leading comment\n; alt comment\n\n" + BASE_CFG
        params, _ = parse_config(write_cfg(tmp_path, noisy))
        assert params.delta == 0.01

    def test_empty_file_lists_required_keys(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, ""))
        msg = str(exc.value)
        assert "missing required keys" in msg
        for key in REQUIRED_KEYS:
            assert key in msg

    def test_unknown_key_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line 2: unknown key model\.zz"):
            parse_config(write_cfg(tmp_path, "[model]\nzz = 1\n"))

    def test_run_seed_is_unknown(self, tmp_path, capsys):
        # every pipeline is deterministic, so there is no seed to set
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[run]\nseed = 7\n")
        with pytest.raises(ConfigError, match=r"unknown key run\.seed"):
            parse_config(cfg)
        assert main(["equilibria", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "unknown key run.seed" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line 1: unknown section \[foo\]"):
            parse_config(write_cfg(tmp_path, "[foo]\n"))

    def test_malformed_section_header(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed section header"):
            parse_config(write_cfg(tmp_path, "[model\n"))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config(write_cfg(tmp_path, "delta = 1\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(write_cfg(tmp_path, "[model]\ndelta 1\n"))

    def test_duplicate_key_cites_both_lines(self, tmp_path):
        text = BASE_CFG + "\n[model]\ndelta = 0.5\n"
        dup_line = len(text.splitlines())
        first_line = next(
            i for i, l in enumerate(BASE_CFG.splitlines(), 1)
            if l.strip().startswith("delta")
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        msg = str(exc.value)
        assert f"line {dup_line}: duplicate key model.delta" in msg
        assert f"first at line {first_line}" in msg

    def test_bad_number_names_key_and_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"model\.delta expects a number.*'abc'"):
            parse_config(write_cfg(tmp_path, BASE_CFG.replace("delta = 0.01", "delta = abc")))

    def test_nonfinite_number_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(write_cfg(tmp_path, BASE_CFG.replace("delta = 0.01", "delta = inf")))

    def test_int_key_rejects_float(self, tmp_path):
        with pytest.raises(ConfigError, match=r"run\.n_max expects an integer"):
            parse_config(write_cfg(tmp_path, BASE_CFG + "\n[run]\nn_max = 1.5\n"))

    def test_model_validation_runs(self, tmp_path):
        with pytest.raises(ConfigError, match="rate parameter r must exceed 1"):
            parse_config(write_cfg(tmp_path, BASE_CFG.replace("r = 7", "r = 0.5")))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")


def load_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


class TestEquilibriaCommand:
    def test_csv_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert main(["equilibria", "--out-dir", str(out), "--grid-step", "0.3"]) == 0
        header, rows = read_csv(out / "equilibria.csv")
        assert header == EQ_HEADER
        taus = [float(r[0]) for r in rows]
        assert taus[0] == 0.0
        assert taus == pytest.approx([0.3 * i for i in range(len(taus))])
        assert taus[-1] < checks.TAU_MAX_DEFAULT
        for row in rows:
            assert float(row[3]) == checks.TRIVIAL_E
            assert float(row[4]) > 0.0  # positive branch exists below tau_max

        manifest = load_manifest(out)
        assert manifest["subcommand"] == "equilibria"
        expected_sha = hashlib.sha256(default_config_path().read_bytes()).hexdigest()
        assert manifest["config_sha256"] == expected_sha
        assert manifest["resolved"]["tau_max"] == pytest.approx(
            checks.TAU_MAX_DEFAULT, rel=1e-12
        )
        assert isinstance(manifest["duration_seconds"], float)
        for name in manifest["outputs"]:
            p = Path(name)
            assert p.is_file() and p.stat().st_size > 0

    def test_manifest_resolved_and_options(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + RUN_SECTION)
        out = tmp_path / "out"
        assert main(["equilibria", "--config", str(cfg), "--out-dir", str(out)]) == 0
        manifest = load_manifest(out)
        assert manifest["resolved"] == {
            "delta": 0.01, "gamma": 0.2, "mu": 0.02, "k": 2.8, "tau": 0.0,
            "beta0": 0.5, "G": 0.04, "a": 6570.0, "K": 0.0382, "r": 7.0,
            "tau_max": 2.9889912895287343,
        }
        assert manifest["options"] == {
            "tau": None, "t_end": 40.0, "transient": 5.0, "max_step": 0.1,
            "history": "equilibrium*1.2", "grid_step": 0.3, "n_max": 2,
        }

    def test_seed_flag_is_refused(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", "--seed", "3", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_grid_step_too_coarse_for_span(self, tmp_path):
        assert main(["equilibria", "--out-dir", str(tmp_path), "--grid-step", "5.0"]) == 2
        # without a positive equilibrium the span is 10, and every command
        # that builds the tau grid checks the step all the same
        cfg = write_cfg(tmp_path, NO_EQ_CFG)
        for command in ("equilibria", "coeffs", "scan", "reproduce"):
            assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path),
                         "--grid-step", "20.0"]) == 2, command

    @pytest.mark.parametrize("step", ["0", "-0.005", "nan", "inf"])
    def test_grid_step_must_be_positive_and_finite(self, tmp_path, capsys, step):
        assert main(["equilibria", "--out-dir", str(tmp_path), f"--grid-step={step}"]) == 2
        assert "grid step must be positive and finite" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # `python -m hemodelay` runs the same main as the console script
        env = dict(os.environ, PYTHONPATH=str(Path(hemodelay.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "hemodelay", "equilibria", "--grid-step", "0.3",
             "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "equilibria.csv").is_file()
        assert load_manifest(tmp_path)["subcommand"] == "equilibria"

    def test_grid_step_too_fine_is_refused_before_allocating(self, tmp_path, capsys):
        # about 3e300 points: refused from the count, not by running out of memory
        assert main(["equilibria", "--out-dir", str(tmp_path), "--grid-step", "1e-300"]) == 2
        assert "at most 1000000" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[run]\ngrid_step = 1e-300\n")
        assert main(["equilibria", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "at most 1000000" in capsys.readouterr().err

    def test_unwritable_manifest_is_an_io_error(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert main(["equilibria", "--out-dir", str(tmp_path), "--grid-step", "0.3"]) == 2
        assert "io error" in capsys.readouterr().err

    def test_out_dir_blocked_by_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        code = main(["equilibria", "--out-dir", str(blocker / "sub"), "--grid-step", "0.3"])
        assert code == 2


class TestCoeffsCommand:
    def test_rows_match_direct_computation(self, tmp_path):
        out = tmp_path / "out"
        assert main(["coeffs", "--out-dir", str(out), "--grid-step", "0.3"]) == 0
        header, rows = read_csv(out / "coeffs.csv")
        assert header == COEFF_HEADER
        for row in rows:
            assert float(row[14]) > 0.0  # b2
            assert float(row[15]) < 0.0  # b3
        row = next(r for r in rows if float(r[0]) == 0.3)
        p = default_params(tau=0.3)
        eq = positive_equilibrium(p, 0.3)
        lc = linearize(p, eq, 0.3)
        cc = char_coeffs(lc, p.mu, p.k)
        expected = (lc.A, lc.B, lc.C, lc.D, lc.G, lc.H,
                    cc.a1, cc.a2, cc.a3, cc.a4, cc.a5, cc.a6,
                    cc.b1, cc.b2, cc.b3)
        assert [float(v) for v in row[1:]] == list(expected)


class TestScanCommand:
    def test_outputs_and_crossings(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scan", "--out-dir", str(out), "--grid-step", "0.01"]) == 0
        header, rows = read_csv(out / "switches.csv")
        assert header[:4] == ["tau_star", "omega_star", "n", "branch"]
        assert len(rows) == 2
        assert abs(float(rows[0][0]) - checks.TAU_STAR_1) < 1e-8
        assert abs(float(rows[1][0]) - checks.TAU_STAR_2) < 1e-8
        assert rows[0][5] == "destabilizing"
        assert rows[1][5] == "stabilizing"

        _, s1_rows = read_csv(out / "s1_curve.csv")
        assert s1_rows and all(float(r[2]) < 0.0 for r in s1_rows)

        _, part = read_csv(out / "partition.csv")
        assert [r[2] for r in part] == ["stable", "unstable", "stable"]
        assert float(part[0][0]) == 0.0
        assert float(part[0][1]) == pytest.approx(checks.TAU_STAR_1, abs=1e-8)
        assert float(part[2][1]) == pytest.approx(checks.TAU_MAX_DEFAULT, rel=1e-12)

        printed = capsys.readouterr().out
        assert "crossing: tau*=1.373422" in printed
        assert "crossing: tau*=2.823997" in printed

    def test_no_positive_equilibrium_skips_the_scan(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NO_EQ_CFG)
        out = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert "no positive equilibrium at any delay; scan skipped" in capsys.readouterr().out
        assert not list(out.glob("*.csv"))
        assert load_manifest(out)["outputs"] == []

    def test_spacing_beyond_runtime_cap(self, tmp_path):
        assert main(["scan", "--out-dir", str(tmp_path), "--grid-step", "0.2"]) == 2

    def test_bad_n_max(self, tmp_path, capsys):
        # refused before any CSV is written
        for command in ("scan", "reproduce"):
            code = main([command, "--out-dir", str(tmp_path), "--grid-step", "0.01",
                         "--n-max", "0"])
            assert code == 2, command
            assert "n_max must be at least 1" in capsys.readouterr().err
            assert not list(tmp_path.glob("*.csv")), command

    @pytest.mark.parametrize("command", ["scan", "reproduce"])
    def test_too_many_sn_points_are_refused(self, tmp_path, capsys, monkeypatch, command):
        # switch.scan refuses (n_max + 1) S_n samples per grid point from the
        # count, before it builds a coefficient and before any CSV is
        # written; the default grid has 598 points
        def no_build(*args, **kwargs):
            raise NumericalError("coefficients built")

        monkeypatch.setattr("hemodelay.switch._coeffs_at", no_build)
        for n_max in ("1672", "1000000"):
            assert main([command, "--out-dir", str(tmp_path), "--n-max", n_max]) == 2
            assert "at most 1000000 are allowed" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[run]\nn_max = 1000000\n")
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "at most 1000000 are allowed" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        # 1672 * 598 points are within the bound and reach the build
        assert main([command, "--out-dir", str(tmp_path), "--n-max", "1671"]) == 3
        assert "coefficients built" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr("hemodelay.cli.run_scan", boom)
        code = main(["scan", "--out-dir", str(tmp_path), "--grid-step", "0.01"])
        assert code == 3


class TestWriteCsv:
    HEADER = ["t", "n", "label", "x"]

    @staticmethod
    def rows(count):
        rng = random.Random(count)
        cells = [0.1, -0.0, 1e-300, 2.5e17, math.inf, math.nan, 7, -3, 0, "", "sustained"]
        return [(i * 0.005, rng.choice(cells), rng.choice(cells), rng.uniform(-1e3, 1e3))
                for i in range(count)]

    @pytest.mark.parametrize(
        "count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
    )
    def test_blocks_match_a_per_row_join(self, tmp_path, count):
        rows = self.rows(count)
        expected = "".join(",".join(map(str, row)) + "\n" for row in [self.HEADER, *rows])
        path = _write_csv(tmp_path / "rows.csv", self.HEADER, iter(rows))
        assert path.read_text() == expected

    @pytest.mark.parametrize("at", [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 2])
    @pytest.mark.parametrize("width", [3, 5])
    def test_row_of_wrong_width_raises(self, tmp_path, at, width):
        rows = self.rows(2 * _CHUNK + 3)
        rows[at] = tuple(range(width))
        with pytest.raises(TypeError, match="must have 4 cells"):
            _write_csv(tmp_path / "rows.csv", self.HEADER, rows)

    def test_widths_that_cancel_in_a_block_raise(self, tmp_path):
        # 3 + 5 cells fill two rows of 4: only a per-row width check sees it
        rows = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0, 8.0)]
        with pytest.raises(TypeError, match="must have 4 cells"):
            _write_csv(tmp_path / "rows.csv", self.HEADER, rows)


class TestSimulateCommand:
    def run(self, tmp_path, *extra: str) -> Path:
        out = tmp_path / "out"
        code = main(["simulate", "--out-dir", str(out), "--t-end", "50",
                     "--transient", "10", *extra])
        assert code == 0
        return out

    def test_requires_tau(self, tmp_path):
        assert main(["simulate", "--out-dir", str(tmp_path)]) == 2

    def test_negative_tau_is_named(self, tmp_path, capsys):
        # refused when the delay is put into the parameter set
        assert main(["simulate", "--out-dir", str(tmp_path), "--tau", "-1"]) == 2
        assert capsys.readouterr().err == "config error: tau must be nonnegative\n"

    def test_period_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--out-dir", str(out), "--tau", "1.4", "--t-end", "1200",
                     "--transient", "400", "--max-step", "0.1"]) == 0
        period = load_manifest(out)["resolved"]["period"]
        # near the first switch the cycle is born at the crossing frequency
        assert abs(period * checks.OMEGA_STAR_1 / (2.0 * math.pi) - 1.0) <= 0.04
        assert f"period: {period:.3f} +- " in capsys.readouterr().out

    def test_trajectory_csv(self, tmp_path):
        out = self.run(tmp_path, "--tau", "0.5")
        header, rows = read_csv(out / "sim_tau0.5.csv")
        assert header == ["t", "Q", "M", "E"]
        # dt = 0.5/64 over 50 days
        assert len(rows) == 6401
        eq = positive_equilibrium(default_params(tau=0.5), 0.5)
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 1.1 * eq.Q
        assert float(rows[0][2]) == 1.1 * eq.M
        assert float(rows[0][3]) == 1.1 * eq.E
        manifest = load_manifest(out)
        assert manifest["resolved"]["tau"] == 0.5
        assert manifest["resolved"]["verdict"] in (
            "converging", "sustained-oscillation", "diverging", "unclassified"
        )
        assert "period" in manifest["resolved"]

    def test_manifest_resolved_and_options(self, tmp_path):
        out = self.run(tmp_path, "--tau", "1.4")
        manifest = load_manifest(out)
        assert manifest["resolved"] == {
            "delta": 0.01, "gamma": 0.2, "mu": 0.02, "k": 2.8, "tau": 1.4,
            "beta0": 0.5, "G": 0.04, "a": 6570.0, "K": 0.0382, "r": 7.0,
            "tau_max": 2.9889912895287343, "dt": 1.4 / 64, "t_end": 50.0, "transient": 10.0,
            "verdict": "unclassified", "period": None,
        }
        assert manifest["options"] == {
            "tau": 1.4, "t_end": 50.0, "transient": 10.0, "max_step": None,
            "history": None, "grid_step": None, "n_max": 1,
        }

    def test_manifest_records_the_default_window(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out-dir", str(out), "--tau", "1", "--max-step", "1"]) == 0
        manifest = load_manifest(out)
        assert (manifest["resolved"]["t_end"], manifest["resolved"]["transient"]) == (1000.0, 100.0)
        assert (manifest["options"]["t_end"], manifest["options"]["transient"]) == (None, None)

    def test_stride(self, tmp_path):
        out = self.run(tmp_path, "--tau", "0.5", "--stride", "100")
        _, rows = read_csv(out / "sim_tau0.5.csv")
        assert len(rows) == 65

    def test_stride_must_be_positive(self, tmp_path, monkeypatch):
        def no_integration(*args, **kwargs):
            pytest.fail("integrate ran before --stride was checked")

        monkeypatch.setattr("hemodelay.cli.integrate", no_integration)
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "0.5",
                     "--t-end", "50", "--transient", "10", "--stride", "0"])
        assert code == 2

    def test_explicit_out_path(self, tmp_path):
        target = tmp_path / "traj.csv"
        out = self.run(tmp_path, "--tau", "0.5", "--out", str(target))
        assert target.is_file()
        assert str(target) in load_manifest(out)["outputs"]

    def test_history_triple(self, tmp_path):
        out = self.run(tmp_path, "--tau", "0.5", "--history", "1,2,3")
        _, rows = read_csv(out / "sim_tau0.5.csv")
        assert [float(v) for v in rows[0][1:]] == [1.0, 2.0, 3.0]

    def test_history_equilibrium_unscaled(self, tmp_path):
        out = self.run(tmp_path, "--tau", "0.5", "--history", "equilibrium")
        _, rows = read_csv(out / "sim_tau0.5.csv")
        eq = positive_equilibrium(default_params(tau=0.5), 0.5)
        assert [float(v) for v in rows[0][1:]] == [eq.Q, eq.M, eq.E]

    @pytest.mark.parametrize("spec", ["equilibrium*x", "equilibriumX", "garbage", "1,2", "1,2,x"])
    def test_bad_history_spec(self, tmp_path, spec):
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "0.5",
                     "--t-end", "50", "--transient", "10", "--history", spec])
        assert code == 2

    def test_negative_history_component(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "0.5",
                     "--t-end", "50", "--transient", "10", "--history=-1,2,3"])
        assert code == 2
        assert capsys.readouterr().err == "config error: history Q = -1.0\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_grid_step_is_refused(self, tmp_path, command):
        # only the commands that build the delay grid take --grid-step
        with pytest.raises(SystemExit) as exc:
            main([command, "--out-dir", str(tmp_path), "--tau", "0.5", "--grid-step", "0.1"])
        assert exc.value.code == 2

    def test_csv_bytes(self, tmp_path):
        # sha256 of the written CSV: a change to any simulated float, to the
        # row stride or to the float formatting moves it
        digests = {
            "1": "66822fe016c1bb73cebc441210bef6de5edb7524d51d0beb2b4a373eb9ba9b0f",
            "7": "7acb4862a5c804e90a3751c837b11cb95436ad8adc0facf40fa255a06e3df0f6",
        }
        for stride, digest in digests.items():
            target = tmp_path / f"stride{stride}.csv"
            assert main(["simulate", "--out-dir", str(tmp_path), "--tau", "1.4",
                         "--t-end", "30", "--transient", "5", "--stride", stride,
                         "--out", str(target)]) == 0
            assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_nonfinite_t_end(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "1.4",
                     "--t-end", "inf", "--transient", "10"])
        assert code == 2
        assert "t_end must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tau", "1.4", "--t-end", "1e12", "--transient", "10"],
            ["--tau", "1e-9", "--t-end", "30", "--transient", "5"],
            ["--tau", "1.4", "--t-end", "30", "--transient", "5", "--max-step", "1e-320"],
            ["--tau", "0", "--t-end", "30", "--transient", "5", "--max-step", "5e-324"],
        ],
    )
    def test_too_many_steps_are_refused(self, tmp_path, capsys, flags):
        assert main(["simulate", "--out-dir", str(tmp_path), *flags]) == 2
        assert "at most 10000000 are allowed" in capsys.readouterr().err

    def test_nonfinite_max_step(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "1.4",
                     "--t-end", "30", "--transient", "5", "--max-step", "inf"])
        assert code == 2
        assert "max_step must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, dt",
        [
            (["--tau", "1.4", "--max-step", "1.4"], 1.4 / 3),  # k*max_step = 3.92
            (["--tau", "200"], 200.0 / 403),  # the default step tau/64 gives k*dt = 8.75
            (["--tau", "1.4", "--max-step", "0.35"], 0.35),  # k*dt = 0.98: kept
        ],
        ids=["max-step-1.4", "tau-200", "max-step-0.35"],
    )
    def test_step_is_capped_at_rk4_stability(self, tmp_path, flags, dt):
        # on the reference set lambda = max(k, mu, delta + G + beta0) = k
        assert main(["simulate", "--out-dir", str(tmp_path), "--t-end", "30",
                     "--transient", "5", *flags]) == 0
        assert load_manifest(tmp_path)["resolved"]["dt"] == dt
        assert dt * 2.8 <= _RK4_STABLE

    def test_transient_must_precede_t_end(self, tmp_path):
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "0.5",
                     "--t-end", "10", "--transient", "10"])
        assert code == 2

    def test_transient_window_without_mesh_point(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path), "--tau", "1.4",
                     "--t-end", "20", "--transient", "19.5", "--max-step", "0.7"])
        assert code == 2
        assert "first 10% window after the transient holds no mesh point" in (
            capsys.readouterr().err
        )

    def test_config_run_tau_and_flag_override(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[run]\ntau = 0.5\n")
        out = tmp_path / "a"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                     "--t-end", "30", "--transient", "5"]) == 0
        assert (out / "sim_tau0.5.csv").is_file()
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2),
                     "--t-end", "30", "--transient", "5", "--tau", "0.3"]) == 0
        assert (out2 / "sim_tau0.3.csv").is_file()


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--out-dir", str(out), "--tau-max", "0.2",
                     "--tau-step", "0.1", "--t-end", "30", "--transient", "5"])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["tau", "verdict", "period", "period_std", "amplitude_ratio"]
        assert [float(r[0]) for r in rows] == [0.0, 0.1, 0.2]
        assert all(r[1] for r in rows)

    def test_one_step_per_delay(self, tmp_path):
        # the default max_step 0.05 gives one mesh step per delay up to tau 0.05
        out = tmp_path / "out"
        code = main(["sweep", "--out-dir", str(out), "--tau-max", "0.05",
                     "--tau-step", "0.01"])
        assert code == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [float(r[0]) for r in rows] == [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
        # the manifest records the window and the step that ran, the options
        # what was asked for
        manifest = load_manifest(out)
        assert {k: manifest["resolved"][k] for k in ("t_end", "transient", "max_step")} == {
            "t_end": 1200.0, "transient": 400.0, "max_step": 0.05,
        }
        assert manifest["options"]["max_step"] is None

    def test_requires_tau_max(self, tmp_path):
        assert main(["sweep", "--out-dir", str(tmp_path)]) == 2

    def test_nonfinite_t_end(self, tmp_path, capsys):
        code = main(["sweep", "--out-dir", str(tmp_path), "--tau-max", "0.2",
                     "--t-end", "inf"])
        assert code == 2
        assert "t_end must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--tau-max", "1", "--tau-step", "1e-300"], ["--tau-max", "inf", "--tau-step", "0.5"]],
    )
    def test_too_many_delays_are_refused(self, tmp_path, capsys, flags):
        # refused from the count, before the delay list is built
        assert main(["sweep", "--out-dir", str(tmp_path), *flags]) == 2
        assert "at most 1000000 are allowed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--tau-min", "2", "--tau-max", "1"], ["--tau-max", "1", "--tau-step", "-0.1"]],
    )
    def test_bad_range(self, tmp_path, flags):
        assert main(["sweep", "--out-dir", str(tmp_path), *flags,
                     "--t-end", "30", "--transient", "5"]) == 2


@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    """Two reproduction runs on the shipped parameters, for determinism checks."""
    dirs = []
    codes = []
    for name in ("repro_a", "repro_b"):
        d = tmp_path_factory.mktemp(name)
        codes.append(main(["reproduce", "--out-dir", str(d)]))
        dirs.append(d)
    return codes, dirs


class TestReproduceCommand:
    def test_exit_code_and_check_summary(self, repro):
        codes, dirs = repro
        # two reference checks ask for values the shipped parameter set does
        # not produce (the near-threshold equilibrium sits far from the
        # trivial one, and the root window ends near 2.909); they fail, the
        # other four pass, and the command reports that with exit code 4
        assert codes == [4, 4]
        manifest = load_manifest(dirs[0])
        status = {c["name"]: c["passed"] for c in manifest["checks"]}
        assert status == {
            "existence_threshold": True,
            "trivial_limit": False,
            "root_window": False,
            "stability_switches": True,
            "regimes": True,
            "oscillation_periods": True,
        }

    def test_expected_artifacts(self, repro):
        _, dirs = repro
        names = {p.name for p in dirs[0].iterdir()}
        assert names == {
            "manifest.json", "equilibria.csv", "coeffs.csv",
            "s0_curve.csv", "s1_curve.csv", "switches.csv", "partition.csv",
            "sim_tau0.5.csv", "sim_tau1.4.csv", "sim_tau2.8.csv", "sim_tau2.9.csv",
        }

    def test_byte_identical_outputs(self, repro):
        _, dirs = repro
        first = {p.name: p.read_bytes() for p in dirs[0].glob("*.csv")}
        second = {p.name: p.read_bytes() for p in dirs[1].glob("*.csv")}
        assert first.keys() == second.keys()
        for name, blob in first.items():
            assert blob == second[name], f"{name} differs between runs"

    def test_analytic_bytes(self, repro):
        # sha256 of the analytic CSVs, recorded before positive_equilibrium
        # memoized its solves: the second run above reads memo hits, so these
        # literals, not the run-to-run comparison, pin the solver's bits
        digests = {
            "equilibria.csv": "93f1915a4794a2186aaf02ac9dfd2fe2ea0d078267af81c398d4ecea19502856",
            "coeffs.csv": "58975c25de40d473a5ffba4d133019a00de60190170170fb3dd6d81ce61134c1",
            "s0_curve.csv": "6505308d786460ead67ff7ff55d70e6d0052c1dd3e824acd5844cbc49547946c",
            "s1_curve.csv": "657eb5260edbeff31bd8e4b0f76eece7f0f4d7a8f557542197b7326035359f76",
            "switches.csv": "0dcba0be06d8b907acc704f94cf2bebd5094428ea293c0be9238db7596811052",
            "partition.csv": "5eac4fd7b41fa69f490f380dd8e58433a57d09223d7a218f414dbe61eba4b5d9",
        }
        _, dirs = repro
        for d in dirs:
            for name, digest in digests.items():
                assert hashlib.sha256((d / name).read_bytes()).hexdigest() == digest, name

    def test_simulation_bytes(self, repro):
        # sha256 of the four simulation CSVs: any change to a simulated float,
        # to the mesh or to the float formatting moves them
        digests = {
            "sim_tau0.5.csv": "c52bd6df056b15d30314936db60f38b148947010971dbe84293226bb72a6bd6c",
            "sim_tau1.4.csv": "7ea72bdf6f8c20a7c2460b7d0c238b93d9790d86f3edba44420df18b8515c25b",
            "sim_tau2.8.csv": "e1afde3508c517ba18afc52bde1b2d469b4778d291144b3990301c161a3d1e68",
            "sim_tau2.9.csv": "54a0f8b5e27b5b9046868ce2a4318975f4a180f99dbb0d20871d781b2ef650e9",
        }
        _, dirs = repro
        for name, digest in digests.items():
            assert hashlib.sha256((dirs[0] / name).read_bytes()).hexdigest() == digest, name

    def test_outputs_match_the_benchmark_reference(self, repro):
        # what perfbench checks on every reproduce item: the analytic bytes,
        # the simulation row counts, and every 1000th row and the last
        # within 1e-12 relative of the recorded floats
        ref = checks.bench_reference()["reproduce"]
        _, dirs = repro
        for name, digest in ref["analytic_sha256"].items():
            assert hashlib.sha256((dirs[0] / name).read_bytes()).hexdigest() == digest, name
        for name, sim in ref["simulations"].items():
            lines = (dirs[0] / name).read_text().splitlines()
            assert len(lines) - 1 == sim["rows"], name
            rows = [lines[i] for i in range(1, len(lines), 1000)] + [lines[-1]]
            assert len(rows) == len(sim["sample"]), name
            for row, want in zip(rows, sim["sample"]):
                got = [float(v) for v in row.split(",")]
                assert all(checks.rel_close(a, b, 1e-12) for a, b in zip(got, want)), (name, row)

    def test_manifest_lists_real_csvs(self, repro):
        _, dirs = repro
        manifest = load_manifest(dirs[0])
        assert manifest["subcommand"] == "reproduce"
        outputs = [Path(name) for name in manifest["outputs"]]
        assert len(outputs) == 10
        for path in outputs:
            assert path.is_file() and path.stat().st_size > 0
            header, rows = read_csv(path)
            assert rows, f"{path.name} has no data rows"
            assert all(len(r) == len(header) for r in rows)

    def test_switch_values(self, repro, scan_result):
        # the library's scan on the CLI grid, written bit for bit
        _, dirs = repro
        _, rows = read_csv(dirs[0] / "switches.csv")
        got = [(float(row[0]), float(row[6])) for row in rows]
        assert got == [(r.tau_star, r.residual) for r in scan_result.reports]
        assert all(residual < 1e-8 for _, residual in got)

    def test_checks_are_the_criteria_table(self, repro, reproduction):
        # reproduce and the acceptance gate evaluate one table, cli._CRITERIA,
        # on one delay grid and one set of runs, so their verdicts agree
        quantities, _ = reproduction
        want = []
        for name, criterion in cli._CRITERIA.items():
            passed, detail = criterion(quantities)
            want.append({"name": name, "passed": passed, "detail": detail})
        _, dirs = repro
        assert load_manifest(dirs[0])["checks"] == want

    def test_runs_read_the_grid_memo(self, tmp_path, monkeypatch):
        # from empty memos, one reproduce solves each delay once and builds
        # each delay's coefficients once: the runs at 0.5 and 2.9, which are
        # grid delays, and the analytic CSVs after them read the scan's memos
        monkeypatch.setattr(equilibria, "_memo", equilibria.ParamsMemo(equilibria._set_constants))
        monkeypatch.setattr(switch, "_coeff_memo", equilibria.ParamsMemo())
        solves, builds = collections.Counter(), collections.Counter()

        def counted(calls, fn, delay_arg):
            def wrapper(*args):
                calls[args[delay_arg]] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(equilibria, "_solve_positive", counted(solves, equilibria._solve_positive, 1))
        monkeypatch.setattr(switch, "linearize", counted(builds, switch.linearize, 2))
        assert main(["reproduce", "--out-dir", str(tmp_path)]) == 4
        assert {0.5, 1.4, 2.8, 2.9} <= solves.keys()
        assert max(solves.values()) == 1 and max(builds.values()) == 1
        assert len(builds) == 678

    @pytest.mark.parametrize("flag", ["--t-end", "--transient"])
    def test_window_flags_are_refused(self, tmp_path, flag):
        # the reproduction windows are fixed, so these flags would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", flag, "5", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_no_equilibrium_note(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NO_EQ_CFG)
        out = tmp_path / "out"
        assert main(["reproduce", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert "no positive equilibrium" in capsys.readouterr().out
        manifest = load_manifest(out)
        assert manifest["note"] == "no positive equilibrium"
        assert manifest["resolved"]["tau_max"] is None
        assert [Path(p).name for p in manifest["outputs"]] == ["equilibria.csv"]
        _, rows = read_csv(out / "equilibria.csv")
        assert all(r[4] == "" and r[5] == "" and r[6] == "" for r in rows)


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param("reproduce", ["--max-step=-1"], "max_step must be positive and finite",
                     id="reproduce-max-step-negative"),
        pytest.param("reproduce", ["--max-step", "1e-9"], "at most 10000000 are allowed",
                     id="reproduce-max-step-too-fine"),
        pytest.param("reproduce", ["--history", "bogus"], "history must be",
                     id="reproduce-history-bogus"),
        pytest.param("reproduce", ["--history=-1,1,1"], "history Q = -1.0",
                     id="reproduce-history-negative-triple"),
        pytest.param("reproduce", ["--history", "equilibrium*-1"],
                     "history Q = -3.1959158301552106", id="reproduce-history-negative-factor"),
        pytest.param("reproduce", ["--history", "equilibrium*nan"], "history Q = nan",
                     id="reproduce-history-nan-factor"),
        pytest.param("reproduce", ["--grid-step", "0.06"], "tau grid spacing",
                     id="reproduce-grid-step-0.06"),
        pytest.param("reproduce", ["--n-max", "0"], "n_max must be at least 1",
                     id="reproduce-n-max-0"),
        pytest.param("scan", ["--grid-step", "0.06"], "tau grid spacing", id="scan-grid-step-0.06"),
        pytest.param("scan", ["--n-max", "0"], "n_max must be at least 1", id="scan-n-max-0"),
        pytest.param("simulate", ["--tau", "0.5", "--history", "bogus"], "history must be",
                     id="simulate-history-bogus"),
        pytest.param("simulate", ["--tau", "0.5", "--t-end", "10", "--transient", "10"],
                     "need t_end > transient", id="simulate-transient-at-t-end"),
        pytest.param("sweep", ["--tau-max", "0.2", "--history", "bogus"], "history must be",
                     id="sweep-history-bogus"),
        pytest.param("sweep", ["--tau-max", "0.2", "--t-end", "10", "--transient", "10"],
                     "need t_end > transient", id="sweep-transient-at-t-end"),
    ],
)
def test_refused_input_writes_nothing(tmp_path, capsys, command, flags, message):
    # every rule on a run's inputs is checked before the first file is
    # written: reproduce scans and runs its simulations before its analytic CSVs
    out = tmp_path / "out"
    assert main([command, "--out-dir", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.iterdir())


class TestPlotScript:
    """scripts/plot_figures.py loads without matplotlib and finds its columns."""

    # the CSVs the plot functions read, as they glob them, and the columns they use
    USED = {
        "equilibria.csv": {"tau", "Q_positive", "M_positive", "E_positive", "E_trivial"},
        "coeffs.csv": {"tau", "b2", "b3"},
        "s*_curve.csv": {"tau", "S"},
        "switches.csv": {"tau_star"},
        "sim_tau*.csv": {"t", "Q", "M"},
    }

    @staticmethod
    def load_script():
        path = Path(__file__).resolve().parent.parent / "scripts" / "plot_figures.py"
        spec = importlib.util.spec_from_file_location("plot_figures", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    def test_used_columns_are_listed(self):
        source = Path(self.load_script().__file__).read_text()
        used = set(re.findall(r'(?:cols|switches)\["(\w+)"\]', source))
        assert used == set().union(*self.USED.values())

    def test_read_columns_finds_every_used_column(self, repro):
        script = self.load_script()
        _, dirs = repro
        for pattern, names in self.USED.items():
            paths = sorted(dirs[0].glob(pattern))
            assert paths, pattern
            for path in paths:
                cols = script.read_columns(path)
                assert names <= cols.keys(), (path.name, names - cols.keys())
                for name in names:
                    assert cols[name] and all(type(v) is float for v in cols[name]), (path.name, name)
        # plot_simulations titles each run with the delay in its file name
        assert sorted(float(p.stem[7:]) for p in dirs[0].glob("sim_tau*.csv")) == [0.5, 1.4, 2.8, 2.9]


class TestExitCodes:
    """Valid configs end in an exit code of {0, 2, 3, 4}, never in a traceback."""

    def test_cancelling_coefficients(self, tmp_path):
        cfg = str(write_cfg(tmp_path, CANCELLING_CFG))
        out = str(tmp_path / "out")
        assert main(["coeffs", "--config", cfg, "--out-dir", out]) == 0
        assert main(["scan", "--config", cfg, "--out-dir", out]) in (0, 3)
        assert main(["reproduce", "--config", cfg, "--out-dir", out]) in (0, 3)

    def test_overflowing_cubic_coefficients(self, tmp_path, capsys):
        # b1 = 1e110: b1 ** 3 in the cubic overflows, and * would not raise
        cfg = str(write_cfg(tmp_path, BASE_CFG.replace("k = 2.8", "k = 1e55").replace("a = 6570", "a = 1e65")))
        for cmd in ("scan", "reproduce"):
            argv = [cmd, "--config", cfg, "--out-dir", str(tmp_path / cmd), "--grid-step", "0.05"]
            assert main(argv) == 3, cmd
            assert "cubic with b1=1e+110" in capsys.readouterr().err

    def test_negative_stage_state_with_fractional_r(self, tmp_path):
        # mu = 200 caps the step at 1.3925/mu, and from M = 100 stage 4 of a
        # step takes M to about -0.09*M, where M**7.5 would be complex; f
        # treats it as no feedback, and the run goes on to exit 0
        cfg = write_cfg(tmp_path, BASE_CFG.replace("r = 7", "r = 7.5").replace("mu = 0.02", "mu = 200"))
        p = dataclasses.replace(parse_config(cfg)[0], tau=3.0)
        stage_M = []

        @dataclasses.dataclass(frozen=True)
        class NotedHill(HillRates):
            def f(self, M):
                stage_M.append(M)
                return super().f(M)

        history = SystemState(1.0, 100.0, 1.0)
        checks.composed_trajectory(p, history, 1.0, rates=NotedHill(**dataclasses.asdict(p.rates)))
        assert min(stage_M) < 0.0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                     "--tau", "3.0", "--t-end", "50", "--transient", "5", "--history", "1,100,1"]) == 0

    def test_log_box_slice_runs_with_the_default_step(self, tmp_path):
        # draws of the 10^+-2 box that simulate at tau_max/2 refused (exit 2)
        # or stopped at the floor (exit 3) when the step was tau/64 with only
        # k and mu checked, of those whose capped run takes at most 10k steps
        box = checks.log_box(7, 120, 2)
        assert len(box) == 75
        assert parse_config(write_cfg(tmp_path, DRAW_43_CFG))[0] == box[43]
        for draw in (20, 39, 43, 56, 78, 79, 88, 91, 93, 94, 101, 110):
            p, out = box[draw], tmp_path / str(draw)
            tau = tau_max(p) / 2
            cfg = write_cfg(tmp_path, model_cfg({**dataclasses.asdict(p), **dataclasses.asdict(p.rates)}))
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--tau", repr(tau),
                         "--t-end", "300", "--transient", "100"]) == 0, draw
            if draw in (43, 56):
                # the verdict and the state at t_end, relative to its largest
                # component, hold at a quarter of the step
                runs = [cli._simulate_once(p, tau, 300.0, 100.0, step, None)
                        for step in (None, load_manifest(out)["resolved"]["dt"] / 4)]
                assert [verdict for _, verdict, _ in runs] == ["converging"] * 2, draw
                coarse, fine = (traj.state(300.0) for traj, _, _ in runs)
                assert max(abs(x - y) for x, y in zip(coarse, fine)) <= 1e-3 * max(fine), draw

    def test_fuzzed_configs(self, tmp_path, capsys):
        # the reference scalars scaled by 10^U(-8, 8), r in [1, 1e4], one set
        # in five without apoptosis; about 100 grid points per run, and scan
        # only where that spacing passes its 0.05 cap
        rng = random.Random(20091)
        ref = {"delta": 0.01, "gamma": 0.2, "mu": 0.02, "k": 2.8,
               "beta0": 0.5, "G": 0.04, "a": 6570.0, "K": 0.0382}
        out = str(tmp_path / "out")
        for _ in range(150):
            v = {name: x * 10.0 ** rng.uniform(-8.0, 8.0) for name, x in ref.items()}
            if rng.random() < 0.2:
                v["gamma"] = 0.0
            v["r"] = 10.0 ** rng.uniform(0.0, 4.0)
            path = write_cfg(tmp_path, model_cfg(v))
            try:
                tm = tau_max(parse_config(path)[0])
            except ConfigError:
                tm = None
            step = (tm if tm is not None and math.isfinite(tm) else 10.0) / 100.0
            commands = ["equilibria", "coeffs"] + (["scan"] if step <= 0.05 else [])
            for command in commands:
                code = main([command, "--config", str(path), "--out-dir", out,
                             "--grid-step", repr(step)])
                assert code in (0, 2, 3, 4), (command, v)
            capsys.readouterr()
