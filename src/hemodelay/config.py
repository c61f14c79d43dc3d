"""Config files: sectioned key = value text mapped onto model parameters.

Three sections are recognized: [model] and [rates.hill] carry the required
physical parameters, the optional [run] section carries run defaults that
command-line flags may override.  Parsing is hand-rolled so every error can
name the offending key and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .model import HillRates, ModelParams, validate


class ConfigError(Exception):
    """Unusable configuration: syntax, unknown/missing keys, bad values."""


@dataclass(frozen=True)
class RunOptions:
    """Run-level knobs; None means the subcommand's built-in default applies."""

    tau: float | None = None
    t_end: float | None = None
    transient: float | None = None
    max_step: float | None = None
    history: str | None = None  # "equilibrium*FACTOR" or "Q,M,E"
    grid_step: float | None = None
    n_max: int = 1
    seed: int | None = None


def _float(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError("expects a number") from None
    if not math.isfinite(v):
        raise ValueError("expects a finite number")
    return v


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expects an integer") from None


def _str(raw: str) -> str:
    return raw


_MODEL_KEYS = {
    "model.delta": _float,
    "model.gamma": _float,
    "model.mu": _float,
    "model.k": _float,
    "rates.hill.beta0": _float,
    "rates.hill.G": _float,
    "rates.hill.a": _float,
    "rates.hill.K": _float,
    "rates.hill.r": _float,
}
_RUN_KEYS = {
    "run.tau": _float,
    "run.t_end": _float,
    "run.transient": _float,
    "run.max_step": _float,
    "run.history": _str,
    "run.grid_step": _float,
    "run.n_max": _int,
    "run.seed": _int,
}
_SECTIONS = ("model", "rates.hill", "run")


def default_config_path() -> Path:
    """The packaged reference parameter file."""
    return Path(str(resources.files("hemodelay").joinpath("default.cfg")))


def parse_config(path: str | Path) -> tuple[ModelParams, RunOptions]:
    """Read, type and validate a config file.

    The returned ModelParams carries tau from run.tau when present, else 0;
    subcommands overlay their --tau flag on top.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc

    seen: dict[str, tuple[str, int]] = {}
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: malformed section header {raw!r}")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, _, value = line.partition("=")
        full = f"{section}.{key.strip()}"
        if full not in _MODEL_KEYS and full not in _RUN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {full}")
        if full in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key {full} (first at line {seen[full][1]})"
            )
        seen[full] = (value.strip(), line_no)

    missing = sorted(k for k in _MODEL_KEYS if k not in seen)
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    typed: dict[str, float | int | str] = {}
    for full, (raw_value, line_no) in seen.items():
        caster = _MODEL_KEYS.get(full) or _RUN_KEYS[full]
        try:
            typed[full] = caster(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {full} {exc}, got {raw_value!r}") from None

    opts = RunOptions(**{k[len("run."):]: v for k, v in typed.items() if k in _RUN_KEYS})
    params = ModelParams(
        delta=typed["model.delta"],
        gamma=typed["model.gamma"],
        tau=opts.tau if opts.tau is not None else 0.0,
        mu=typed["model.mu"],
        k=typed["model.k"],
        rates=HillRates(
            beta0=typed["rates.hill.beta0"],
            G=typed["rates.hill.G"],
            a=typed["rates.hill.a"],
            K=typed["rates.hill.K"],
            r=typed["rates.hill.r"],
        ),
    )
    bad = validate(params)
    if bad:
        raise ConfigError("; ".join(bad))
    return params, opts
