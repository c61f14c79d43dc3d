"""Config files: sectioned key = value text mapped onto model parameters.

Three sections are recognized: [model] and [rates.hill] carry the required
physical parameters, the optional [run] section carries run defaults that
command-line flags may override.  Parsing is hand-rolled so every error can
name the offending key and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .model import HillRates, ModelParams


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


# the config schema is the dataclass fields; under postponed annotations a
# field's type is its annotation string
_MODEL_KEYS = {f"model.{f.name}": _float for f in fields(ModelParams) if f.name not in ("tau", "rates")}
_MODEL_KEYS.update({f"rates.hill.{f.name}": _float for f in fields(HillRates)})
_CASTERS = {"float | None": _float, "int": _int, "str | None": str}
_RUN_KEYS = {f"run.{f.name}": _CASTERS[f.type] for f in fields(RunOptions)}
_SECTIONS = ("model", "rates.hill", "run")


def default_config_path() -> Path:
    """The packaged reference parameter file."""
    return Path(str(resources.files("hemodelay").joinpath("default.cfg")))


def parse_config(path: str | Path) -> tuple[ModelParams, RunOptions]:
    """Read and type a config file; ModelParams checks the values.

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

    typed: dict[str, dict[str, float | int | str]] = {s: {} for s in _SECTIONS}
    for full, (raw_value, line_no) in seen.items():
        caster = _MODEL_KEYS.get(full) or _RUN_KEYS[full]
        section, _, key = full.rpartition(".")
        try:
            typed[section][key] = caster(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {full} {exc}, got {raw_value!r}") from None

    opts = RunOptions(**typed["run"])
    try:
        params = ModelParams(
            **typed["model"],
            tau=opts.tau if opts.tau is not None else 0.0,
            rates=HillRates(**typed["rates.hill"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params, opts


def default_params(tau: float = 0.0) -> ModelParams:
    """The reference parameter set of the packaged default.cfg, at delay tau."""
    return replace(parse_config(default_config_path())[0], tau=tau)
