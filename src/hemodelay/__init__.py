"""Delayed hematopoiesis model: equilibria, stability switches, simulation.

A three-compartment blood production model with a maturation delay.  The
package computes its steady states, analyzes delay-dependent stability of
the linearization through the imaginary-axis crossing geometry, and
integrates the nonlinear system directly.  The `hemodelay` command exposes
the same pipeline and writes CSV artifacts.
"""

from .config import ConfigError, RunOptions, default_config_path, default_params, parse_config
from .cubic import real_cubic_roots
from .dde import (
    DivergenceError,
    InvariantViolationError,
    PeriodEstimate,
    Trajectory,
    classify_asymptotics,
    detect_period,
    integrate,
    scaled_equilibrium_history,
)
from .equilibria import (
    Equilibrium,
    hill_equilibrium_closed_form,
    positive_equilibrium,
    tau_max,
    trivial_equilibrium,
)
from .linearization import (
    CharCoeffs,
    LinCoeffs,
    char_coeffs,
    linearize,
    routh_hurwitz_tau0,
)
from .model import (
    HillRates,
    InvalidStateError,
    ModelParams,
    NumericalError,
    SystemState,
    rhs,
)
from .switch import (
    DegenerateDenominatorError,
    OmegaRoot,
    ScanResult,
    SnCurve,
    SwitchReport,
    char_residual,
    positive_root_intervals,
    positive_roots_h,
    scan,
    sn_value,
    theta,
)

__version__ = "0.1.0"

