"""Steady states of the delayed production model and their delay threshold.

The model always has the extinction steady state (0, 0, f(0)/k).  A positive
steady state exists exactly when the effective re-entry reward at zero pool
size beats death plus differentiation, i.e.

    delta + g'(0) < (2*exp(-gamma*tau) - 1) * beta(0, f(0)/k),

which for gamma > 0 is an upper bound on the delay:

    tau < tau_max = (1/gamma) * log( 2*b00 / (delta + g'(0) + b00) ),

with b00 = beta(0, f(0)/k).  The positive steady state solves

    (2*exp(-gamma*tau) - 1) * beta(Q, E(Q)) = delta + g(Q)/Q,

where E(Q) = f(g(Q)/mu)/k chains the two fast compartments; the left side is
decreasing in Q, the right side nondecreasing, so the root is unique, and
bisection on the sign of the residual pins it down to adjacent floats.

An accepted delay is one float: checked_delay takes a float or an int
within float range, refuses any other type, a negative delay and NaN, and
returns float(tau) + 0.0, so an int becomes its float and -0.0 becomes
0.0.  Every entry point here and switch.linear_coeffs compute with that
float, and Equilibrium.tau is it.

positive_equilibrium solves each (params, tau) pair once: the analytic chain
asks for the same delays several times (the CLI rows, positive_root_intervals
and scan each walk the whole grid).  The memo (a ParamsMemo, which the switch
module uses for its coefficients too) is one table for the most recent
parameter object, keyed by the delay float; a call with another parameter
object, even an == one, starts a new table, together with the constants
every solve of the set shares (tau_max, the residual closure, the
tolerance), and a miss that finds the table full (_MEMO_POINTS) empties it.
A NumericalError is not cached: it is raised again on every call.  The memo
is module state meant for one thread of calls; a solve depends on
(params, tau) alone.

The residual is the Hill residual written out, as dde.integrate's stepper
writes out the vector field, and the bisection is centred on the
closed-form root x: the window [x - w, x + w], w = max(1e-14*x,
64*eps*S/|s|) with s the residual's slope at x and S the summed magnitude
of its terms, is used only if the residual is positive at its left end and
not at its right end.  The bisection takes the same midpoints with or
without the window, but evaluates the residual only at those inside it;
the side of the others is known.  Without a usable window the window is
the whole axis (0, inf): the plain bisection.  The equality needs the float
Hill residual's sign to be monotone outside the window, which
tests/test_equilibria.py::TestHillWindow checks against the plain
bisection; the residual at the bracket's low end, which decides whether
there is a root at all, is evaluated either way.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .model import ModelParams, NumericalError, SystemState, reward

_BRACKET_LO = 1e-12  # lower end of the pool-size bracket
_MEMO_POINTS = 4096  # entries kept for one parameter set; the reference grid has 598


class ParamsMemo:
    """Values for the most recent parameter object, keyed by delay.

    The key is the delay float its users make with checked_delay, which
    refuses NaN, so 1 and 1.0 share an entry, as 0, 0.0 and -0.0 do.  A
    parameter object that is not the stored one starts a new table, even
    an == one, and so does storing into a full one (_MEMO_POINTS).  A table
    is replaced together with its parameter object, so it only ever holds
    that set's values.  With per_set, a new set also gets per_set(p) in
    `constants`, kept when a full table empties; if per_set raises, the
    memo keeps its old set.
    """

    MISSING = object()  # what get returns for a delay not stored

    def __init__(self, per_set: Callable[[ModelParams], object] | None = None) -> None:
        self.params: ModelParams | None = None
        self.table: dict[float, object] = {}
        self.per_set = per_set
        self.constants: object = None

    def _start(self, p: ModelParams) -> dict[float, object]:
        constants = None if self.per_set is None else self.per_set(p)
        self.params, self.table, self.constants = p, {}, constants
        return self.table

    def get(self, p: ModelParams, tau: float) -> object:
        table = self.table if p is self.params else self._start(p)
        return table.get(tau, self.MISSING)

    def put(self, p: ModelParams, tau: float, value: object) -> None:
        table = self.table if p is self.params else self._start(p)
        if len(table) >= _MEMO_POINTS:
            self.table = table = {}
        table[tau] = value


def checked_delay(tau) -> float:
    """tau as the float the chain computes with: float(tau) + 0.0.

    ValueError unless tau is a float or an int within float range, and for
    a negative delay and NaN.
    """
    if not (isinstance(tau, float) or isinstance(tau, int) and tau <= sys.float_info.max):
        raise ValueError(f"tau must be a float or an int within float range, got {type(tau).__name__}")
    if not tau >= 0.0:  # NaN fails too
        raise ValueError("tau must be nonnegative")
    return float(tau) + 0.0


class Equilibrium(NamedTuple):
    kind: str  # "trivial" or "positive"
    Q: float
    M: float
    E: float
    tau: float  # delay at which the equilibrium was computed

    @property
    def state(self) -> SystemState:
        return SystemState(self.Q, self.M, self.E)


def tau_max(p: ModelParams) -> float | None:
    """Delay threshold below which a positive steady state exists.

    Returns None when delta + g'(0) >= beta(0, f(0)/k), in which case no
    delay admits a positive steady state; returns math.inf for gamma = 0
    (no in-cycle apoptosis, the reward factor stays at 2 for every delay).
    Raises NumericalError when beta(0, f(0)/k) is not finite.
    """
    b00 = p.rates.beta(0.0, p.rates.f(0.0) / p.k)
    if not math.isfinite(b00):
        raise NumericalError(f"beta(0, f(0)/k) = {b00!r} is not finite")
    thr = p.delta + p.rates.g_prime(0.0)
    if not thr < b00:
        return None
    if p.gamma == 0.0:
        return math.inf
    return math.log(2.0 * b00 / (thr + b00)) / p.gamma


def trivial_equilibrium(p: ModelParams) -> Equilibrium:
    """The extinction steady state (0, 0, f(0)/k), at the delay checked_delay(p.tau)."""
    return Equilibrium("trivial", 0.0, 0.0, p.rates.f(0.0) / p.k, checked_delay(p.tau))


def _residual_fn(p: ModelParams) -> Callable[[float, float], float]:
    """The balance residual (Q, alpha) -> alpha*beta(Q, E(Q)) - delta - g(Q)/Q of p,
    with the operations of HillRates.beta, g and f written out in their order."""
    delta, mu, k, rates = p.delta, p.mu, p.k, p.rates
    beta0, G, a, K, r = rates.beta0, rates.G, rates.a, rates.K, rates.r

    def hill_residual(Q: float, alpha: float) -> float:
        gQ = G * Q
        M = gQ / mu
        if M <= 0.0:  # the branches of HillRates.f
            fM = a
        else:
            try:
                fM = a / (1.0 + K * M**r)
            except OverflowError:
                fM = 0.0
        E = fM / k
        return alpha * (beta0 * E / (1.0 + E)) - delta - gQ / Q

    return hill_residual


def _set_constants(p: ModelParams) -> tuple:
    """What every solve of p shares: tau_max(p), the residual and its tolerance."""
    return tau_max(p), _residual_fn(p), 1e-12 * (p.delta + p.rates.g_prime(0.0) + 1.0)


_memo = ParamsMemo(_set_constants)  # the positive_equilibrium memo


def positive_equilibrium(p: ModelParams, tau: float) -> Equilibrium | None:
    """Unique positive steady state at delay `tau`, or None past the threshold.

    `tau` is a float or an int within float range, taken as float(tau) +
    0.0; any other type, a negative delay and NaN raise ValueError.  The
    pool size is bracketed ([1e-12, doubling upward from 1]) and the
    bracket is bisected down to adjacent floats; the midpoint is the root,
    and a balance residual there of 1e-12*(delta + g'(0) + 1) or more
    raises NumericalError.  The result depends on (p, tau) alone; it is
    memoized for the most recent parameter object (see the module
    docstring).
    """
    tau = checked_delay(tau)
    eq = _memo.get(p, tau)
    if eq is _memo.MISSING:
        eq = _solve_positive(p, tau, _memo.constants)
        _memo.put(p, tau, eq)
    return eq


def _solve_positive(p: ModelParams, tau: float, constants: tuple | None = None) -> Equilibrium | None:
    """positive_equilibrium without the memo, given p's _set_constants if known.

    One loop expands the bracket and one bisects it; each evaluates the
    residual only inside the window from _hill_window, so the steps, and
    the returned float, are those of the plain bisection.
    """
    tm, residual, tol = constants or _set_constants(p)
    if tm is None or not tau < tm:
        return None
    alpha = reward(p, tau) - 1.0
    # a few ulps below tau_max the threshold test can pass while the residual
    # at 0+ rounds to <= 0: no positive root to bracket, as past the threshold.
    # Evaluated with or without a window, so a window cannot turn None into a root.
    if not residual(_BRACKET_LO, alpha) > 0.0:
        return None
    a, b = _hill_window(p, tau, alpha, residual)
    hi = 1.0
    while hi <= a or (hi < b and residual(hi, alpha) > 0.0):
        hi *= 2.0
        if hi > 2.0**200:
            raise NumericalError("no sign change found while expanding the bracket")
    # bisect down to adjacent floats; outside the window the side of the
    # root is known without the residual
    lo, mid = _BRACKET_LO, 0.5 * (_BRACKET_LO + hi)
    while lo < mid < hi:
        if mid <= a or (mid < b and residual(mid, alpha) > 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    Q = mid
    r_end = abs(residual(Q, alpha))
    if not r_end < tol:
        raise NumericalError(f"equilibrium residual {r_end:.3e} above tolerance {tol:.3e}")
    M = p.rates.g(Q) / p.mu
    E = p.rates.f(M) / p.k
    return tuple.__new__(Equilibrium, ("positive", Q, M, E, tau))


def _hill_window(
    p: ModelParams, tau: float, alpha: float, residual: Callable[[float, float], float]
) -> tuple[float, float]:
    """Pool sizes (a, b) around the Hill root x with residual(a) > 0 >= residual(b).

    The window is x -+ max(1e-14*x, 64*eps*S/|s|), with the slope |s| =
    (delta+G)*r*(1 - k*E*/a)/(x*(1 + E*)) and S = 2*(delta+G) at the root;
    (0, inf) when the numerator rounds to <= 0, the closed form overflows,
    the slope is not positive or the check fails.
    """
    hr = p.rates
    try:
        x, E = _hill_root(p, tau, alpha)
        dg = p.delta + hr.G
        s = dg * hr.r * (1.0 - p.k * E / hr.a) / (x * (1.0 + E))
    except (ValueError, ArithmeticError):
        return 0.0, math.inf
    if s > 0.0:
        w = max(1e-14 * x, 64.0 * sys.float_info.epsilon * (2.0 * dg) / s)
        if x - w > 0.0 and residual(x - w, alpha) > 0.0 >= residual(x + w, alpha):
            return x - w, x + w
    return 0.0, math.inf


def _hill_root(p: ModelParams, tau: float, alpha: float) -> tuple[float, float]:
    """(Q*, E*) of the Hill closed form at alpha = reward(p, tau) - 1."""
    hr = p.rates
    dg = p.delta + hr.G
    num = hr.a * hr.beta0 * alpha - dg * (hr.a + p.k)
    if not num > 0.0:
        raise ValueError(f"no positive steady state at tau={tau}: numerator {num!r} <= 0")
    Q = (p.mu / hr.G) * hr.K ** (-1.0 / hr.r) * (num / (p.k * dg)) ** (1.0 / hr.r)
    return Q, dg / (hr.beta0 * alpha - dg)


def hill_equilibrium_closed_form(p: ModelParams, tau: float) -> Equilibrium:
    """Positive steady state of the Hill-rate family in closed form.

    With beta(E) = beta0*E/(1+E), g(Q) = G*Q and f(M) = a/(1+K*M**r), the
    balance equation is solvable explicitly:

        E* = (delta+G) / (beta0*alpha - (delta+G)),      alpha = 2*exp(-gamma*tau)-1
        Q* = (mu/G) * K**(-1/r)
             * ( (a*beta0*alpha - (delta+G)*(a+k)) / (k*(delta+G)) )**(1/r)
        M* = (G/mu) * Q*

    Q* is the centre of positive_equilibrium's window; the float it returns
    still comes from the residual's signs.  Raises ValueError for a delay
    positive_equilibrium refuses, at or past tau_max, when no
    positive steady state exists, or when the numerator above rounds to <= 0
    (a few ulps below tau_max).
    """
    hr = p.rates
    tm = tau_max(p)
    if tm is None:
        raise ValueError("no positive steady state for any delay")
    tau = checked_delay(tau)
    if not tau < tm:
        raise ValueError(f"tau={tau} outside [0, tau_max={tm})")
    Q, E = _hill_root(p, tau, reward(p, tau) - 1.0)
    return Equilibrium("positive", Q, (hr.G / p.mu) * Q, E, tau)
