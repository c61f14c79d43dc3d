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

positive_equilibrium solves each (params, tau) pair once: the analytic chain
asks for the same delays several times (the CLI rows, positive_root_intervals
and scan each walk the whole grid).  The memo is one table for the most
recent parameter set, keyed by repr(tau) so that 0, 0.0 and -0.0 stay apart;
a call with a parameter set that is neither that object nor == to it starts
a new table, and so does a solve that finds the table full (_MEMO_POINTS).
A NumericalError is not cached: it is raised again on every call.  The memo
is module state meant for one thread of calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .model import HillRates, ModelParams, NumericalError, SystemState, bisect_flip, reward

_BRACKET_LO = 1e-12  # lower end of the pool-size bracket
_MEMO_POINTS = 4096  # solves kept for one parameter set; the reference grid has 598

# the positive_equilibrium memo: the most recent parameter set and its
# solves, keyed by repr(tau); replaced as a pair, so a table only ever holds
# the solves of the parameter set it is stored with
_memo: tuple[ModelParams | None, dict[str, Equilibrium | None]] = (None, {})


@dataclass(frozen=True)
class Equilibrium:
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
    """The extinction steady state (0, 0, f(0)/k)."""
    return Equilibrium("trivial", 0.0, 0.0, p.rates.f(0.0) / p.k, p.tau)


def _residual_fn(p: ModelParams, alpha: float) -> Callable[[float], float]:
    """The balance residual Q -> alpha*beta(Q, E(Q)) - delta - g(Q)/Q of one solve."""
    beta, g, f = p.rates.beta, p.rates.g, p.rates.f
    delta, mu, k = p.delta, p.mu, p.k

    def residual(Q: float) -> float:
        gQ = g(Q)
        return alpha * beta(Q, f(gQ / mu) / k) - delta - gQ / Q

    return residual


def positive_equilibrium(p: ModelParams, tau: float) -> Equilibrium | None:
    """Unique positive steady state at delay `tau`, or None past the threshold.

    The pool size is bracketed ([1e-12, doubling upward from 1]) and the
    bracket is bisected down to adjacent floats; the midpoint is the root,
    and a balance residual there of 1e-12*(delta + g'(0) + 1) or more raises
    NumericalError.  Results are memoized for the most recent parameter set
    (see the module docstring).
    """
    global _memo
    if not tau >= 0.0:  # NaN fails too
        raise ValueError("tau must be nonnegative")
    memo_p, table = _memo
    if p is not memo_p and not p == memo_p:
        table = {}
        _memo = (p, table)
    key = repr(tau)
    if key in table:
        return table[key]
    eq = _solve_positive(p, tau)
    if len(table) >= _MEMO_POINTS:
        table = {}
        _memo = (p, table)
    table[key] = eq
    return eq


def _solve_positive(p: ModelParams, tau: float) -> Equilibrium | None:
    """positive_equilibrium without the memo."""
    tm = tau_max(p)
    if tm is None or not tau < tm:
        return None
    alpha = reward(p, tau) - 1.0
    residual = _residual_fn(p, alpha)

    # a few ulps below tau_max the threshold test can pass while the residual
    # at 0+ rounds to <= 0: no positive root to bracket, as past the threshold
    if not residual(_BRACKET_LO) > 0.0:
        return None
    hi = 1.0
    while residual(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0**200:
            raise NumericalError("no sign change found while expanding the bracket")
    lo, hi = bisect_flip(lambda Q: residual(Q) > 0.0, _BRACKET_LO, hi)
    Q = 0.5 * (lo + hi)
    r_end = abs(residual(Q))
    tol = 1e-12 * (p.delta + p.rates.g_prime(0.0) + 1.0)
    if not r_end < tol:
        raise NumericalError(f"equilibrium residual {r_end:.3e} above tolerance {tol:.3e}")
    M = p.rates.g(Q) / p.mu
    E = p.rates.f(M) / p.k
    return Equilibrium("positive", Q, M, E, tau)


def hill_equilibrium_closed_form(p: ModelParams, tau: float) -> Equilibrium:
    """Positive steady state of the Hill-rate family in closed form.

    With beta(E) = beta0*E/(1+E), g(Q) = G*Q and f(M) = a/(1+K*M**r), the
    balance equation is solvable explicitly:

        E* = (delta+G) / (beta0*alpha - (delta+G)),      alpha = 2*exp(-gamma*tau)-1
        Q* = (mu/G) * K**(-1/r)
             * ( (a*beta0*alpha - (delta+G)*(a+k)) / (k*(delta+G)) )**(1/r)
        M* = (G/mu) * Q*

    Used as the independent cross-check of the generic root-finder.
    Raises ValueError outside [0, tau_max), when no positive steady state
    exists, or when the numerator above rounds to <= 0 (a few ulps below
    tau_max); TypeError for non-Hill rates.
    """
    hr = p.rates
    if not isinstance(hr, HillRates):
        raise TypeError("closed form requires HillRates")
    tm = tau_max(p)
    if tm is None:
        raise ValueError("no positive steady state for any delay")
    if not 0.0 <= tau < tm:
        raise ValueError(f"tau={tau} outside [0, tau_max={tm})")
    alpha = reward(p, tau) - 1.0
    dg = p.delta + hr.G
    num = hr.a * hr.beta0 * alpha - dg * (hr.a + p.k)
    if not num > 0.0:
        raise ValueError(f"no positive steady state at tau={tau}: numerator {num!r} <= 0")
    Q = (p.mu / hr.G) * hr.K ** (-1.0 / hr.r) * (num / (p.k * dg)) ** (1.0 / hr.r)
    M = (hr.G / p.mu) * Q
    E = dg / (hr.beta0 * alpha - dg)
    return Equilibrium("positive", Q, M, E, tau)
