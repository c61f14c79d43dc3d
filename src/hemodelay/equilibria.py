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
and scan each walk the whole grid).  The memo (a ParamsMemo, which the switch
module uses for its coefficients too) is one table for the most recent
parameter set, keyed by the delay so that 0, 0.0 and -0.0 stay apart (a
nonzero float is its own key, any other delay a tuple); a call
with a parameter set that is neither that object nor == to it starts a new
table, and so does a miss that finds the table full (_MEMO_POINTS).  A
NumericalError is not cached: it is raised again on every call.  The memo is
module state meant for one thread of calls.

A solve whose table's most recent entry is an equilibrium starts from a
hint: the line through the table's last two entries, evaluated at tau, when
both are equilibria at different delays, tau is a float and the line's
value lies within a factor 2 of the last root; the last root otherwise.  A
secant walk from the hint gives a root estimate x and slope s, and the
window [x - w, x + w], w = max(1e-14*x, 64*eps*S/|s|) with S the summed
magnitude of the residual's terms, is used only if the residual is positive
at its left end and not at its right end.  The bisection takes the same
midpoints with or without the window, but evaluates the residual only at
those inside it; the side of the others is known.  Without a usable window
(the first solve of a set, a walk that does not settle, a window that fails
its check) the window is the whole axis (0, inf).  The equality rests on the
sign of the float residual being monotone outside the window, a
precondition model.RateFunctions states; the residual at the bracket's low
end, which decides whether there is a root at all, is evaluated with or
without a window.  For rates of exactly type HillRates the residual is
written out, as model.vector_field writes out the vector field.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .model import HillRates, ModelParams, NumericalError, SystemState, reward

_BRACKET_LO = 1e-12  # lower end of the pool-size bracket
_MEMO_POINTS = 4096  # entries kept for one parameter set; the reference grid has 598
_SECANT_STEPS = 12  # secant steps from a hint before the plain bracket is used


class ParamsMemo:
    """Values for the most recent parameter set, keyed by delay.

    A nonzero float delay is its own key, and any other delay's key is
    (tau, copysign(1.0, tau), type(tau)): two delays share a key exactly
    when they are the same number of the same type, so 0, 0.0 and -0.0 stay
    apart.  A NaN delay is never stored.  get and put skip the == check for
    the stored parameter object itself.  A parameter set that is
    neither the stored object nor == to it starts a new table, and so does
    storing into a full one (_MEMO_POINTS).  A table is replaced together
    with its parameter set, so it only ever holds that set's values.
    """

    MISSING = object()  # what get returns for a delay not stored

    def __init__(self) -> None:
        self.params: ModelParams | None = None
        self.table: dict[tuple, object] = {}

    def table_for(self, p: ModelParams) -> dict[tuple, object]:
        if p is not self.params and not p == self.params:
            self.params, self.table = p, {}
        return self.table

    def get(self, p: ModelParams, tau: float) -> object:
        table = self.table if p is self.params else self.table_for(p)
        return table.get(_delay_key(tau), self.MISSING)

    def put(self, p: ModelParams, tau: float, value: object) -> None:
        if tau != tau:
            return  # a NaN key would never be found again
        table = self.table if p is self.params else self.table_for(p)
        if len(table) >= _MEMO_POINTS:
            self.table = table = {}
        table[_delay_key(tau)] = value


def _delay_key(tau: float) -> object:
    if tau and type(tau) is float:
        return tau  # a nonzero float; no tuple key equals it
    return tau, math.copysign(1.0, tau), type(tau)


_memo = ParamsMemo()  # the positive_equilibrium memo


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
    """The extinction steady state (0, 0, f(0)/k)."""
    return Equilibrium("trivial", 0.0, 0.0, p.rates.f(0.0) / p.k, p.tau)


def _residual_fn(p: ModelParams, alpha: float) -> Callable[[float], float]:
    """The balance residual Q -> alpha*beta(Q, E(Q)) - delta - g(Q)/Q of one solve.

    Rates of exactly type HillRates are evaluated inline, as in
    model.vector_field, with the same floats as the composition of beta, g
    and f that every other RateFunctions gets.
    """
    delta, mu, k = p.delta, p.mu, p.k
    if type(p.rates) is HillRates:
        return _hill_residual(p.rates, alpha, delta, mu, k)
    beta, g, f = p.rates.beta, p.rates.g, p.rates.f

    def residual(Q: float) -> float:
        gQ = g(Q)
        return alpha * beta(Q, f(gQ / mu) / k) - delta - gQ / Q

    return residual


def _hill_residual(rates: HillRates, alpha: float, delta: float, mu: float, k: float):
    """_residual_fn's closure with HillRates.beta, g and f written out."""
    beta0, G, a, K, r = rates.beta0, rates.G, rates.a, rates.K, rates.r

    def residual(Q: float) -> float:
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

    return residual


def positive_equilibrium(p: ModelParams, tau: float) -> Equilibrium | None:
    """Unique positive steady state at delay `tau`, or None past the threshold.

    The pool size is bracketed ([1e-12, doubling upward from 1]) and the
    bracket is bisected down to adjacent floats; the midpoint is the root,
    and a balance residual there of 1e-12*(delta + g'(0) + 1) or more raises
    NumericalError.  Results are memoized for the most recent parameter set,
    and the last two solves of that set give the hint of the next one (see
    the module docstring).
    """
    if not tau >= 0.0:  # NaN fails too
        raise ValueError("tau must be nonnegative")
    eq = _memo.get(p, tau)
    if eq is _memo.MISSING:
        solved = reversed(_memo.table.values())
        last, prev = next(solved, None), next(solved, None)
        hint = None if last is None else last.Q
        # the line through the last two solves; not drawn for a non-float
        # delay, whose arithmetic with floats can raise (a Decimal does)
        if last is not None and prev is not None and last.tau != prev.tau and type(tau) is float:
            guess = hint + (hint - prev.Q) * ((tau - last.tau) / (last.tau - prev.tau))
            if 0.5 * hint < guess < 2.0 * hint:
                hint = guess
        eq = _solve_positive(p, tau, hint)
        _memo.put(p, tau, eq)
    return eq


def _solve_positive(p: ModelParams, tau: float, hint: float | None = None) -> Equilibrium | None:
    """positive_equilibrium without the memo, warm-started from the pool size `hint`.

    One loop expands the bracket and one bisects it; each evaluates the
    residual only inside the window from _window, so the steps, and the
    returned float, are those of the solve without a hint.
    """
    tm = tau_max(p)
    if tm is None or not tau < tm:
        return None
    alpha = reward(p, tau) - 1.0
    residual = _residual_fn(p, alpha)
    # a few ulps below tau_max the threshold test can pass while the residual
    # at 0+ rounds to <= 0: no positive root to bracket, as past the threshold.
    # Evaluated with or without a window, so a hint cannot turn None into a root.
    if not residual(_BRACKET_LO) > 0.0:
        return None
    a, b = (0.0, math.inf) if hint is None else _window(p, residual, hint)
    hi = 1.0
    while hi <= a or (hi < b and residual(hi) > 0.0):
        hi *= 2.0
        if hi > 2.0**200:
            raise NumericalError("no sign change found while expanding the bracket")
    # bisect down to adjacent floats; outside the window the side of the
    # root is known without the residual
    lo, mid = _BRACKET_LO, 0.5 * (_BRACKET_LO + hi)
    while lo < mid < hi:
        if mid <= a or (mid < b and residual(mid) > 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    Q = mid
    r_end = abs(residual(Q))
    tol = 1e-12 * (p.delta + p.rates.g_prime(0.0) + 1.0)
    if not r_end < tol:
        raise NumericalError(f"equilibrium residual {r_end:.3e} above tolerance {tol:.3e}")
    M = p.rates.g(Q) / p.mu
    E = p.rates.f(M) / p.k
    return Equilibrium("positive", Q, M, E, tau)


def _window(p: ModelParams, residual: Callable[[float], float], hint: float) -> tuple[float, float]:
    """Pool sizes (a, b) with residual(a) > 0 >= residual(b), near the root.

    A secant walk from `hint` gives the root estimate x and the slope s; the
    window is x -+ max(1e-14*x, 64*eps*S/|s|), with S = |alpha*beta| + delta
    + g(Q)/Q taken at the last secant point.  Returns (0, inf), the whole
    axis, when the walk leaves (hint/4, 4*hint), stalls or does not settle,
    or the check fails.
    """
    # a second point this close makes the first secant step nearly Newton's
    x0, x1 = hint, hint * (1.0 + 1e-7)
    r0, r1 = residual(x0), residual(x1)
    for _ in range(_SECANT_STEPS):
        if r1 == r0:
            break
        s = (r1 - r0) / (x1 - x0)
        x = x1 - r1 / s
        if not 0.25 * hint < x < 4.0 * hint:
            break
        if abs(x - x1) <= 1e-10 * x:
            loss = p.delta + p.rates.g(x1) / x1
            w = max(1e-14 * x, 64.0 * sys.float_info.epsilon * (abs(r1 + loss) + loss) / abs(s))
            if x - w > 0.0 and residual(x - w) > 0.0 >= residual(x + w):
                return x - w, x + w
            break
        x0, r0, x1, r1 = x1, r1, x, residual(x)
    return 0.0, math.inf


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
