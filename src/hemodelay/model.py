"""Rate functions and vector field of a delayed blood-cell production model.

The state (Q, M, E) collects quiescent progenitor cells, circulating mature
cells and a regulating growth factor.  Quiescent cells are lost to apoptosis
(rate delta), to differentiation (rate g(Q)/Q) and to cell-cycle re-entry
(rate beta(Q, E)); cells that re-entered the cycle one delay tau earlier
return doubled, thinned by in-cycle apoptosis, which gives the reward factor
2*exp(-gamma*tau).  Mature cells are cleared at rate mu and drive growth
factor production through the decreasing feedback f(M); the growth factor is
cleared at rate k and upregulates cycle re-entry through beta.  Time is
measured in days, all clearance rates are per day.

d Q/dt = -delta*Q - g(Q) - beta(Q, E)*Q + 2*exp(-gamma*tau)*beta(Q_d, E_d)*Q_d
d M/dt = -mu*M + g(Q)
d E/dt = -k*E + f(M)

where (Q_d, E_d) is the state one delay in the past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple


class InvalidStateError(ValueError):
    """A state fed to the vector field is not finite."""


class NumericalError(RuntimeError):
    """A numerical routine failed (lost bracket, internal inconsistency...)."""


class SystemState(NamedTuple):
    Q: float
    M: float
    E: float


@dataclass(frozen=True)
class HillRates:
    """Saturating re-entry, linear differentiation, Hill feedback: the model's
    one rates family.

    beta(Q, E) = beta0*E/(1+E)   (independent of Q)
    g(Q)       = G*Q
    f(M)       = a/(1 + K*M**r)   (a for M <= 0)

    dde.integrate's stepper and the equilibrium solve's residual write these
    formulas out, with the operations of beta, g and f below in their order,
    branches included; rhs, linearize and tau_max call the methods.
    """

    beta0: float
    G: float
    a: float
    K: float
    r: float

    def beta(self, Q: float, E: float) -> float:
        return self.beta0 * E / (1.0 + E)

    def beta_dE(self, Q: float, E: float) -> float:
        return self.beta0 / (1.0 + E) ** 2

    def g(self, Q: float) -> float:
        return self.G * Q

    def g_prime(self, Q: float) -> float:
        return self.G

    def f(self, M: float) -> float:
        # M <= 0 (an RK4 stage state may dip below 0) is no feedback: for a
        # non-integer r, M**r would be complex
        if M <= 0.0:
            return self.a
        try:
            den = 1.0 + self.K * M**self.r
        except OverflowError:
            return 0.0  # K*M**r overflowed: f has already decayed to 0
        return self.a / den

    def f_prime(self, M: float) -> float:
        if M <= 0.0:
            return 0.0  # no feedback below 0, as in f; r > 1 flattens f at 0
        try:
            mr = M**self.r
            den = (1.0 + self.K * mr) ** 2
        except OverflowError:
            return 0.0
        return -self.a * self.K * self.r * (mr / M) / den


@dataclass(frozen=True)
class ModelParams:
    """Clearance rates, in-cycle apoptosis rate, delay and rate functions.

    Every set is checked when it is built (dataclasses.replace included)
    against the model's box: delta, mu, k, beta0, G, a, K > 0, gamma,
    tau >= 0, every field finite and r > 1; one ValueError names each
    violation.  rates must be of exactly type HillRates: a subclass that
    overrides a rate would be computed with the written-out Hill formulas
    silently.
    """

    delta: float
    gamma: float
    tau: float
    mu: float
    k: float
    rates: HillRates

    def __post_init__(self) -> None:
        hr = self.rates
        if type(hr) is not HillRates:
            raise ValueError(f"rates must be HillRates, got {type(hr).__name__}")
        scalars = (self.delta, self.gamma, self.tau, self.mu, self.k)
        bad = [msg for ok, msg in (
            (self.delta > 0.0, "delta must be positive"),
            (self.gamma >= 0.0, "gamma must be nonnegative"),
            (self.mu > 0.0, "mu must be positive"),
            (self.k > 0.0, "k must be positive"),
            (self.tau >= 0.0, "tau must be nonnegative"),
            (all(map(math.isfinite, scalars)), "scalar parameters must be finite"),
            *((getattr(hr, n) > 0.0, f"rate parameter {n} must be positive")
              for n in ("beta0", "G", "a", "K")),
            (hr.r > 1.0, "rate parameter r must exceed 1"),
            (all(map(math.isfinite, (hr.beta0, hr.G, hr.a, hr.K, hr.r))),
             "rate parameters must be finite"),
        ) if not ok]
        if bad:
            raise ValueError("; ".join(bad))


def reward(p: ModelParams, tau: float) -> float:
    """The re-entry reward 2*exp(-gamma*tau): re-entering cells return doubled,
    thinned by in-cycle apoptosis over the delay; alpha is this minus 1."""
    return 2.0 * math.exp(-p.gamma * tau)


def rhs(now, delayed, p: ModelParams) -> SystemState:
    """Vector field at state `now` with delayed state `delayed`.

    The delay enters only through the reward factor 2*exp(-gamma*p.tau) and
    the delayed re-entry flux; passing `delayed = now` recovers the
    undelayed (tau = 0) field when p.tau = 0.

    Raises InvalidStateError if any component of either state is not finite.
    """
    Qn, Mn, En = now
    Qd, Md, Ed = delayed
    if not all(map(math.isfinite, (Qn, Mn, En, Qd, Md, Ed))):
        raise InvalidStateError(f"non-finite state: now={tuple(now)} delayed={tuple(delayed)}")
    rates = p.rates
    gQ = rates.g(Qn)
    dQ = -p.delta * Qn - gQ - rates.beta(Qn, En) * Qn + reward(p, p.tau) * rates.beta(Qd, Ed) * Qd
    return SystemState(dQ, -p.mu * Mn + gQ, -p.k * En + rates.f(Mn))


def bisect_flip(
    inside: Callable[[float], bool], lo: float, hi: float, width: float = 0.0
) -> tuple[float, float]:
    """Shrink [lo, hi] around the point where `inside` turns from True to False.

    `inside` is taken to hold at lo and fail at hi; neither end is evaluated.
    Each step keeps the half whose ends disagree, while hi - lo > width and
    until the midpoint rounds to an end, i.e. lo and hi are adjacent floats.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
