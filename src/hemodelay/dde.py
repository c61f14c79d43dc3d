"""Method-of-steps integration of the delayed system, with post-processing.

The history, the initial data on [-tau, 0], is one constant SystemState,
checked once by integrate to be finite and nonnegative.  The delay is
constant, so derivative discontinuities inherited from the history sit
exactly at multiples of tau.  The stepper exploits that: the mesh spacing
is dt = tau/m, m from mesh_step, the one step rule, which pins every
multiple of tau to a mesh point and keeps the classical fourth-order
Runge-Kutta scheme at full order between them, with dt inside RK4's
stability interval for the field's fastest decay rate.  It also turns the
delayed reads of step j into mesh reads.  The full-step read at
t + dt - tau is mesh point j + 1 - m, the stored state (the current one
when m = 1).  The half-step read at t + dt/2 - tau lies inside segment
j - m and comes from its cubic Hermite interpolant.  Before the first
delay both reads are the history, and so is their re-entry flux,
computed once.

The field is the Hill field written out at every stage, the operations of
HillRates.beta, g and f in their order, branches included, with -delta,
-mu, -k bound once: a step makes no Python call.  model.rhs is the checked
field at one state, composed from the same rates.  Each delayed re-entry
flux is computed once per read: stages 2 and 3 share the half-step one,
and the full-step one serves stage 4 and the new mesh point's derivative,
which doubles as the next step's first stage.  The stepper checks the new
state once per step, with one chained comparison floor <= x < inf per
component, and only when that fails sorts the failure into a
DivergenceError (a component not finite) or an InvariantViolationError
(one below the -1e-6 floor).

The stepper writes each mesh point as a row (t, Q, M, E, dQ, dM, dE) of
float64s into one buffer allocated up front, 56 bytes a point, and reads
its delayed states back from it.  A Trajectory keeps that buffer as one
read-only float64 view, its columns as strided views of it.  Its dense
output Trajectory.state(t) is traj.history for t <= 0 and a plain tuple
(Q, M, E) after: cheaper than a SystemState, and untracked by CPython's GC.

With tau = 0 the same stepper runs as a plain ODE integrator, the delayed
state being the current stage state, so the no-delay limit stays
comparable with the Routh-Hurwitz verdict.

Post-processing quantifies what the long runs show: detect_period measures
the spacing of oscillation peaks, classify_asymptotics sorts a run into
converging, sustained-oscillation, diverging or unclassified relative to an
equilibrium.

Trajectories are immutable once returned; distinct runs are independent.
"""

from __future__ import annotations

import math
import statistics
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .equilibria import Equilibrium
from .model import (
    InvalidStateError,
    ModelParams,
    NumericalError,
    SystemState,
    reward,
)

_DEFAULT_SUBSTEPS = 64
# RK4 damps a decay at rate lam while dt*lam < 2.785; at half of that a step
# damps by 0.28 and keeps each stage above -0.1 of the state
_RK4_STABLE = 2.785 / 2
# a mesh point keeps a row of 7 float64s, 56 bytes, also while stepping:
# 10M steps, 78 times the 128k of the tau = 0.5 run, peak near 0.56 GB
_MAX_STEPS = 10_000_000
_NEG_FLOOR = -1e-6
_COMPONENTS = ("Q", "M", "E")
_pack_row = struct.Struct("7d").pack_into  # one row of 7 float64s
_unpack_two_rows = struct.Struct("14d").unpack_from  # two rows of 7 float64s
_unpack_QE = struct.Struct("d8xd").unpack_from  # Q and E of a row, from its byte 8


class DivergenceError(NumericalError):
    """The state left the finite range; last_time is the last valid mesh time."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


class InvariantViolationError(NumericalError):
    """A component dropped below the -1e-6 nonnegativity floor."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


def scaled_equilibrium_history(eq: Equilibrium, factor: float = 1.1) -> SystemState:
    """The history at the equilibrium scaled componentwise by `factor`, unchecked:
    integrate refuses a component that is negative or not finite."""
    return SystemState(factor * eq.Q, factor * eq.M, factor * eq.E)


@dataclass(frozen=True)
class Trajectory:
    """Mesh times, states and derivatives of one integration, as packed rows.

    `rows` is a read-only float64 memoryview holding one row (t, Q, M, E,
    dQ, dM, dE) per mesh point, 56 bytes a point.  The columns times, Q, M,
    E, dQ, dM, dE are read-only strided views of it, built on first use,
    as is `states`, the mesh states as SystemStates; slices are views too.
    `history` is the constant state on [-tau, 0]; the dense output `state(t)`
    returns it for t <= 0 and a plain (Q, M, E) tuple, read by position, after.
    """

    params: ModelParams
    history: SystemState
    dt: float
    rows: memoryview

    times, Q, M, E, dQ, dM, dE = (cached_property(lambda self, c=c: self.rows[c::7]) for c in range(7))

    @property
    def t_end(self) -> float:
        return self.rows[-7]

    @cached_property
    def states(self) -> tuple[SystemState, ...]:
        return tuple(map(SystemState, self.Q, self.M, self.E))

    @cached_property
    def _dense(self) -> tuple:
        """What state(t) reads: its domain, step, last segment and the rows."""
        tol = 1e-9 * max(1.0, self.t_end)
        t0 = -self.params.tau
        return t0 - tol, self.t_end + tol, t0, self.dt, len(self.rows) // 7 - 2, self.rows

    def state(self, t: float) -> tuple[float, float, float]:
        """Dense output: the history for t <= 0, a (Q, M, E) tuple of the Hermite segments after."""
        lo, hi, t0, dt, last, rows = self._dense
        if not (lo <= t <= hi):  # NaN fails too
            raise ValueError(f"t={t!r} outside [{t0!r}, {self.t_end!r}]")
        if t <= 0.0:
            return self.history
        i = int(t / dt)
        if i > last:
            i = last
        ti, Q0, M0, E0, dQ0, dM0, dE0, _, Q1, M1, E1, dQ1, dM1, dE1 = _unpack_two_rows(rows, 56 * i)
        # the cubic Hermite weights at offset s, derivative weights scaled by dt
        s = (t - ti) / dt
        s2, u2 = s * s, (1.0 - s) ** 2
        w0, v0 = (1.0 + 2.0 * s) * u2, dt * (s * u2)
        w1, v1 = s2 * (3.0 - 2.0 * s), dt * (s2 * (s - 1.0))
        return (
            w0 * Q0 + v0 * dQ0 + w1 * Q1 + v1 * dQ1,
            w0 * M0 + v0 * dM0 + w1 * M1 + v1 * dM1,
            w0 * E0 + v0 * dE0 + w1 * E1 + v1 * dE1,
        )


def mesh_step(p: ModelParams, max_step: float | None, t_end: float = 0.0) -> float:
    """The step integrate takes to t_end: tau/m for the least m that keeps it at or
    below both max_step (default tau/64, 1/64 at tau = 0) and _RK4_STABLE/lam,
    where lam = max(k, mu, delta + G + beta0) is the field's fastest decay rate;
    at tau = 0 the lower of the two.  ValueError past _MAX_STEPS steps per delay
    or up to t_end names lam when it set the step.
    """
    if max_step is not None and not 0.0 < max_step < math.inf:
        raise ValueError("max_step must be positive and finite")
    dt = max_step if max_step is not None else (p.tau or 1.0) / _DEFAULT_SUBSTEPS
    lam = max(p.k, p.mu, p.delta + p.rates.G + p.rates.beta0)
    note = ""
    if _RK4_STABLE / lam < dt:  # lam = inf leaves a step of 5e-324, refused as too many
        dt = max(_RK4_STABLE / lam, 5e-324)
        note = (f" (RK4 stability cap {_RK4_STABLE}/lambda, "
                f"lambda = max(k, mu, delta + G + beta0) = {lam!r})")
    if p.tau > 0.0:
        per_delay = p.tau / dt  # compared as a float: ceil(inf) would overflow
        if not per_delay <= _MAX_STEPS:
            raise ValueError(
                f"step cap {dt!r}{note} gives {per_delay:.3g} steps per delay; "
                f"at most {_MAX_STEPS} are allowed"
            )
        dt = p.tau / max(1, math.ceil(per_delay - 1e-12))
    if not t_end / dt <= _MAX_STEPS:
        raise ValueError(
            f"t_end {t_end!r} needs {t_end / dt:.3g} steps of {dt!r}{note}; "
            f"at most {_MAX_STEPS} are allowed"
        )
    return dt


def integrate(
    p: ModelParams,
    history: SystemState,
    t_end: float,
    *,
    max_step: float | None = None,
) -> Trajectory:
    """Integrate from the constant history up to (the next mesh point at or past) t_end.

    The history is taken as a SystemState (a triple of another type is
    converted; any other length raises TypeError), and InvalidStateError is
    raised if a component of it is not finite and nonnegative.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError("t_end must be positive and finite")
    dt = mesh_step(p, max_step, t_end)
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    history = SystemState._make(history)
    for name, v in zip(_COMPONENTS, history):
        if not (math.isfinite(v) and v >= 0.0):
            raise InvalidStateError(f"history {name} = {v!r}")
    buf = _hill_rows(p, history, dt, n_steps)
    return Trajectory(p, history, dt, memoryview(buf).cast("d").toreadonly())


def _state_error(Qn: float, Mn: float, En: float, t_next: float, t: float) -> NumericalError:
    """The error for a new state that failed the floor <= x < inf check."""
    if not (math.isfinite(Qn) and math.isfinite(Mn) and math.isfinite(En)):
        return DivergenceError(f"state non-finite at t={t_next!r}; last valid t={t!r}", t)
    return InvariantViolationError(f"component reached {min(Qn, Mn, En)!r} at t={t_next!r}", t)


def _hill_rows(p: ModelParams, history: SystemState, dt: float, n_steps: int) -> bytearray:
    """The n_steps + 1 packed mesh rows, with the Hill field written out.

    Each evaluation takes the operations of HillRates.beta, g and f in their
    order, branches included, so every float is that of the composed rates
    (the tests hold it to a composed stepper of their own); -delta, -mu and
    -k are bound once, which is exact.  Before the first delay both delayed
    fluxes are the history's, computed once.  The derivative at a mesh
    point is computed at the top of the loop, so the first one is no special
    case.  A stage E of exactly -1, where beta divides by zero, lies
    below the floor: it raises InvariantViolationError at the last accepted
    mesh time.
    """
    tau, rates = p.tau, p.rates
    beta0, G, a, K, r = rates.beta0, rates.G, rates.a, rates.K, rates.r
    nd, nmu, nk = -p.delta, -p.mu, -p.k
    rw = reward(p, tau)
    delayed = tau > 0.0
    m = round(tau / dt)
    inf, floor = math.inf, _NEG_FLOOR
    half = 0.5 * dt
    sixth = dt / 6.0
    Q, M, E = history
    rh = rf = rw * (beta0 * E / (1.0 + E)) * Q  # the history's flux, read until the first delay
    t = 0.0
    buf = bytearray(56 * (n_steps + 1))
    pack, unpack_two, unpack_QE = _pack_row, _unpack_two_rows, _unpack_QE
    try:
        for j in range(n_steps + 1):
            # mesh point j: with tau = 0 the delayed state is the current one,
            # and the flux rw*b*Q reuses the field's b
            gQ, b = G * Q, beta0 * E / (1.0 + E)
            try:
                fM = a if M <= 0.0 else a / (1.0 + K * M**r)
            except OverflowError:
                fM = 0.0
            kQ1 = nd * Q - gQ - b * Q + (rf if delayed else rw * b * Q)
            kM1, kE1 = nmu * M + gQ, nk * E + fM
            pack(buf, 56 * j, t, Q, M, E, kQ1, kM1, kE1)
            if j == n_steps:
                break
            if delayed:
                # stages 2 and 3 read at t + dt/2 - tau (segment j - m), stage 4
                # and mesh point j + 1 at t + dt - tau (mesh point j + 1 - m)
                i = j - m
                if i >= 0:
                    tq = t + half - tau
                    ti, Q0, _, E0, dQ0, _, dE0, _, Q1, _, E1, dQ1, _, dE1 = unpack_two(buf, 56 * i)
                    s = (tq - ti) / dt
                    s2, u2 = s * s, (1.0 - s) ** 2
                    w0, v0 = (1.0 + 2.0 * s) * u2, dt * (s * u2)
                    w1, v1 = s2 * (3.0 - 2.0 * s), dt * (s2 * (s - 1.0))
                    Qh = w0 * Q0 + v0 * dQ0 + w1 * Q1 + v1 * dQ1
                    Eh = w0 * E0 + v0 * dE0 + w1 * E1 + v1 * dE1
                    rh = rw * (beta0 * Eh / (1.0 + Eh)) * Qh
                i = j + 1 - m
                if i >= 0:
                    Qf, Ef = unpack_QE(buf, 56 * i + 8)
                    rf = rw * (beta0 * Ef / (1.0 + Ef)) * Qf
            Q2, M2, E2 = Q + half * kQ1, M + half * kM1, E + half * kE1
            gQ, b = G * Q2, beta0 * E2 / (1.0 + E2)
            try:
                fM = a if M2 <= 0.0 else a / (1.0 + K * M2**r)
            except OverflowError:
                fM = 0.0
            kQ2 = nd * Q2 - gQ - b * Q2 + (rh if delayed else rw * b * Q2)
            kM2, kE2 = nmu * M2 + gQ, nk * E2 + fM
            Q3, M3, E3 = Q + half * kQ2, M + half * kM2, E + half * kE2
            gQ, b = G * Q3, beta0 * E3 / (1.0 + E3)
            try:
                fM = a if M3 <= 0.0 else a / (1.0 + K * M3**r)
            except OverflowError:
                fM = 0.0
            kQ3 = nd * Q3 - gQ - b * Q3 + (rh if delayed else rw * b * Q3)
            kM3, kE3 = nmu * M3 + gQ, nk * E3 + fM
            Q4, M4, E4 = Q + dt * kQ3, M + dt * kM3, E + dt * kE3
            gQ, b = G * Q4, beta0 * E4 / (1.0 + E4)
            try:
                fM = a if M4 <= 0.0 else a / (1.0 + K * M4**r)
            except OverflowError:
                fM = 0.0
            kQ4 = nd * Q4 - gQ - b * Q4 + (rf if delayed else rw * b * Q4)
            kM4, kE4 = nmu * M4 + gQ, nk * E4 + fM
            Qn = Q + sixth * (kQ1 + 2.0 * (kQ2 + kQ3) + kQ4)
            Mn = M + sixth * (kM1 + 2.0 * (kM2 + kM3) + kM4)
            En = E + sixth * (kE1 + 2.0 * (kE2 + kE3) + kE4)
            t_next = (j + 1) * dt
            # a non-finite stage state propagates into the new state, and NaN
            # fails every comparison
            if not (floor <= Qn < inf and floor <= Mn < inf and floor <= En < inf):
                raise _state_error(Qn, Mn, En, t_next, t)
            t, Q, M, E = t_next, Qn, Mn, En
    except ZeroDivisionError:
        raise InvariantViolationError(f"E reached -1 in the step from t={t!r}", t) from None
    return buf


class PeriodEstimate(NamedTuple):
    period: float
    std: float
    n_peaks: int
    amplitude_ratio: float  # last peak height over first, relative to the mean level
    peak_times: tuple[float, ...]
    peak_values: tuple[float, ...]
    mean_level: float


def detect_period(
    traj: Trajectory, component: str, t_transient: float
) -> PeriodEstimate | None:
    """Mean spacing of oscillation peaks after the transient, or None.

    Peaks are strict local maxima on the mesh of the component named "Q",
    "M" or "E" (any other value raises ValueError), refined by the vertex of
    the parabola through the three surrounding samples.  Returns None when
    fewer than three peaks remain or when the oscillation has decayed (last
    peak under 20% of the first, relative to the mean level).
    """
    if component not in _COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    j0 = bisect_left(traj.times, t_transient)
    if j0 >= len(traj.times) - 1 or math.isnan(t_transient):
        raise ValueError("transient leaves no samples to analyze")
    ts = traj.times[j0:]
    vs = getattr(traj, component)[j0:]

    peak_times: list[float] = []
    peak_values: list[float] = []
    for i in range(1, len(vs) - 1):
        if vs[i - 1] < vs[i] > vs[i + 1]:
            # at a strict maximum a < b > c, fl(a - 2b) <= -b, so denom <= fl(c - b) < 0
            denom = vs[i - 1] - 2.0 * vs[i] + vs[i + 1]
            shift = 0.5 * traj.dt * (vs[i - 1] - vs[i + 1]) / denom
            peak_times.append(ts[i] + shift)
            peak_values.append(vs[i] - (vs[i - 1] - vs[i + 1]) ** 2 / (8.0 * denom))
    if len(peak_times) < 3:
        return None
    mean_level = statistics.fmean(vs)
    first = peak_values[0] - mean_level
    last = peak_values[-1] - mean_level
    if first <= 0.0:
        return None
    ratio = last / first
    if ratio < 0.2:
        return None
    gaps = [b - a for a, b in zip(peak_times, peak_times[1:])]
    return PeriodEstimate(
        period=statistics.fmean(gaps),
        std=statistics.pstdev(gaps),
        n_peaks=len(peak_times),
        amplitude_ratio=ratio,
        peak_times=tuple(peak_times),
        peak_values=tuple(peak_values),
        mean_level=mean_level,
    )


def classify_asymptotics(
    traj: Trajectory, eq: Equilibrium, t_transient: float
) -> str:
    """Sort a run into converging, sustained-oscillation, diverging.

    Converging: the largest relative deviation from `eq` over the last 10%
    of the run is at most 5% of the one over the first 10% after the
    transient.  Sustained: detect_period (on Q) finds peaks whose amplitude
    ratio stays in [0.8, 1.25].  Diverging: deviation maxima over eight
    equal segments grow monotonically to more than 10 times the first.
    Anything else is unclassified.
    """
    T = traj.t_end
    span = T - t_transient
    if not span > 0.0:
        raise ValueError("transient must end before the run does")
    times, Q, M, E = traj.times, traj.Q, traj.M, traj.E
    eQ, eM, eE = eq.Q, eq.M, eq.E
    sQ, sM, sE = 1.0 + abs(eQ), 1.0 + abs(eM), 1.0 + abs(eE)
    j0 = bisect_left(times, t_transient)

    def window_max(lo: float, hi: float, name: str) -> float:
        """Largest relative deviation from eq at the mesh points in [lo, hi]."""
        a = bisect_left(times, lo, j0)
        b = bisect_right(times, hi, a)
        if a == b:
            raise ValueError(
                f"{name} after the transient holds no mesh point; "
                f"shorten the step or the transient"
            )
        return max(
            max(abs(q - eQ) / sQ, abs(m - eM) / sM, abs(e - eE) / sE)
            for q, m, e in zip(Q[a:b], M[a:b], E[a:b])
        )

    d_first = window_max(t_transient, t_transient + 0.1 * span, "the first 10% window")
    d_last = window_max(T - 0.1 * span, T, "the last 10% window")
    if d_last <= 0.05 * d_first:
        return "converging"
    est = detect_period(traj, "Q", t_transient)
    if est is not None and 0.8 <= est.amplitude_ratio <= 1.25:
        return "sustained-oscillation"
    seg_max = [
        window_max(
            t_transient + span * seg / 8.0,
            t_transient + span * (seg + 1) / 8.0,
            f"segment {seg + 1} of 8",
        )
        for seg in range(8)
    ]
    growing = all(a < b for a, b in zip(seg_max, seg_max[1:]))
    if growing and seg_max[0] > 0.0 and seg_max[-1] > 10.0 * seg_max[0]:
        return "diverging"
    return "unclassified"
