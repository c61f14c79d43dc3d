"""Frozen reference values and reusable property checks.

The reference numbers were computed in an independent scratchpad before the
package was written: the closed forms transcribed by hand, eigenvalues from
numpy.roots, and the delicate thresholds confirmed with mpmath at 50 digits.
They are pasted here as literals so the suite never asks the code under test
to generate its own expectations.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import random
import time
from array import array
from pathlib import Path
from typing import NamedTuple

from hemodelay import (
    CharCoeffs,
    Equilibrium,
    HillRates,
    LinCoeffs,
    ModelParams,
    PeriodEstimate,
    RunOptions,
    ScanResult,
    Trajectory,
    char_coeffs,
    char_residual,
    default_params,
    hill_equilibrium_closed_form,
    integrate,
    linearize,
    positive_equilibrium,
    real_cubic_roots,
    routh_hurwitz_tau0,
    scaled_equilibrium_history,
    tau_max,
)
from hemodelay.cli import _simulate_once, _tau_grid
from hemodelay.cubic import cubic_prime, cubic_value
from hemodelay.dde import _state_error, mesh_step
from hemodelay.model import NumericalError, reward


class DampedRates:
    """Re-entry damped by the quiescent pool, Hill feedback with r = 4: rates
    that only the composed stepper below can step."""

    def beta(self, Q, E):
        return 0.5 * E / (1.0 + E) / (1.0 + 0.01 * Q)

    def g(self, Q):
        return 0.04 * Q

    def f(self, M):
        return 6570.0 / (1.0 + 0.0382 * M**4)


@dataclasses.dataclass(frozen=True)
class CountingRates(HillRates):
    """HillRates that counts its beta, g and f calls in `calls`."""

    calls: dict = dataclasses.field(
        default_factory=lambda: {"beta": 0, "g": 0, "f": 0}, compare=False
    )

    def beta(self, Q, E):
        self.calls["beta"] += 1
        return super().beta(Q, E)

    def g(self, Q):
        self.calls["g"] += 1
        return super().g(Q)

    def f(self, M):
        self.calls["f"] += 1
        return super().f(M)


def composed_trajectory(p, history, t_end: float, max_step: float | None = None,
                        rates=None) -> Trajectory:
    """integrate(p, history, t_end, max_step=max_step) with the field composed
    from the bound beta, g and f of `rates` (p.rates by default), from the
    constant SystemState `history`.

    The reference that dde._hill_rows, which writes the Hill field out,
    matches bit for bit: the same mesh, delayed reads, fluxes and RK4
    combination, and the same error for a state that fails the floor <= x <
    inf check.  With tau = 0 the delayed state is the current one, and the
    flux rw*b*Q reuses the field's b.  The delayed step calls beta 6 times
    (once per stage and once per read) and g and f 4 times each.
    """
    rates = p.rates if rates is None else rates
    beta, g, f = rates.beta, rates.g, rates.f
    tau, nd, nmu, nk = p.tau, -p.delta, -p.mu, -p.k
    rw = reward(p, tau)
    delayed = tau > 0.0
    dt = mesh_step(p, max_step, t_end)
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    m = round(tau / dt)
    half, sixth = 0.5 * dt, dt / 6.0

    def field(Q, M, E, flux):
        gQ, b = g(Q), beta(Q, E)
        return nd * Q - gQ - b * Q + (flux if delayed else rw * b * Q), nmu * M + gQ, nk * E + f(M)

    Q, M, E = history
    rh = rf = rw * beta(Q, E) * Q
    t = 0.0
    rows: list[float] = []
    for j in range(n_steps + 1):
        kQ1, kM1, kE1 = field(Q, M, E, rf)
        rows += (t, Q, M, E, kQ1, kM1, kE1)
        if j == n_steps:
            break
        if delayed:
            # stages 2 and 3 read at t + dt/2 - tau (segment j - m), stage 4
            # and mesh point j + 1 at t + dt - tau (mesh point j + 1 - m)
            tq = t + half - tau
            i = j - m
            if i >= 0:
                ti, Q0, _, E0, dQ0, _, dE0, _, Q1, _, E1, dQ1, _, dE1 = rows[7 * i:7 * i + 14]
                s = (tq - ti) / dt
                s2, u2 = s * s, (1.0 - s) ** 2
                w0, v0 = (1.0 + 2.0 * s) * u2, dt * (s * u2)
                w1, v1 = s2 * (3.0 - 2.0 * s), dt * (s2 * (s - 1.0))
                Qh = w0 * Q0 + v0 * dQ0 + w1 * Q1 + v1 * dQ1
                Eh = w0 * E0 + v0 * dE0 + w1 * E1 + v1 * dE1
            else:
                Qh, _, Eh = history
            i = j + 1 - m
            if i >= 0:
                Qf, Ef = rows[7 * i + 1], rows[7 * i + 3]
            else:
                Qf, _, Ef = history
            rh = rw * beta(Qh, Eh) * Qh
            rf = rw * beta(Qf, Ef) * Qf
        kQ2, kM2, kE2 = field(Q + half * kQ1, M + half * kM1, E + half * kE1, rh)
        kQ3, kM3, kE3 = field(Q + half * kQ2, M + half * kM2, E + half * kE2, rh)
        kQ4, kM4, kE4 = field(Q + dt * kQ3, M + dt * kM3, E + dt * kE3, rf)
        Qn = Q + sixth * (kQ1 + 2.0 * (kQ2 + kQ3) + kQ4)
        Mn = M + sixth * (kM1 + 2.0 * (kM2 + kM3) + kM4)
        En = E + sixth * (kE1 + 2.0 * (kE2 + kE3) + kE4)
        t_next = (j + 1) * dt
        if not all(-1e-6 <= x < math.inf for x in (Qn, Mn, En)):
            raise _state_error(Qn, Mn, En, t_next, t)
        t, Q, M, E = t_next, Qn, Mn, En
    return Trajectory(p, history, dt, memoryview(array("d", rows)).toreadonly())


def composed_residual(p, rates=None):
    """The balance residual (Q, alpha) -> alpha*beta(Q, E(Q)) - delta - g(Q)/Q,
    composed from the beta, g and f of `rates` (p.rates by default): the
    reference that equilibria._residual_fn, which writes them out, matches."""
    rates = p.rates if rates is None else rates

    def residual(Q, alpha):
        gQ = rates.g(Q)
        return alpha * rates.beta(Q, rates.f(gQ / p.mu) / p.k) - p.delta - gQ / Q

    return residual


def composed_cubic_roots(b1: float, b2: float, b3: float, path: list | None = None) -> list[float]:
    """real_cubic_roots with its Newton polish composed from cubic_prime and
    cubic_value: the reference that cubic.real_cubic_roots, which writes the
    polish out, matches bit for bit, errors included.

    `path`, if given, collects the branches taken: "trig" or "cardano", then
    "disc < 0" or "q == 0" where the deflated quadratic adds no root or one,
    and per root "d" (zero or non-finite derivative), "step" (non-finite
    step), "worse" (the step worsens |h|) or "kept".
    """
    seen = [] if path is None else path

    def polish(z):
        d = cubic_prime(b1, b2, z)
        if d == 0.0 or not math.isfinite(d):
            seen.append("d")
            return z
        v = cubic_value(b1, b2, b3, z)
        step = v / d
        if not math.isfinite(step):
            seen.append("step")
            return z
        zn = z - step
        keep = abs(cubic_value(b1, b2, b3, zn)) <= abs(v)
        seen.append("kept" if keep else "worse")
        return zn if keep else z

    if not (math.isfinite(b1) and math.isfinite(b2) and math.isfinite(b3)):
        raise ValueError("coefficients must be finite")
    try:
        Q = (b1 * b1 - 3.0 * b2) / 9.0
        R = (2.0 * b1 ** 3 - 9.0 * b1 * b2 + 27.0 * b3) / 54.0
        Q3 = Q ** 3
        R2 = R * R
        if not math.isfinite(R2):
            raise OverflowError
    except OverflowError:
        raise NumericalError(f"cubic with b1={b1!r}, b2={b2!r}, b3={b3!r} overflows") from None
    seen.append("trig" if R2 < Q3 else "cardano")
    if R2 < Q3:
        th = math.acos(R / math.sqrt(Q3))
        m = -2.0 * math.sqrt(Q)
        shift = b1 / 3.0
        roots = [m * math.cos((th + 2.0 * math.pi * k) / 3.0) - shift for k in (0, 1, 2)]
    else:
        big = -math.copysign((abs(R) + math.sqrt(max(R2 - Q3, 0.0))) ** (1.0 / 3.0), R)
        small = Q / big if big != 0.0 else 0.0
        r0 = big + small - b1 / 3.0
        roots = [r0]
        u = b1 + r0
        v = b2 + r0 * u
        disc = u * u - 4.0 * v
        if disc >= 0.0:
            s = math.sqrt(disc)
            q = -0.5 * (u + math.copysign(s, u))
            roots.append(q)
            if q != 0.0:
                roots.append(v / q)
            else:
                seen.append("q == 0")
        else:
            seen.append("disc < 0")
    out: list[float] = []
    for z in sorted([polish(z) for z in roots]):
        if not out or abs(z - out[-1]) > 1e-9 * max(1.0, abs(z)):
            out.append(z)
    return out


# existence threshold and trivial state
TAU_MAX_DEFAULT = 2.9889912895287347
TAU_MAX_BETA0_1 = 3.221683611647848
TRIVIAL_E = 2346.4285714285716

# positive equilibria (Q*, M*, E*)
EQ_TAU0 = (3.3062566598814134, 6.612513319762827, 0.11111111111111112)
EQ_TAU14 = (2.9565825708147138, 5.9131651416294275, 0.24297351990151048)

# vector field at now = delayed = (1, 1, 1), tau = 1
RHS_ONES_TAU1 = (0.10936537653899092, 0.02, 6325.460450780196)

# characteristic coefficients (a1..a6) and (b1, b2, b3)
A_TAU0 = (2.92, 0.338, -0.012039164687975664, -0.1, -0.282,
          0.02967832937595133)
B_TAU0 = (7.8404, 0.0990930559025876, -0.0007358617481632554)
A_TAU14 = (2.9677388158360616, 0.4726234606576942, -0.02254759538910848,
           -0.1477388158360618, -0.41662346065769423, 0.038314600960172605)
B_TAU14 = (7.8404, 0.1723074681235344, -0.0009596145889063134)

# boundary of the delay window where h has a positive root (b3 sign change)
ROOT_WINDOW_EDGE = 2.9088849928741202

# stability switches (S0 roots) and their frequencies
TAU_STAR_1 = 1.3734222740845228
OMEGA_STAR_1 = 0.06800618620120236
TAU_STAR_2 = 2.8239968982956762
OMEGA_STAR_2 = 0.029174789323648354

# simulation windows (t_end, transient) of the runs bracketing each switch
PROBE_WINDOWS = {1.3234: (1200.0, 400.0), 1.4234: (1200.0, 400.0),
                 2.774: (2500.0, 800.0), 2.874: (2500.0, 800.0)}

# records appended by the acceptance tests, printed by the terminal hook
ACCEPTANCE_LOG: list[tuple[int, bool, str]] = []

# the benchmark's recorded outputs; its 1e-12 gate is repeated in tier-1
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def bench_reference() -> dict:
    return json.loads(BENCH_REFERENCE.read_text())


def rel_close(a: float, b: float, rel: float) -> bool:
    """The benchmark's comparison: |a - b| <= rel * max(|a|, |b|)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def record(num: int, passed: bool, detail: str) -> bool:
    ACCEPTANCE_LOG.append((num, passed, detail))
    print(f"[{num}] {'PASS' if passed else 'FAIL'} {detail}")
    return passed


def timed(fn, *args):
    """fn(*args) and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class SimRun(NamedTuple):
    tau: float
    traj: Trajectory
    eq: Equilibrium
    transient: float
    verdict: str
    period: PeriodEstimate | None
    wall: float


def run_case(tau: float, t_end: float, transient: float) -> SimRun:
    """The reference set run at `tau` as `hemodelay reproduce` runs it."""
    (traj, verdict, period), wall = timed(
        _simulate_once, default_params(), tau, t_end, transient, None, None
    )
    return SimRun(tau, traj, positive_equilibrium(traj.params, tau), transient, verdict, period, wall)


def cli_grid(p, step: float | None = None) -> list[float]:
    """The delay grid the CLI scans for p: i*step below tau_max (step 0.005 by default)."""
    return _tau_grid(p, RunOptions(grid_step=step))[1]


def perturbed_params(seed: int) -> ModelParams:
    """The reference set with every scalar scaled by U(0.8, 1.2) and r ~ U(5, 9)."""
    rng = random.Random(seed)
    p = default_params()
    r = p.rates
    u = lambda: rng.uniform(0.8, 1.2)  # noqa: E731
    rates = HillRates(r.beta0 * u(), r.G * u(), r.a * u(), r.K * u(), rng.uniform(5.0, 9.0))
    return ModelParams(p.delta * u(), p.gamma * u(), 0.0, p.mu * u(), p.k * u(), rates)


def log_box(seed: int, draws: int, decades: float) -> dict[int, ModelParams]:
    """The valid sets of a log-uniform box around the reference set, by draw.

    Each draw scales delta, gamma, mu, k, beta0, G, a and K, in that order,
    by 10**U(-decades, decades), then takes r ~ U(1.5, 20); it is kept when
    its ModelParams builds and its tau_max is finite.
    """
    rng = random.Random(seed)
    p = default_params()
    ref = (p.delta, p.gamma, p.mu, p.k, p.rates.beta0, p.rates.G, p.rates.a, p.rates.K)
    kept = {}
    for draw in range(draws):
        delta, gamma, mu, k, beta0, G, a, K = (x * 10.0 ** rng.uniform(-decades, decades) for x in ref)
        try:
            q = ModelParams(delta, gamma, 0.0, mu, k, HillRates(beta0, G, a, K, rng.uniform(1.5, 20.0)))
        except ValueError:
            continue
        tm = tau_max(q)
        if tm is not None and math.isfinite(tm):
            kept[draw] = q
    return kept


def coeffs_at(p, tau: float) -> CharCoeffs:
    q = dataclasses.replace(p, tau=tau)
    eq = positive_equilibrium(q, tau)
    assert eq is not None, f"no positive equilibrium at tau={tau}"
    return char_coeffs(linearize(q, eq, tau), q.mu, q.k)


def window_dev(run: SimRun, t_lo: float, t_hi: float) -> float:
    s = run.eq.state
    worst = 0.0
    for t, y in zip(run.traj.times, run.traj.states):
        if t_lo <= t <= t_hi:
            for yi, ei in zip(y, s):
                worst = max(worst, abs(yi - ei) / (1.0 + abs(ei)))
    return worst


def growth_ratio(run: SimRun) -> float:
    """Envelope ratio: deviation over the last 10% vs the first 10% post-transient."""
    t0, t1 = run.transient, run.traj.t_end
    span = t1 - t0
    return window_dev(run, t1 - 0.1 * span, t1) / window_dev(run, t0, t0 + 0.1 * span)


def synthetic_b_coeffs(b1: float, b2: float, b3: float) -> CharCoeffs:
    """CharCoeffs carrying prescribed h-coefficients (the a's are unused by h)."""
    return CharCoeffs(a1=0.0, a2=0.0, a3=0.0, a4=0.0, a5=0.0, a6=0.0,
                      b1=b1, b2=b2, b3=b3, tau=0.0)


# --- property checks shared between module tests and the acceptance suite ---

def coefficient_sign_violations(p, n_points: int = 200) -> list[str]:
    """propa plus the six sign/ordering invariants, on a grid over [0, tau_max)."""
    tm = tau_max(p)
    out: list[str] = []
    for i in range(n_points):
        t = tm * i / n_points
        q = dataclasses.replace(p, tau=t)
        lin = linearize(q, positive_equilibrium(q, t), t)
        cc = char_coeffs(lin, q.mu, q.k)
        # A-B is identically zero for saturating Q-independent re-entry, so
        # the >= comparison gets an epsilon floor against rounding noise
        ab_floor = -1e-12 * max(1.0, abs(lin.A))
        for name, ok in (
            ("C>0", lin.C > 0.0), ("D>0", lin.D > 0.0), ("G>0", lin.G > 0.0),
            ("H>0", lin.H > 0.0), ("A-B>=0", lin.A - lin.B >= ab_floor),
            ("D-C>0", lin.D - lin.C > 0.0),
            ("a1+a4>0", cc.a1 + cc.a4 > 0.0),
            ("a2+a5>0", cc.a2 + cc.a5 > 0.0),
            ("a3+a6>0", cc.a3 + cc.a6 > 0.0),
        ):
            if not ok:
                out.append(f"tau={t!r}: {name} violated")
    return out


def h_identity_max_err(p, rng, n_samples: int = 100) -> float:
    """h(z) via b-coefficients vs |P(i*sqrt(z))|^2 - |Q(i*sqrt(z))|^2."""
    tm = tau_max(p)
    worst = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.0, 0.999 * tm)
        z = rng.uniform(1e-6, 4.0)
        cc = coeffs_at(p, t)
        w = math.sqrt(z)
        lam = 1j * w
        pval = lam**3 + cc.a1 * lam**2 + cc.a2 * lam + cc.a3
        qval = cc.a4 * lam**2 + cc.a5 * lam + cc.a6
        direct = abs(pval) ** 2 - abs(qval) ** 2
        err = abs(cubic_value(cc.b1, cc.b2, cc.b3, z) - direct) / max(1.0, abs(direct))
        worst = max(worst, err)
    return worst


def random_lin_set(rng) -> tuple[LinCoeffs, float, float]:
    """(LinCoeffs, mu, k) from the box rh_oracle_mismatches draws from."""
    lin = LinCoeffs(
        A=rng.uniform(-1.0, 3.0), B=rng.uniform(-1.0, 3.0),
        C=rng.uniform(-1.0, 1.0), D=rng.uniform(-1.0, 1.0),
        G=rng.uniform(0.01, 1.0), H=rng.uniform(-1.0, 1.0), tau=0.0,
    )
    return lin, rng.uniform(0.01, 2.0), rng.uniform(0.01, 3.0)


def transcription_max_errs(rng, n_sets: int = 2000) -> tuple[float, float]:
    """char_coeffs against the characteristic equation written out in cmath.

    Returns the worst errors, each relative to the sum of the magnitudes of
    the terms of the expanded product, of
      * char_residual(cc, lam, tau) against
        (lam+mu)(lam+k)(lam+A-B*e) - G*H*(C-D*e), e = exp(-lam*tau),
        at random complex lam and tau in [0, 3];
      * h(omega^2) against |P(i*omega)|^2 - |Q(i*omega)|^2, with
        P = (lam+mu)(lam+k)(lam+A) - G*H*C and Q = G*H*D - B*(lam+mu)(lam+k).
    """
    worst_char = worst_h = 0.0
    for _ in range(n_sets):
        lin, mu, k = random_lin_set(rng)
        A, B, C, D, GH = lin.A, lin.B, lin.C, lin.D, lin.G * lin.H
        cc = char_coeffs(lin, mu, k)

        lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        tau = rng.uniform(0.0, 3.0)
        e = cmath.exp(-lam * tau)
        want = (lam + mu) * (lam + k) * (lam + A - B * e) - GH * (C - D * e)
        r = abs(lam)
        scale = (r + mu) * (r + k) * (r + abs(A) + abs(B * e)) + abs(GH) * (abs(C) + abs(D * e))
        worst_char = max(worst_char, abs(char_residual(cc, lam, tau) - want) / scale)

        w = rng.uniform(0.0, 3.0)
        lam = 1j * w
        pval = (lam + mu) * (lam + k) * (lam + A) - GH * C
        qval = GH * D - B * (lam + mu) * (lam + k)
        want = abs(pval) ** 2 - abs(qval) ** 2
        p_mag = (w + mu) * (w + k) * (w + abs(A)) + abs(GH * C)
        q_mag = abs(GH * D) + abs(B) * (w + mu) * (w + k)
        h = cubic_value(cc.b1, cc.b2, cc.b3, w * w)
        worst_h = max(worst_h, abs(h - want) / (p_mag**2 + q_mag**2))
    return worst_char, worst_h


def cubic_oracle_max_err(rng, n_triples: int = 300) -> float:
    """Symmetric nearest-root distance to numpy's companion-matrix solve."""
    import numpy as np

    worst = 0.0
    for _ in range(n_triples):
        b1 = rng.uniform(-10.0, 10.0)
        b2 = rng.uniform(-10.0, 10.0)
        b3 = rng.uniform(-10.0, 10.0)
        mine = real_cubic_roots(b1, b2, b3)
        ref = [r.real for r in np.roots([1.0, b1, b2, b3])
               if abs(r.imag) < 1e-8 * max(1.0, abs(r))]
        for r in ref:
            d = min((abs(r - m) for m in mine), default=math.inf)
            worst = max(worst, d / (1.0 + abs(r)))
        for m in mine:
            d = min((abs(r - m) for r in ref), default=math.inf)
            worst = max(worst, d / (1.0 + abs(m)))
    return worst


def rh_oracle_mismatches(rng, n_sets: int = 500) -> int:
    """No-delay verdict vs the rightmost companion-matrix root, random sets.

    Only admissible sets are scored: the criterion presumes a1+a4 > 0 and
    a3+a6 > 0 (both hold at positive equilibria), and near-zero margins are
    skipped since both sides then sit inside either oracle's noise.
    """
    import numpy as np

    scored = 0
    mismatches = 0
    while scored < n_sets:
        cc = char_coeffs(*random_lin_set(rng))
        c1, c2, c3 = cc.a1 + cc.a4, cc.a2 + cc.a5, cc.a3 + cc.a6
        if not (c1 > 0.0 and c3 > 0.0):
            continue
        margin = c1 * c2 - c3
        if abs(margin) < 1e-9 * max(1.0, abs(c1 * c2), abs(c3)):
            continue
        rightmost = max(r.real for r in np.roots([1.0, c1, c2, c3]))
        if abs(rightmost) < 1e-12:
            continue
        scored += 1
        if routh_hurwitz_tau0(cc) != (rightmost < 0.0):
            mismatches += 1
    return mismatches


def rk4_order_slope(tau: float = 0.5, t_end: float = 50.0) -> float:
    """Log-log slope of the endpoint error across steps tau/32, tau/64, tau/128."""
    p = default_params(tau)
    eq = positive_equilibrium(p, tau)
    hist = scaled_equilibrium_history(eq)
    ref = integrate(p, hist, t_end, max_step=tau / 512).states[-1]

    logs = []
    for m in (32, 64, 128):
        end = integrate(p, hist, t_end, max_step=tau / m).states[-1]
        err = max(abs(a - b) for a, b in zip(end, ref))
        logs.append((math.log(tau / m), math.log(err)))
    xm = sum(x for x, _ in logs) / len(logs)
    ym = sum(y for _, y in logs) / len(logs)
    num = sum((x - xm) * (y - ym) for x, y in logs)
    den = sum((x - xm) ** 2 for x, _ in logs)
    return num / den


def closed_form_max_err(p, n_points: int = 50, tau_hi: float = 2.9) -> float:
    worst = 0.0
    for i in range(n_points):
        t = tau_hi * i / (n_points - 1)
        q = default_params(t)
        a = hill_equilibrium_closed_form(q, t)
        b = positive_equilibrium(q, t)
        for x, y in zip(a.state, b.state):
            worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    return worst


def sn_ordering_violations(res: ScanResult) -> int:
    """Count grid points where S_n <= S_{n+1} on a shared (branch, tau) domain."""
    by_key = {(c.n, c.branch): dict(c.samples) for c in res.curves}
    bad = 0
    for (n, branch), samples in by_key.items():
        upper = by_key.get((n + 1, branch))
        if upper is None:
            continue
        for t, s in samples.items():
            if t in upper and not s > upper[t]:
                bad += 1
    return bad


def bound_violations(run: SimRun) -> list[str]:
    """Nonnegativity floor and the growth-factor cap max(E(0), f(0)/k)."""
    p = run.traj.params
    e_cap = max(run.traj.states[0].E, p.rates.f(0.0) / p.k)
    out = []
    low = min(min(s) for s in run.traj.states)
    if low < -1e-9:
        out.append(f"tau={run.tau}: component fell to {low!r}")
    e_max = max(s.E for s in run.traj.states)
    if e_max > e_cap * (1.0 + 1e-9) + 1e-9:
        out.append(f"tau={run.tau}: E reached {e_max!r} above cap {e_cap!r}")
    return out


# --- Hayes oracle for the scalar DDE of the extinction steady state ---

def _zeta(x: float) -> float:
    """Unique solution of zeta = -x*tan(zeta) on (0, pi), for x != 0.

    For x > 0 the root lies in (pi/2, pi), for -1 < x < 0 in (0, pi/2); both
    brackets give a sign change of zeta + x*tan(zeta), bisected here to a
    width of 1e-12; the root is the bracket's midpoint.
    """
    if x > 0.0:
        lo, hi = 0.5 * math.pi + 1e-12, math.pi - 1e-12
    elif x > -1.0:
        lo, hi = 1e-12, 0.5 * math.pi - 1e-12
    else:
        raise ValueError(f"no root of zeta = -x*tan(zeta) on (0, pi) for x={x}")
    positive_lo = lo + x * math.tan(lo) > 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if (mid + x * math.tan(mid) > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hayes_check(A: float, B: float, tau: float) -> bool:
    """All roots of lambda + A - B*exp(-lambda*tau) = 0 lie strictly left.

    For tau = 0 the single root is B - A.  For tau > 0 the three conditions
    are A*tau > -1, (A - B)*tau > 0 and B*tau < zeta*sin(zeta) -
    A*tau*cos(zeta) with zeta = -A*tau*tan(zeta) on (0, pi).  The oracle for
    the extinction state's stability, sharing no code with the package;
    A*tau = 0 with tau > 0 is out of scope and raises ValueError.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return B - A < 0.0
    x = A * tau
    if not x > -1.0:
        return False
    if not (A - B) * tau > 0.0:
        return False
    if x == 0.0:
        raise ValueError("A*tau == 0 with tau > 0 is not supported")
    z = _zeta(x)
    return B * tau < z * math.sin(z) - x * math.cos(z)


# --- spectral oracle for the linearized DDE, independent of switch ---

def _char_fn(lin: LinCoeffs, mu: float, k: float, lam: complex) -> tuple[complex, complex]:
    """det(lam*I - L0 - L1*exp(-lam*tau)) and its lam-derivative.

    The determinant of [[lam+A-B*e, 0, C-D*e], [-G, lam+mu, 0], [0, H, lam+k]]
    with e = exp(-lam*tau), expanded along the first row.
    """
    A, B, C, D, G, H, tau = lin.A, lin.B, lin.C, lin.D, lin.G, lin.H, lin.tau
    e = cmath.exp(-lam * tau)
    u, v, w = lam + A - B * e, lam + mu, lam + k
    f = u * v * w - G * H * (C - D * e)
    df = (1.0 + tau * B * e) * v * w + u * (v + w) - G * H * tau * D * e
    return f, df


def spectral_roots(lin: LinCoeffs, mu: float, k: float, n: int = 30, keep: int = 6) -> list[complex]:
    """Rightmost characteristic roots of x' = L0 x + L1 x(t - tau), descending in Re.

    Pseudospectral collocation of the infinitesimal generator (Breda, Maset
    and Vermiglio, SIAM J. Sci. Comput. 27, 2005): u on the n + 1 Chebyshev
    points of [-tau, 0] with the spectral derivative at every point but
    theta = 0, whose row is L0 u(0) + L1 u(-tau).  The `keep` rightmost
    eigenvalues are polished by Newton on the 3x3 characteristic function;
    one whose Newton iteration does not settle is dropped.
    """
    import numpy as np

    tau = lin.tau
    L0 = np.array([[-lin.A, 0.0, -lin.C], [lin.G, -mu, 0.0], [0.0, -lin.H, -k]])
    L1 = np.array([[lin.B, 0.0, lin.D], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # Trefethen's Chebyshev differentiation matrix on x_j = cos(j*pi/n);
    # theta = tau*(x - 1)/2 puts x_0 at theta = 0 and x_n at theta = -tau
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    Dx = np.outer(c, 1.0 / c) / dx
    Dx -= np.diag(Dx.sum(axis=1))
    gen = np.kron(2.0 / tau * Dx, np.eye(3))
    gen[:3, :] = 0.0
    gen[:3, :3] = L0
    gen[:3, -3:] += L1
    roots = []
    for lam in sorted(np.linalg.eigvals(gen), key=lambda z: -z.real)[:keep]:
        lam = complex(lam)
        for _ in range(50):
            f, df = _char_fn(lin, mu, k, lam)
            step = f / df
            lam -= step
            if abs(step) <= 1e-15 * max(1.0, abs(lam)):
                roots.append(lam)
                break
    return sorted(roots, key=lambda z: -z.real)
