"""Delay crossings of the characteristic equation and the stability map.

With delay-dependent coefficients, a purely imaginary root i*omega exists at
delay tau exactly when z = omega^2 is a positive root of the cubic h(z, tau)
and tau reproduces the root's phase.  The machinery here follows that
geometry:

  * positive_roots_h extracts the positive roots of h, gated by the
    coefficient criterion (b3 < 0, or b3 >= 0 with the two sign conditions
    on b1, b2 and the discriminant), and fails loudly if the gate and the
    extraction disagree;
  * theta recovers the phase angle theta(tau) in [0, 2*pi) from the real
    and imaginary parts of the resonance conditions;
  * sn_value builds S_n(tau) = tau - (theta(tau) + 2*n*pi)/omega(tau); a
    zero of S_n is a delay where i*omega(tau) is an actual characteristic
    root;
  * scan samples every S_n on every live root branch over a tau grid,
    refines each sign change by bisection, takes its direction from
    sign(dh/dz) and the sign of its S_n bracket, and counts right-half-plane
    root pairs over [0, tau_max) from the no-delay verdict.

Evaluations at distinct tau are independent; everything is deterministic
for a fixed grid.  The coefficients of each delay are built once:
linear_coeffs keeps every build, refused or not, per parameter set and
delay, with the equilibrium memo's rule (equilibria.ParamsMemo), so the
CLI's rows, the root window, the grid samples, the S_n refinement and the
crossing reports share one build.  A NumericalError is not cached.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .cubic import cubic_prime, cubic_value, real_cubic_roots
from .equilibria import ParamsMemo, positive_equilibrium, tau_max
from .linearization import CharCoeffs, LinCoeffs, char_coeffs, linearize, routh_hurwitz_tau0
from .model import ModelParams, NumericalError, bisect_flip

_S_TOL = 1e-10
_RESIDUAL_TOL = 1e-8
# the runtime check only rejects grids too coarse to bracket crossings at all
_GRID_SPACING_CAP = 0.05
_MAX_SN_SAMPLES = 1_000_000  # (n_max + 1) * len(grid); the reference scan takes 1196

_coeff_memo = ParamsMemo()  # linear_coeffs' builds, replaced as the equilibrium memo is


class DegenerateDenominatorError(NumericalError):
    """|Q(i*omega)|^2 vanished, so the phase angle is undefined."""


class OmegaRoot(NamedTuple):
    """One positive root z of h, with omega = sqrt(z) and the sign of dh/dz."""

    z: float
    omega: float
    dh_sign: int


class SnCurve(NamedTuple):
    n: int
    branch: int
    samples: tuple[tuple[float, float], ...]  # (tau, S_n(tau)) where defined
    roots: tuple[float, ...]  # refined crossing delays


class SwitchReport(NamedTuple):
    tau_star: float
    omega_star: float
    n: int
    branch: int
    transversality: int  # sign(dh/dz) * sign of S_n's rise over its bracket
    # "destabilizing" | "stabilizing", or "unclassified" if unrefined or simultaneous
    direction: str
    residual: float  # |P(i omega*) + Q(i omega*) exp(-i omega* tau*)|
    refined: bool


class ScanResult(NamedTuple):
    curves: tuple[SnCurve, ...]
    reports: tuple[SwitchReport, ...]
    # half-open intervals (lo, hi, verdict) tiling [0, tau_max)
    partition: tuple[tuple[float, float, str], ...]


def _roots_criterion(cc: CharCoeffs) -> bool:
    """Positive roots of h exist, decided from b1, b2, b3 alone."""
    b1, b2, b3 = cc.b1, cc.b2, cc.b3
    if b3 < 0.0:
        return True
    if not (b2 < 0.0 or (b1 < 0.0 <= b2 < b1 * b1 / 3.0)):
        return False
    delta = b1 * b1 - 3.0 * b2
    z0 = (-b1 + math.sqrt(delta)) / 3.0
    return 2.0 * delta * z0 + b1 * b2 - 9.0 * b3 > 0.0


def positive_roots_h(cc: CharCoeffs) -> list[OmegaRoot]:
    """Positive roots of h(., tau), descending, tagged with sign of dh/dz.

    The existence criterion and the actual cubic extraction are run
    independently; disagreement raises NumericalError.
    """
    exist = _roots_criterion(cc)
    b1, b2, b3 = cc.b1, cc.b2, cc.b3
    tol = 1e-9 * (1.0 + abs(b3))
    found = [z for z in real_cubic_roots(b1, b2, b3) if z > 0.0]
    for z in found:
        if not abs(cubic_value(b1, b2, b3, z)) < tol:
            raise NumericalError(f"extracted root z={z!r} has residual above {tol:.3e}")
    if exist != bool(found):
        raise NumericalError(
            f"root criterion says {exist} but extraction found {len(found)} roots "
            f"(b1={b1!r}, b2={b2!r}, b3={b3!r})"
        )
    out = []
    for z in reversed(found):  # found is ascending and distinct
        d = cubic_prime(b1, b2, z)
        out.append(tuple.__new__(OmegaRoot, (z, math.sqrt(z), (d > 0.0) - (d < 0.0))))
    return out


def theta(cc: CharCoeffs, omega: float) -> float:
    """Phase angle in [0, 2*pi) pairing omega with its crossing delay.

    Built from the resonance numerators; when h(omega^2) = 0 their hypot
    equals |Q(i*omega)|^2, so the atan2 result satisfies both the cosine
    and sine conditions at once.
    """
    a1, a2, a3, a4, a5, a6 = cc.a1, cc.a2, cc.a3, cc.a4, cc.a5, cc.a6
    w2 = omega * omega
    den = (a4 * a4 * w2 + (a5 * a5 - 2.0 * a4 * a6)) * w2 + a6 * a6
    if den == 0.0:
        raise DegenerateDenominatorError(f"|Q(i*{omega!r})|^2 = 0")
    nc = ((a5 - a1 * a4) * w2 + (a1 * a6 + a3 * a4 - a2 * a5)) * w2 - a3 * a6
    ns = ((a4 * w2 + (a1 * a5 - a2 * a4 - a6)) * w2 + (a2 * a6 - a3 * a5)) * omega
    angle = math.atan2(ns, nc)
    return angle + 2.0 * math.pi if angle < 0.0 else angle


def char_residual(cc: CharCoeffs, lam: complex, tau: float) -> complex:
    """P(lambda) + Q(lambda)*exp(-lambda*tau), the quantity that crossings zero."""
    p = ((lam + cc.a1) * lam + cc.a2) * lam + cc.a3
    q = (cc.a4 * lam + cc.a5) * lam + cc.a6
    return p + q * cmath.exp(-lam * tau)


def linear_coeffs(p: ModelParams, tau: float) -> tuple[LinCoeffs, CharCoeffs] | None:
    """The linearization and coefficients at the positive equilibrium, built
    once per delay and kept, a build that _coeffs_at refuses included."""
    built = _coeff_memo.get(p, tau)
    if built is not _coeff_memo.MISSING:
        return built
    eq = positive_equilibrium(p, tau)
    lc = None if eq is None else linearize(p, eq, tau)
    built = None if lc is None else (lc, char_coeffs(lc, p.mu, p.k))
    _coeff_memo.put(p, tau, built)
    return built


def _coeffs_at(p: ModelParams, tau: float) -> CharCoeffs | None:
    """The coefficients at the positive equilibrium, built once per delay;
    a root at the origin raises NumericalError on every call."""
    built = linear_coeffs(p, tau)
    cc = built and built[1]
    # no root may sit at the origin, else crossings through 0 would go unseen
    if cc is not None and not cc.a3 + cc.a6 > 0.0:
        raise NumericalError(f"a3+a6 = {cc.a3 + cc.a6!r} <= 0 at tau={tau!r}")
    return cc


def sn_value(p: ModelParams, tau: float, n: int, branch: int) -> float | None:
    """S_n(tau) on the requested root branch, or None where undefined.

    Undefined means: no positive equilibrium at this delay, or h has fewer
    than branch+1 positive roots there.
    """
    if n < 0 or branch < 0:
        raise ValueError("n and branch must be nonnegative")
    state = _sn_state(p, tau, branch)
    if state is None:
        return None
    root, phase, _ = state
    return tau - (phase + 2.0 * math.pi * n) / root.omega


def _sn_state(
    p: ModelParams, tau: float, branch: int
) -> tuple[OmegaRoot, float, CharCoeffs] | None:
    cc = _coeffs_at(p, tau)
    if cc is None:
        return None
    roots = positive_roots_h(cc)
    if branch >= len(roots):
        return None
    root = roots[branch]
    return root, theta(cc, root.omega), cc


def positive_root_intervals(
    p: ModelParams, tau_grid: list[float]
) -> list[tuple[float, float]]:
    """Maximal intervals of the grid's span where h has a positive root.

    Aliveness is sampled at the grid points and each flip is refined by
    model.bisect_flip on the existence criterion to a width of 1e-10; the
    edge is the midpoint of the final bracket.
    """
    _check_grid(p, tau_grid)

    def alive(t: float) -> bool:
        cc = _coeffs_at(p, t)
        return cc is not None and _roots_criterion(cc)

    flags = [alive(t) for t in tau_grid]
    edges: list[float] = []
    for i in range(len(tau_grid) - 1):
        if flags[i] != flags[i + 1]:
            lo, hi = bisect_flip(lambda t: alive(t) == flags[i], tau_grid[i], tau_grid[i + 1], 1e-10)
            edges.append(0.5 * (lo + hi))
    # each edge flips aliveness, so the interval ends alternate start, end
    ends = ([tau_grid[0]] if flags[0] else []) + edges + ([tau_grid[-1]] if flags[-1] else [])
    return list(zip(ends[::2], ends[1::2]))


def _check_grid(p: ModelParams, tau_grid: list[float]) -> None:
    if len(tau_grid) < 2:
        raise ValueError("tau grid needs at least two points")
    if tau_grid[0] > 1e-12:
        raise ValueError("tau grid must start at 0")
    spacing_cap = _GRID_SPACING_CAP * (1.0 + 1e-9)
    for a, b in zip(tau_grid, tau_grid[1:]):
        if not b > a:
            raise ValueError("tau grid must be strictly increasing")
        if b - a > spacing_cap:
            raise ValueError(f"tau grid spacing {b - a!r} exceeds {_GRID_SPACING_CAP}")
    tm = tau_max(p)
    if tm is None:
        raise ValueError("no positive steady state exists at any delay")
    if math.isfinite(tm):
        if not tau_grid[-1] < tm:
            raise ValueError(f"tau grid must stay below tau_max={tm!r}")
        if tm - tau_grid[-1] > spacing_cap:
            raise ValueError("tau grid must reach within one spacing of tau_max")


def _refine_crossing(
    p: ModelParams, n: int, branch: int, lo: float, hi: float, s_lo: float
) -> tuple[float, bool]:
    """Bisect S_n to |S| < 1e-10; returns (tau, refined).

    If the branch dies inside the bracket, the aliveness boundary is located
    first and the search continues on the surviving side; when the sign
    change cannot be pinned down there, the best midpoint is returned
    unrefined.
    """
    if abs(s_lo) < _S_TOL:
        return lo, True
    best_tau, best_abs = lo, abs(s_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s_mid = sn_value(p, mid, n, branch)
        if s_mid is None:
            # narrow the branch boundary, then retry on the side where the
            # curve is still defined
            blo, _ = bisect_flip(lambda t: sn_value(p, t, n, branch) is not None, lo, hi, 1e-12)
            s_edge = sn_value(p, blo, n, branch)
            if s_edge is None or (s_edge > 0.0) == (s_lo > 0.0):
                return best_tau, False
            hi = blo
            continue
        if abs(s_mid) < best_abs:
            best_tau, best_abs = mid, abs(s_mid)
        if abs(s_mid) < _S_TOL:
            return mid, True
        if (s_mid > 0.0) == (s_lo > 0.0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid
    return best_tau, False  # every |S| < _S_TOL returned above


def scan(p: ModelParams, tau_grid: list[float], n_max: int) -> ScanResult:
    """Sample S_n curves, refine crossings, and map stability over the grid.

    Each crossing's transversality is sign(dh/dz) times the sign of S_n's
    rise across the grid bracket it was refined in (Beretta and Kuang, SIAM
    J. Math. Anal. 33, 2002).  The partition counts right-half-plane root
    pairs, starting at 0 or 1 from the no-delay Routh-Hurwitz verdict: +1
    at a destabilizing crossing, -1 at a stabilizing one.  A crossing left
    unrefined (S_n changed sign but no zero was found, as at a theta wrap
    or a branch switch) is unclassified, and so is every piece after it.
    ValueError for n_max < 1 or past _MAX_SN_SAMPLES S_n samples, before
    the grid is checked or any coefficient is built.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if (n_max + 1) * len(tau_grid) > _MAX_SN_SAMPLES:
        raise ValueError(
            f"n_max {n_max} gives {(n_max + 1) * len(tau_grid)} S_n points over "
            f"{len(tau_grid)} delays; at most {_MAX_SN_SAMPLES} are allowed"
        )
    _check_grid(p, tau_grid)
    max_gap = max(b - a for a, b in zip(tau_grid, tau_grid[1:]))

    per_tau: list[tuple[float, list[OmegaRoot], CharCoeffs | None]] = []
    for t in tau_grid:
        cc = _coeffs_at(p, t)
        roots = positive_roots_h(cc) if cc is not None else []
        per_tau.append((t, roots, cc))

    max_branches = max((len(r) for _, r, _ in per_tau), default=0)
    curves: list[SnCurve] = []
    reports: list[SwitchReport] = []
    for branch in range(max_branches):
        # phase and omega are shared across n, so sample once per grid point
        base: list[tuple[float, float, float]] = []
        for t, roots, cc in per_tau:
            if branch < len(roots):
                omega = roots[branch].omega
                base.append((t, omega, theta(cc, omega)))
        for n in range(n_max + 1):
            samples = tuple(
                (t, t - (ph + 2.0 * math.pi * n) / w) for t, w, ph in base
            )
            roots_n: list[float] = []
            for (t0, s0), (t1, s1) in zip(samples, samples[1:]):
                if t1 - t0 > 1.5 * max_gap:
                    continue  # branch gap, not a contiguous bracket
                if s0 == 0.0 or (s0 > 0.0) != (s1 > 0.0):
                    tau_star, refined = _refine_crossing(p, n, branch, t0, t1, s0)
                    roots_n.append(tau_star)
                    rising = (s1 > s0) - (s1 < s0)
                    reports.append(_build_report(p, tau_star, n, branch, refined, rising))
            curves.append(SnCurve(n, branch, samples, tuple(roots_n)))

    reports.sort(key=lambda r: r.tau_star)
    deduped: list[SwitchReport] = []
    for r in reports:
        if deduped and (
            r.n == deduped[-1].n
            and r.branch == deduped[-1].branch
            and abs(r.tau_star - deduped[-1].tau_star) < 1e-9
        ):
            continue
        deduped.append(r)
    reports = _mark_simultaneous(deduped)
    partition = _assemble_partition(p, tau_grid, reports)
    return ScanResult(tuple(curves), tuple(reports), partition)


def _build_report(
    p: ModelParams, tau_star: float, n: int, branch: int, refined: bool, rising: int
) -> SwitchReport:
    state = _sn_state(p, tau_star, branch)
    if state is None:
        raise NumericalError(f"branch {branch} vanished at refined root tau={tau_star!r}")
    root, _, cc = state
    residual = abs(char_residual(cc, 1j * root.omega, tau_star))
    if refined and not residual < _RESIDUAL_TOL:
        raise NumericalError(
            f"crossing at tau={tau_star!r} has residual {residual:.3e}"
        )
    sign = root.dh_sign * rising
    if sign == 0:
        raise NumericalError(f"transversality undetermined at tau={tau_star!r}")
    direction = ("destabilizing" if sign > 0 else "stabilizing") if refined else "unclassified"
    return SwitchReport(tau_star, root.omega, n, branch, sign, direction, residual, refined)


def _mark_simultaneous(reports: list[SwitchReport]) -> list[SwitchReport]:
    out = list(reports)
    i = 0
    while i < len(out):
        j = i
        while j + 1 < len(out) and out[j + 1].tau_star - out[i].tau_star < 1e-8:
            j += 1
        if j > i:
            out[i : j + 1] = [r._replace(direction="unclassified") for r in out[i : j + 1]]
        i = j + 1
    return out


def _assemble_partition(
    p: ModelParams, tau_grid: list[float], reports: list[SwitchReport]
) -> tuple[tuple[float, float, str], ...]:
    cc0 = _coeffs_at(p, 0.0)
    if cc0 is None:
        return ()
    tm = tau_max(p)
    end = tm if tm is not None and math.isfinite(tm) else tau_grid[-1]

    # At tau = 0 the roots solve lambda^3 + (a1+a4) lambda^2 + (a2+a5) lambda
    # + (a3+a6) = 0, with a3+a6 > 0 (enforced) and a1+a4 = mu + k + g' - g/Q
    # = mu + k > 0 (g is linear).  Their product -(a3+a6) < 0 leaves 0 or 2
    # in the right half-plane, and those can leave only across the imaginary
    # axis, so the pair count starts at 0 or 1.
    pieces = []
    lo = 0.0
    pairs = 0 if routh_hurwitz_tau0(cc0) else 1
    ambiguous = False
    for r in reports:
        verdict = _verdict(pairs, ambiguous)
        if r.tau_star > lo:
            pieces.append((lo, r.tau_star, verdict))
        if r.direction == "unclassified":
            ambiguous = True
        pairs += r.transversality
        if pairs < 0:
            raise NumericalError("more stabilizing than destabilizing crossings")
        lo = r.tau_star
    pieces.append((lo, end, _verdict(pairs, ambiguous)))
    return tuple(pieces)


def _verdict(pairs: int, ambiguous: bool) -> str:
    if ambiguous:
        return "unclassified"
    return "stable" if pairs == 0 else "unstable"
