"""Linearization and characteristic-equation coefficients at a steady state.

Perturbing (Q, M, E) about an equilibrium of the delayed system yields a
linear DDE whose characteristic equation is

    (lambda + mu)(lambda + k)(lambda + A - B*exp(-lambda*tau))
        - G*H*(C - D*exp(-lambda*tau)) = 0,

written throughout as P(lambda) + Q(lambda)*exp(-lambda*tau) = 0 with cubic
P and quadratic Q.  Purely imaginary roots lambda = i*omega require
|P(i*omega)|^2 = |Q(i*omega)|^2, a cubic condition in z = omega^2:

    h(z) = z^3 + b1*z^2 + b2*z + b3 = 0.

This module computes the six linearization constants A, B, C, D, G, H, the
polynomial coefficients a1..a6 and b1..b3, and the tau = 0 Routh-Hurwitz
verdict.  Each coefficient is computed once, in char_coeffs; the tests check
the transcription against the characteristic equation above, written out
independently.  h and h' are evaluated in the cubic module only; the root
geometry of h and the crossing machinery live in the switch module.
"""

from __future__ import annotations

from typing import NamedTuple

from .equilibria import Equilibrium
from .model import ModelParams, reward


class LinCoeffs(NamedTuple):
    """Constants of the linearized system at one equilibrium and delay."""

    A: float
    B: float
    C: float
    D: float
    G: float
    H: float
    tau: float


class CharCoeffs(NamedTuple):
    """Coefficients of P, Q and of the imaginary-root cubic h."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    b1: float
    b2: float
    b3: float
    tau: float


def linearize(p: ModelParams, eq: Equilibrium, tau: float) -> LinCoeffs:
    """Linearization constants at `eq`, which must be computed at `tau`."""
    if eq.tau != tau:
        raise ValueError(f"equilibrium computed at tau={eq.tau}, requested tau={tau}")
    r = p.rates
    Q, M, E = eq.Q, eq.M, eq.E
    surv = reward(p, tau)
    b = r.beta(Q, E)
    bE = r.beta_dE(Q, E)
    G = r.g_prime(Q)
    # A, B, C, D, G, H, tau; beta does not depend on Q, so A and B carry no beta_Q*Q
    return tuple.__new__(LinCoeffs, (p.delta + G + b, surv * b, bE * Q, surv * bE * Q, G, -r.f_prime(M), tau))


def char_coeffs(c: LinCoeffs, mu: float, k: float) -> CharCoeffs:
    """P/Q coefficients a1..a6 and the cubic h's b1..b3."""
    A, B, C, D, G, H = c.A, c.B, c.C, c.D, c.G, c.H
    a1 = mu + k + A
    a2 = mu * k + A * (mu + k)
    a3 = mu * k * A - G * H * C
    a4 = -B
    a5 = -B * (mu + k)
    a6 = -B * mu * k + G * H * D

    b1 = a1 * a1 - 2.0 * a2 - a4 * a4
    b2 = a2 * a2 + 2.0 * a4 * a6 - 2.0 * a1 * a3 - a5 * a5
    b3 = a3 * a3 - a6 * a6

    return tuple.__new__(CharCoeffs, (a1, a2, a3, a4, a5, a6, b1, b2, b3, c.tau))


def routh_hurwitz_tau0(cc: CharCoeffs) -> bool:
    """Stability of the no-delay cubic: (a1+a4)(a2+a5) > a3+a6."""
    if cc.tau != 0.0:
        raise ValueError(f"coefficients were built at tau={cc.tau}, not 0")
    return (cc.a1 + cc.a4) * (cc.a2 + cc.a5) - (cc.a3 + cc.a6) > 0.0
