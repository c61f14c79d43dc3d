"""Real roots of a monic cubic z^3 + b1*z^2 + b2*z + b3.

Three-real-root instances go through the trigonometric form, the
single-real-root ones through Cardano with the sign-stable radical; the
deflated quadratic recovers a double root when the discriminant sits on the
boundary.  Each root gets one guarded Newton polish on the original cubic.
cubic_value and cubic_prime are the one evaluator of the cubic and of its
derivative; switch evaluates the imaginary-root cubic h with them.
"""

from __future__ import annotations

import math

from .model import NumericalError


def cubic_value(b1: float, b2: float, b3: float, z: float) -> float:
    """z^3 + b1*z^2 + b2*z + b3, in Horner form."""
    return ((z + b1) * z + b2) * z + b3


def cubic_prime(b1: float, b2: float, z: float) -> float:
    """3*z^2 + 2*b1*z + b2, the derivative of cubic_value in z."""
    return (3.0 * z + 2.0 * b1) * z + b2


def _polish(b1: float, b2: float, b3: float, z: float) -> float:
    d = cubic_prime(b1, b2, z)
    if d == 0.0 or not math.isfinite(d):
        return z
    v = cubic_value(b1, b2, b3, z)
    step = v / d
    if not math.isfinite(step):
        return z
    # a Newton step from a near-multiple root can blow up; keep it only if
    # it does not worsen the residual
    zn = z - step
    return zn if abs(cubic_value(b1, b2, b3, zn)) <= abs(v) else z


def real_cubic_roots(b1: float, b2: float, b3: float) -> list[float]:
    """All real roots, ascending, with multiplicity collapsed to one entry."""
    if not (math.isfinite(b1) and math.isfinite(b2) and math.isfinite(b3)):
        raise ValueError("coefficients must be finite")
    try:  # a float ** raises where * gives inf, so R * R is checked by hand
        Q = (b1 * b1 - 3.0 * b2) / 9.0
        R = (2.0 * b1 ** 3 - 9.0 * b1 * b2 + 27.0 * b3) / 54.0
        Q3 = Q ** 3
        R2 = R * R
        if not math.isfinite(R2):
            raise OverflowError
    except OverflowError:
        raise NumericalError(f"cubic with b1={b1!r}, b2={b2!r}, b3={b3!r} overflows") from None

    if R2 < Q3:
        th = math.acos(R / math.sqrt(Q3))
        m = -2.0 * math.sqrt(Q)
        shift = b1 / 3.0
        roots = [
            m * math.cos((th + 2.0 * math.pi * k) / 3.0) - shift for k in (0, 1, 2)
        ]
    else:
        # sign-stable Cardano: the large-magnitude cube root first, the
        # companion term as Q over it to avoid cancellation
        big = -math.copysign(
            (abs(R) + math.sqrt(max(R2 - Q3, 0.0))) ** (1.0 / 3.0), R
        )
        small = Q / big if big != 0.0 else 0.0
        r0 = big + small - b1 / 3.0
        roots = [r0]
        # deflate: z^3+b1 z^2+b2 z+b3 = (z-r0)(z^2+u z+v)
        u = b1 + r0
        v = b2 + r0 * u
        disc = u * u - 4.0 * v
        if disc >= 0.0:
            s = math.sqrt(disc)
            q = -0.5 * (u + math.copysign(s, u))
            roots.append(q)
            if q != 0.0:
                roots.append(v / q)

    polished = sorted([_polish(b1, b2, b3, z) for z in roots])
    out: list[float] = []
    for z in polished:
        if not out or abs(z - out[-1]) > 1e-9 * max(1.0, abs(z)):
            out.append(z)
    return out
