"""Real roots of a monic cubic z^3 + b1*z^2 + b2*z + b3.

Three-real-root instances go through the trigonometric form, the
single-real-root ones through Cardano with the sign-stable radical; the
deflated quadratic recovers a double root when the discriminant sits on the
boundary.  Each root gets one guarded Newton polish on the original cubic,
written out in real_cubic_roots; its composed form, checks.composed_cubic_roots
in the tests, is the oracle it matches bit for bit.  cubic_value and
cubic_prime evaluate the cubic and its derivative for switch and the tests.
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
        roots = (  # th + 2*pi*k for k = 0, 1, 2
            m * math.cos(th / 3.0) - shift,
            m * math.cos((th + 2.0 * math.pi) / 3.0) - shift,
            m * math.cos((th + 4.0 * math.pi) / 3.0) - shift,
        )
    else:
        # sign-stable Cardano: the large-magnitude cube root first, the
        # companion term as Q over it to avoid cancellation
        big = -math.copysign((abs(R) + math.sqrt(max(R2 - Q3, 0.0))) ** (1.0 / 3.0), R)
        small = Q / big if big != 0.0 else 0.0
        r0 = big + small - b1 / 3.0
        roots = (r0,)
        # deflate: z^3+b1 z^2+b2 z+b3 = (z-r0)(z^2+u z+v)
        u = b1 + r0
        v = b2 + r0 * u
        disc = u * u - 4.0 * v
        if disc >= 0.0:
            q = -0.5 * (u + math.copysign(math.sqrt(disc), u))
            roots = (r0, q, v / q) if q != 0.0 else (r0, q)

    polished = []
    for z in roots:  # one Newton step, with cubic_prime and cubic_value written out
        d = (3.0 * z + 2.0 * b1) * z + b2
        if d != 0.0 and math.isfinite(d):
            h = ((z + b1) * z + b2) * z + b3
            step = h / d
            # a step from a near-multiple root can blow up; keep it only if
            # it does not worsen the residual
            if math.isfinite(step):
                zn = z - step
                if abs(((zn + b1) * zn + b2) * zn + b3) <= abs(h):
                    z = zn
        polished.append(z)
    polished.sort()
    out: list[float] = []
    for z in polished:
        if not out or abs(z - out[-1]) > 1e-9 * max(1.0, abs(z)):
            out.append(z)
    return out
