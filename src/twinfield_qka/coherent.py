"""Weak-coherent-state encoding on the two-dimensional subspace.

A phase-flipped coherent pulse |±sqrt(mu)> lives in the span of two
orthonormal vectors {e0, e1} (the even and odd photon-number branches):

    |±sqrt(mu)> = c0 |e0> ± c1 |e1>,
    c0 = exp(-mu/2) sqrt(cosh mu),   c1 = exp(-mu/2) sqrt(sinh mu),

so a pair of pulses headed for one measurement node lives in the
4-dimensional space ordered {e0e0, e1e1, e0e1, e1e0}.  This module builds
the joint signal vectors for the four sign choices and the equal mixtures
of correlated / anti-correlated pairs that an eavesdropper at the node has
to tell apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import outer

#: The two legal phase signs (phase 0 -> +1, phase pi -> -1).
SIGNS = (+1, -1)


def sign_value(s) -> int:
    """Normalize a phase-sign argument to +1 or -1 (accepts '+'/'-' too)."""
    if s in (+1, -1):
        return int(s)
    if s == "+":
        return +1
    if s == "-":
        return -1
    raise ValidationError(f"phase sign must be +1, -1, '+' or '-', got {s!r}")


@dataclass(frozen=True)
class CoherentBasisCoeffs:
    """Subspace amplitudes of |sqrt(mu)> with c0^2 + c1^2 = 1."""

    mu: float
    c0: float
    c1: float


def basis_coeffs(mu: float) -> CoherentBasisCoeffs:
    """Even/odd branch amplitudes c0, c1 for mean photon number mu."""
    if mu < 0:
        raise ValidationError(f"mean photon number must be >= 0, got {mu!r}")
    try:
        cosh, sinh = math.cosh(mu), math.sinh(mu)
    except OverflowError:  # mu above ~710
        raise ValidationError(f"mean photon number too large: cosh({mu!r}) overflows") from None
    c0 = math.exp(-mu / 2.0) * math.sqrt(cosh)
    c1 = math.exp(-mu / 2.0) * math.sqrt(sinh)
    return CoherentBasisCoeffs(mu=mu, c0=c0, c1=c1)


def signal_vector(sa, sb, mu: float) -> np.ndarray:
    """Joint two-pulse state for phase signs (sa, sb), both at intensity mu.

    Components in the basis order {e0e0, e1e1, e0e1, e1e0}:
    (c0^2, sa*sb*c1^2, sb*c0*c1, sa*c0*c1).  Unit norm for every sign pair.
    """
    sa = sign_value(sa)
    sb = sign_value(sb)
    c = basis_coeffs(mu)
    return np.array(
        [
            c.c0 * c.c0,
            sa * sb * c.c1 * c.c1,
            sb * c.c0 * c.c1,
            sa * c.c0 * c.c1,
        ],
        dtype=complex,
    )


def correlated_mixture(parity, mu: float) -> np.ndarray:
    """Trace-1 equal mixture of the two sign pairs with the given parity.

    parity +1 mixes (+,+) and (-,-); parity -1 mixes (+,-) and (-,+).
    The result is block diagonal in the {first two, last two} basis split.

    Built literally as 1/2 (|v><v| + |v'><v'|) from the signal vectors.
    Note that this outer-product construction fixes both the overall
    normalization (trace 1) and the off-diagonal signs: the + parity gets
    +c0^2 c1^2 off-diagonals and the - parity gets -c0^2 c1^2.
    """
    p = sign_value(parity)
    pairs = [(+1, +1), (-1, -1)] if p == +1 else [(+1, -1), (-1, +1)]
    rho = np.zeros((4, 4), dtype=complex)
    for sa, sb in pairs:
        rho += 0.5 * outer(signal_vector(sa, sb, mu))
    return rho
