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

import numpy as np

from .errors import NON_NEGATIVE, ValidationError, check
from .linalg import outer


#: The two sign pairs (sa, sb) of each parity sa * sb.
SIGN_PAIRS = {+1: ((+1, +1), (-1, -1)), -1: ((+1, -1), (-1, +1))}


def sign_value(s) -> int:
    """Normalize a phase-sign argument to the int +1 or -1."""
    if s in (+1, -1):
        return int(s)
    raise ValidationError(f"phase sign must be +1 or -1, got {s!r}")


def basis_coeffs(mu: float) -> tuple:
    """Even/odd branch amplitudes (c0, c1) of |sqrt(mu)>, c0^2 + c1^2 = 1; subnormal mu too."""
    check("mean photon number", mu, NON_NEGATIVE)
    try:
        cosh, sinh = math.cosh(mu), math.sinh(mu)
    except OverflowError:  # mu above ~710
        raise ValidationError(f"mean photon number too large: cosh({mu!r}) overflows") from None
    c0 = math.exp(-mu / 2.0) * math.sqrt(cosh)
    c1 = math.exp(-mu / 2.0) * math.sqrt(sinh)
    return c0, c1


def signal_vector(sa, sb, mu: float) -> np.ndarray:
    """Joint two-pulse state for phase signs (sa, sb), both at intensity mu.

    Components in the basis order {e0e0, e1e1, e0e1, e1e0}:
    (c0^2, sa*sb*c1^2, sb*c0*c1, sa*c0*c1).  Unit norm for every sign pair.
    """
    sa = sign_value(sa)
    sb = sign_value(sb)
    c0, c1 = basis_coeffs(mu)
    return np.array(
        [
            c0 * c0,
            sa * sb * c1 * c1,
            sb * c0 * c1,
            sa * c0 * c1,
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
    rho = np.zeros((4, 4), dtype=complex)
    for sa, sb in SIGN_PAIRS[sign_value(parity)]:
        rho += 0.5 * outer(signal_vector(sa, sb, mu))
    return rho
