"""Minimum-error discrimination of the correlated vs anti-correlated mixtures.

Two routes to the node-level error probability are exposed side by side:

* ``helstrom_error`` evaluates 1/2 (1 - |1/2 (rho1 - rho0)|_1) numerically
  on explicit density operators.  Applied to the trace-1 mixtures from
  :func:`twinfield_qka.coherent.correlated_mixture` it yields exp(-4 mu)/2:
  the minimum error for the states as built.
* ``qmin_pair_closed`` evaluates the analytic shortcut (3 + exp(-4 mu))/8
  published for this protocol family.  It is the same Helstrom formula
  applied to the two mixtures taken at trace 1/2 each, with one 2x2 block
  of the anti-correlated mixture replaced by the correlated one's, so
  that the operators differ in one block only (pinned by the test suite).

Two nodes err independently, so either route's three-party error is
``compose_error(q, q)``.  Neither value enters the key rate, which comes
from the Holevo bound in :mod:`twinfield_qka.keyrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coherent import correlated_mixture
from .errors import NON_NEGATIVE, PROBABILITY, check
from .linalg import check_density, trace_norm


@dataclass(frozen=True)
class DiscriminationResult:
    """Single-node error probabilities for one intensity: numeric bound and closed form."""

    mu: float
    q_helstrom: float
    q_closed_pair: float


def helstrom_error(rho0, rho1) -> float:
    """Minimum error probability to distinguish two equiprobable states.

    Returns 1/2 (1 - |1/2 (rho1 - rho0)|_1), computed from the eigenvalues
    of the difference.  Both inputs must be trace-1 density operators.
    """
    r0 = check_density(rho0)
    r1 = check_density(rho1)
    q = 0.5 * (1.0 - trace_norm(0.5 * (r1 - r0)))
    return float(min(max(q, 0.0), 0.5))


def qmin_pair_closed(mu: float) -> float:
    """Closed-form single-node error (3 + exp(-4 mu))/8."""
    check("mean photon number", mu, NON_NEGATIVE)
    return (math.exp(-4.0 * mu) + 3.0) / 8.0


def compose_error(q1: float, q2: float) -> float:
    """Probability that at least one of two independent nodes errs, 1 - (1-q1)(1-q2)."""
    for q in (q1, q2):
        check("error probability", q, PROBABILITY)
    return 1.0 - (1.0 - q1) * (1.0 - q2)


def discriminate(mu: float) -> DiscriminationResult:
    """Evaluate the numeric bound and the closed form at one intensity."""
    q_num = helstrom_error(correlated_mixture(+1, mu), correlated_mixture(-1, mu))
    return DiscriminationResult(mu=mu, q_helstrom=q_num, q_closed_pair=qmin_pair_closed(mu))
