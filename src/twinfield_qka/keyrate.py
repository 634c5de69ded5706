"""Loss-only collective-attack key rate analysis.

The eavesdropper sits at a measurement node, receives two weak coherent
pulses that each crossed one fiber arm of transmittance sqrt(eta) (eta is
the end-to-end party-to-party transmittance of the link), and announces
'+', '-' or '?'.  Her measurement consistent with pure loss is the
three-element POVM built here, parameterized by

    xi    = exp(-sqrt(eta) mu)        (per-arm survival amplitude factor)
    omega = exp(-2 (1 - sqrt(eta)) mu) (lost-light overlap factor)

from which everything else follows: announcement statistics, her
conditional states, the Holevo information, and the per-link secret
fraction.  The end-to-end statistics only enter through the products
xi^2 omega = exp(-2 mu) and xi^2 omega^2, which is what makes the closed
forms below exact.

Closed forms (verified against the explicit operator pipeline by the
`selfcheck` battery, which treats the pipeline as the primary oracle):

    p(conclusive)      = 1 - exp(-2 sqrt(eta) mu)
    chi                = h((1 - exp(-4 mu (1-sqrt(eta))) exp(-2 mu sqrt(eta)))/2)
    rate per announce  = max(0, 1 - delta_ec - chi)
    bits per pulse     = p(conclusive) * rate

link_rate is the one place these are written.  delta_ec is the
error-correction leakage per conclusive round: a flat figure for the
closed-form rates, and h(qber) of the measured errors for a simulated
session.  chi is the loss-only bound, not a security bound once errors
appear.  A chain of links (a session, a segment, a network) runs at the
min of its links' bits per pulse; on a tie the first link is reported.
asymptotic_rate picks a segment's (or the `keyrate` command's) slowest link,
network.plan_rates the network's slowest segment, and
simulation.run_session the session's slower node, from its measured rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import SIGN_PAIRS, basis_coeffs, sign_value, signal_vector
from .errors import (NON_NEGATIVE, POSITIVE, POVM_INTENSITY, TRANSMITTANCE,
                     ImpossibleBranchError, UsageError, ValidationError, check)
from .linalg import binary_entropy, outer, psd_sqrt, von_neumann_entropy

OUTCOMES = ("+", "-", "?")

#: Born probabilities below this are treated as impossible branches.
BORN_PROBABILITY_FLOOR = 1e-15

#: Fiber loss model: 0.2 dB/km.
FIBER_DB_PER_KM = 0.2


@dataclass(frozen=True)
class LossPovm:
    """The three node measurement elements for one (mu, eta) working point."""

    mu: float
    eta: float
    xi: float
    omega: float
    f_plus: np.ndarray
    f_minus: np.ndarray
    f_inconclusive: np.ndarray

    def element(self, delta: str) -> np.ndarray:
        if delta not in OUTCOMES:
            raise ValidationError(f"announcement must be one of {OUTCOMES}, got {delta!r}")
        return (self.f_plus, self.f_minus, self.f_inconclusive)[OUTCOMES.index(delta)]


def loss_povm(mu: float, eta: float) -> LossPovm:
    """Build the loss-only POVM {F+, F-, F?} for intensity mu, link transmittance eta.

    The elements are exact rationals in xi, omega and the subspace
    amplitudes; F+ + F- + F? = identity holds identically because
    xi^2 omega = exp(-2 mu).  mu below errors.POVM_MU_MIN is refused, not
    built: there 8 c1^4, about 8 mu^2, underflows to 0.
    """
    check("intensity", mu, POVM_INTENSITY)
    check("transmittance", eta, TRANSMITTANCE)
    c0, c1 = basis_coeffs(mu)
    c02 = c0 * c0
    c12 = c1 * c1
    xi = math.exp(-math.sqrt(eta) * mu)
    omega = math.exp(-2.0 * (1.0 - math.sqrt(eta)) * mu)
    x2o2 = xi * xi * omega * omega
    lo = 1.0 - x2o2
    hi = 1.0 + x2o2
    f_plus = (1.0 - xi * xi) * np.array(
        [
            [lo / (8 * c02 * c02), lo / (8 * c02 * c12), 0, 0],
            [lo / (8 * c02 * c12), lo / (8 * c12 * c12), 0, 0],
            [0, 0, hi / (8 * c02 * c12), hi / (8 * c02 * c12)],
            [0, 0, hi / (8 * c02 * c12), hi / (8 * c02 * c12)],
        ],
        dtype=complex,
    )
    # Alice's phase flip, diag(1, -1, 1, -1) on {e0e0, e1e1, e0e1, e1e0}, maps F+ to F-.
    s = np.array([1, -1, 1, -1])
    f_minus = f_plus * np.outer(s, s)
    f_inconclusive = (xi * xi) * np.diag(
        [
            (1.0 + omega) ** 2 / (4 * c02 * c02),
            (1.0 - omega) ** 2 / (4 * c12 * c12),
            (1.0 - omega * omega) / (4 * c02 * c12),
            (1.0 - omega * omega) / (4 * c02 * c12),
        ]
    ).astype(complex)
    return LossPovm(
        mu=mu,
        eta=eta,
        xi=xi,
        omega=omega,
        f_plus=f_plus,
        f_minus=f_minus,
        f_inconclusive=f_inconclusive,
    )


def announcement_probability(povm: LossPovm, sa, sb) -> dict:
    """Born-rule probabilities of the three announcements for one sign pair."""
    v = signal_vector(sa, sb, povm.mu)
    probs = {}
    for delta in OUTCOMES:
        p = float(np.real(v.conj() @ povm.element(delta) @ v))
        probs[delta] = min(max(p, 0.0), 1.0)
    return probs


def eve_conditional_state(povm: LossPovm, delta: str, sa, sb) -> np.ndarray:
    """Post-measurement state sqrt(F_delta)|v> / |sqrt(F_delta)|v>| at the node.

    Raises ImpossibleBranchError when the requested (announcement, signs)
    combination has zero Born probability, e.g. a '-' announcement for an
    equal-sign pair in the loss-only model.
    """
    v = signal_vector(sa, sb, povm.mu)
    f = povm.element(delta)
    born = float(np.real(v.conj() @ f @ v))
    if born <= BORN_PROBABILITY_FLOOR:
        raise ImpossibleBranchError(
            f"announcement {delta!r} has zero probability for signs "
            f"({sign_value(sa):+d}, {sign_value(sb):+d}) under pure loss"
        )
    theta = psd_sqrt(f) @ v
    return theta / np.linalg.norm(theta)


def eve_mixture(povm: LossPovm, delta: str) -> np.ndarray:
    """Eve's state conditioned on announcing delta, averaged over the key bit.

    For '+' the two contributing sign pairs are (+,+) and (-,-); for '-'
    they are (+,-) and (-,+).  The result is a trace-1 rank-<=2 mixture of
    two pure conditional states.
    """
    if delta not in ("+", "-"):
        raise ValidationError(
            f"key-bearing announcements are '+' and '-', got {delta!r}"
        )
    rho = np.zeros((4, 4), dtype=complex)
    for sa, sb in SIGN_PAIRS[+1 if delta == "+" else -1]:
        rho += 0.5 * outer(eve_conditional_state(povm, delta, sa, sb))
    return rho


def holevo(povm: LossPovm, delta: str) -> float:
    """Holevo information chi of the key bit given announcement delta, in bits.

    Under pure loss the states conditioned on (bit, announcement) are pure,
    so chi reduces to the entropy of the bit-averaged mixture.
    """
    return von_neumann_entropy(eve_mixture(povm, delta))


# --- closed forms -----------------------------------------------------------


def link_rate(mu: float, eta: float, delta_ec: float = 0.0) -> tuple:
    """One link's (sift, chi, fraction, bits_per_pulse), from the closed forms above."""
    check("intensity", mu, NON_NEGATIVE)
    check("transmittance", eta, TRANSMITTANCE)
    check("error-correction leakage", delta_ec, NON_NEGATIVE)
    se = math.sqrt(eta)
    sift = 1.0 - math.exp(-2.0 * se * mu)
    # mu * (1 - se) first: at eta == 1 it is 0 even where 4 * mu overflows.
    overlap = math.exp(-4.0 * (mu * (1.0 - se))) * math.exp(-2.0 * mu * se)
    chi = binary_entropy((1.0 - overlap) / 2.0)
    fraction = max(0.0, 1.0 - delta_ec - chi)
    return sift, chi, fraction, sift * fraction


def transmittance_from_distance(distance_km: float) -> float:
    """End-to-end transmittance of distance_km of fiber at 0.2 dB/km; refused where it is 0."""
    eta = 10.0 ** (-FIBER_DB_PER_KM * check("distance", distance_km, NON_NEGATIVE) / 10.0)
    if not eta:
        raise ValidationError(
            f"distance {distance_km!r} km is too long: its transmittance underflows to 0")
    return eta


def asymptotic_rate(links, delta_ec: float = 0.0) -> tuple:
    """(index, link_rate) of a chain's bottleneck, over its (mu, eta) links.

    The links share one key, so the chain runs at the fewest bits per pulse
    of any link; on a tie the first such link is reported.
    """
    rates = [link_rate(mu, eta, delta_ec) for mu, eta in links]
    if not rates:
        raise UsageError("a chain needs at least one link")
    index = min(range(len(rates)), key=lambda i: rates[i][3])
    return index, rates[index]


def symmetric_rate(mu: float, eta: float, delta_ec: float = 0.0) -> float:
    """Bits per pulse when both links share the same mu and eta."""
    return link_rate(mu, eta, delta_ec)[3]


def optimize_intensity(eta: float, mu_grid) -> tuple:
    """Grid argmax of the symmetric-link rate; ties go to the smaller mu."""
    grid = sorted(float(check("intensity grid", m, POSITIVE)) for m in mu_grid)
    if not grid:
        raise UsageError("intensity grid must not be empty")
    mu_star, rate_star = grid[0], symmetric_rate(grid[0], eta)
    for mu in grid[1:]:
        r = symmetric_rate(mu, eta)
        if r > rate_star:
            mu_star, rate_star = mu, r
    return mu_star, rate_star
