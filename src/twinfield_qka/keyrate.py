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

Closed forms (verified against the explicit operator pipeline by the test
suite, which treats the pipeline as the primary oracle):

    p(conclusive)      = 1 - exp(-2 sqrt(eta) mu)
    chi                = h((1 - exp(-4 mu (1-sqrt(eta))) exp(-2 mu sqrt(eta)))/2)
    rate per announce  = max(0, 1 - delta_ec - chi)
    bits per pulse     = p(conclusive) * rate

link_rate is the one place these are written.  A chain of links (a session,
a segment, a network) runs at the min of its links' bits per pulse; on a
tie the first link is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import basis_coeffs, sign_value, signal_vector
from .errors import ImpossibleBranchError, UsageError, ValidationError
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
        if delta == "+":
            return self.f_plus
        if delta == "-":
            return self.f_minus
        if delta == "?":
            return self.f_inconclusive
        raise ValidationError(f"announcement must be one of {OUTCOMES}, got {delta!r}")


def loss_povm(mu: float, eta: float) -> LossPovm:
    """Build the loss-only POVM {F+, F-, F?} for intensity mu, link transmittance eta.

    The elements are exact rationals in xi, omega and the subspace
    amplitudes; F+ + F- + F? = identity holds identically because
    xi^2 omega = exp(-2 mu).
    """
    if mu <= 0:
        raise ValidationError(f"intensity must be > 0, got {mu!r}")
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"transmittance must lie in (0, 1], got {eta!r}")
    c = basis_coeffs(mu)
    c02 = c.c0 * c.c0
    c12 = c.c1 * c.c1
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
    f_minus = (1.0 - xi * xi) * np.array(
        [
            [lo / (8 * c02 * c02), -lo / (8 * c02 * c12), 0, 0],
            [-lo / (8 * c02 * c12), lo / (8 * c12 * c12), 0, 0],
            [0, 0, hi / (8 * c02 * c12), -hi / (8 * c02 * c12)],
            [0, 0, -hi / (8 * c02 * c12), hi / (8 * c02 * c12)],
        ],
        dtype=complex,
    )
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
    if delta == "+":
        pairs = [(+1, +1), (-1, -1)]
    elif delta == "-":
        pairs = [(+1, -1), (-1, +1)]
    else:
        raise ValidationError(
            f"key-bearing announcements are '+' and '-', got {delta!r}"
        )
    rho = np.zeros((4, 4), dtype=complex)
    for sa, sb in pairs:
        rho += 0.5 * outer(eve_conditional_state(povm, delta, sa, sb))
    return rho


def holevo(povm: LossPovm, delta: str) -> float:
    """Holevo information chi of the key bit given announcement delta, in bits.

    Under pure loss the states conditioned on (bit, announcement) are pure,
    so chi reduces to the entropy of the bit-averaged mixture.
    """
    return von_neumann_entropy(eve_mixture(povm, delta))


def devetak_winter_rate(povm: LossPovm, delta: str, delta_ec: float = 0.0) -> float:
    """Secret bits per conclusive announcement, max(0, 1 - delta_ec - chi)."""
    if not 0.0 <= delta_ec < math.inf:  # also false for NaN
        raise ValidationError(f"error-correction leakage must be finite and >= 0, got {delta_ec!r}")
    return max(0.0, 1.0 - delta_ec - holevo(povm, delta))


# --- closed forms -----------------------------------------------------------


def link_rate(mu: float, eta: float, delta_ec: float = 0.0) -> tuple:
    """One link's (sift, chi, fraction, bits_per_pulse), from the closed forms above."""
    if not 0.0 <= mu < math.inf:  # also false for NaN
        raise ValidationError(f"intensity must be finite and >= 0, got {mu!r}")
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"transmittance must lie in (0, 1], got {eta!r}")
    if not 0.0 <= delta_ec < math.inf:
        raise ValidationError(f"error-correction leakage must be finite and >= 0, got {delta_ec!r}")
    se = math.sqrt(eta)
    sift = 1.0 - math.exp(-2.0 * se * mu)
    overlap = math.exp(-4.0 * mu * (1.0 - se)) * math.exp(-2.0 * mu * se)
    chi = binary_entropy((1.0 - overlap) / 2.0)
    fraction = max(0.0, 1.0 - delta_ec - chi)
    return sift, chi, fraction, sift * fraction


def sift_probability(mu: float, eta: float) -> float:
    """Probability of a conclusive ('+' or '-') announcement per pulse."""
    return link_rate(mu, eta)[0]


def holevo_closed(mu: float, eta: float) -> float:
    """Closed form of the conclusive-round Holevo information, in bits."""
    return link_rate(mu, eta)[1]


def dw_rate_closed(mu: float, eta: float, delta_ec: float = 0.0) -> float:
    """Closed-form secret bits per conclusive announcement."""
    return link_rate(mu, eta, delta_ec)[2]


def transmittance_from_distance(distance_km: float) -> float:
    """End-to-end transmittance of distance_km of standard fiber at 0.2 dB/km."""
    if not 0.0 <= distance_km < math.inf:  # also false for NaN
        raise ValidationError(f"distance must be finite and >= 0, got {distance_km!r}")
    return 10.0 ** (-FIBER_DB_PER_KM * distance_km / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Intensities and end-to-end transmittances for the two links."""

    mu1: float
    mu2: float
    eta1: float
    eta2: float

    def __post_init__(self):
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not 0.0 <= mu < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {mu!r}")
        for name, eta in (("eta1", self.eta1), ("eta2", self.eta2)):
            if not 0.0 < eta <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1], got {eta!r}")

    @classmethod
    def from_link_distances(cls, mu1, mu2, link1_km, link2_km) -> "ChannelParams":
        """Derive transmittances from party-to-party link lengths in km."""
        return cls(
            mu1=mu1,
            mu2=mu2,
            eta1=transmittance_from_distance(link1_km),
            eta2=transmittance_from_distance(link2_km),
        )


@dataclass(frozen=True)
class KeyRateResult:
    """Per-link sift/Holevo/rate figures plus the bottlenecked bits per pulse."""

    rate_ab: float
    rate_bc: float
    sift_ab: float
    sift_bc: float
    holevo_ab: float
    holevo_bc: float
    r_infinity: float
    delta_ec: float


def asymptotic_rate(params: ChannelParams, delta_ec: float = 0.0) -> KeyRateResult:
    """Asymptotic secret bits per pulse for a three-party session.

    Each link contributes link_rate's bits per pulse; the shared group key
    is capped by the weaker link, hence the min.
    """
    sift_ab, chi_ab, rate_ab, bits_ab = link_rate(params.mu1, params.eta1, delta_ec)
    sift_bc, chi_bc, rate_bc, bits_bc = link_rate(params.mu2, params.eta2, delta_ec)
    return KeyRateResult(
        rate_ab=rate_ab,
        rate_bc=rate_bc,
        sift_ab=sift_ab,
        sift_bc=sift_bc,
        holevo_ab=chi_ab,
        holevo_bc=chi_bc,
        r_infinity=min(bits_ab, bits_bc),
        delta_ec=delta_ec,
    )


def symmetric_rate(mu: float, eta: float, delta_ec: float = 0.0) -> float:
    """Bits per pulse when both links share the same mu and eta."""
    return link_rate(mu, eta, delta_ec)[3]


def optimize_intensity(eta: float, mu_grid) -> tuple:
    """Grid argmax of the symmetric-link rate; ties go to the smaller mu."""
    grid = sorted(float(m) for m in mu_grid)
    if not grid:
        raise UsageError("intensity grid must not be empty")
    if grid[0] <= 0:
        raise ValidationError(f"intensity grid must be positive, got {grid[0]!r}")
    mu_star, rate_star = grid[0], symmetric_rate(grid[0], eta)
    for mu in grid[1:]:
        r = symmetric_rate(mu, eta)
        if r > rate_star:
            mu_star, rate_star = mu, r
    return mu_star, rate_star
