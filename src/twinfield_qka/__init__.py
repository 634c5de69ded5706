"""Multi-party twin-field quantum key agreement: analysis, simulation, planning.

Three parties (and, via overlapping segments, any number of parties) agree
on one secret key by sending phase-encoded weak coherent pulses to untrusted
middle nodes that only announce interference outcomes.  This package
provides:

* exact 4x4 operator tools for the two-mode signal subspace (`linalg`),
* the coherent-state encoding and node-level mixtures (`coherent`),
* minimum-error discrimination bounds for an eavesdropper (`discrimination`),
* loss-only POVM, Holevo bound and asymptotic key rates (`keyrate`),
* a seeded Monte Carlo simulation of the full protocol (`simulation`),
* N-party network planning and key reconciliation (`network`),
* a deterministic CLI mirroring all of the above (`cli`).
"""

from .coherent import CoherentBasisCoeffs, basis_coeffs, correlated_mixture, signal_vector
from .discrimination import (
    DiscriminationResult,
    compose_error,
    discriminate,
    helstrom_error,
    qmin_pair_closed,
    qmin_triple_closed,
)
from .errors import ImpossibleBranchError, PlanningError, UsageError, ValidationError
from .keyrate import (
    ChannelParams,
    KeyRateResult,
    LossPovm,
    announcement_probability,
    asymptotic_rate,
    devetak_winter_rate,
    dw_rate_closed,
    eve_conditional_state,
    eve_mixture,
    holevo,
    holevo_closed,
    link_rate,
    loss_povm,
    optimize_intensity,
    sift_probability,
    symmetric_rate,
    transmittance_from_distance,
)
from .linalg import (
    binary_entropy,
    eigenvalues_hermitian,
    outer,
    trace_norm,
    von_neumann_entropy,
)
from .network import (
    NetworkPlan,
    PartyGraph,
    Segment,
    derive_global_key,
    minimum_network,
    plan_network,
    plan_rates,
    reconcile_network,
    segment_tree,
)
from .simulation import (
    SessionConfig,
    SessionResult,
    reconcile_pair,
    run_session,
)

__version__ = "0.1.0"
