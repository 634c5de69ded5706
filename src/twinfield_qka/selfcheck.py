"""Fast invariant suite behind the `selftest` CLI subcommand.

Each check returns (name, passed, detail).  The full battery takes a few
seconds; it is a smoke test, not a replacement for the pytest suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import discrimination, keyrate, network, simulation
from .coherent import correlated_mixture


def check_discrimination_identities():
    mus = np.linspace(1e-3, 2.0, 200)
    worst = 0.0
    for mu in mus:
        worst = max(
            worst,
            abs(discrimination.qmin_pair_closed(mu) - discrimination.qmin_pair_closed_hyperbolic(mu)),
            abs(discrimination.qmin_triple_closed(mu) - discrimination.qmin_triple_closed_expanded(mu)),
        )
    ok = worst < 1e-12
    return "closed-form identities", ok, f"max |form1 - form2| = {worst:.2e}"


def check_helstrom_value():
    worst = 0.0
    for mu in np.linspace(0.01, 2.0, 80):
        q = discrimination.helstrom_error(
            correlated_mixture(+1, mu), correlated_mixture(-1, mu)
        )
        worst = max(worst, abs(q - 0.5 * math.exp(-4.0 * mu)))
    ok = worst < 1e-10
    return "trace-norm bound equals exp(-4 mu)/2", ok, f"max deviation = {worst:.2e}"


def check_povm_completeness():
    worst_sum = 0.0
    worst_eig = 0.0
    for mu in np.linspace(0.01, 1.0, 8):
        for eta in np.logspace(-5, 0, 8):
            povm = keyrate.loss_povm(mu, eta)
            total = povm.f_plus + povm.f_minus + povm.f_inconclusive
            worst_sum = max(worst_sum, np.abs(total - np.eye(4)).max())
            for f in (povm.f_plus, povm.f_minus, povm.f_inconclusive):
                worst_eig = min(worst_eig, np.linalg.eigvalsh(f).min())
    ok = worst_sum < 1e-10 and worst_eig > -1e-10
    return "POVM completeness and positivity", ok, (
        f"max |sum - I| = {worst_sum:.2e}, min eigenvalue = {worst_eig:.2e}"
    )


def check_announcement_statistics():
    worst = 0.0
    for mu in (0.05, 0.2, 0.6):
        for eta in (1.0, 1e-2, 1e-4):
            povm = keyrate.loss_povm(mu, eta)
            p_inc = math.exp(-2.0 * math.sqrt(eta) * mu)
            for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                probs = keyrate.announcement_probability(povm, sa, sb)
                expect_plus = (1.0 - p_inc) if sa == sb else 0.0
                worst = max(
                    worst,
                    abs(probs["+"] - expect_plus),
                    abs(probs["-"] - ((1.0 - p_inc) - expect_plus)),
                    abs(probs["?"] - p_inc),
                )
    ok = worst < 1e-10
    return "announcement statistics", ok, f"max deviation = {worst:.2e}"


def check_entropy_closed_form():
    worst = 0.0
    for mu in (0.05, 0.2, 0.8):
        for eta in (1.0, 0.1, 1e-3):
            povm = keyrate.loss_povm(mu, eta)
            direct = keyrate.holevo(povm, "+")
            worst = max(worst, abs(direct - keyrate.link_rate(mu, eta)[1]))
    ok = worst < 1e-9
    return "operator pipeline vs closed-form Holevo", ok, f"max deviation = {worst:.2e}"


def check_noiseless_session():
    config = simulation.SessionConfig(
        n_pulses=20000, mu=0.2, y0=0.0, dark_count_prob=0.0, seed=7,
    )
    result = simulation.run_session(config)
    p = keyrate.link_rate(0.2, 1.0)[0]
    sigma = math.sqrt(p * (1.0 - p) / config.n_pulses)
    frac = result.conclusive_counts["AB"] / config.n_pulses
    ok = result.qber_ab == 0.0 and result.qber_bc == 0.0 and abs(frac - p) < 5 * sigma
    return "noiseless Monte Carlo session", ok, (
        f"qber = ({result.qber_ab}, {result.qber_bc}), "
        f"conclusive fraction {frac:.4f} vs {p:.4f}"
    )


def check_network_roundtrip():
    graph = network.PartyGraph.build(
        parties=[1, 2, 3, 4, 5, 6, 7],
        edges=[(1, 3, 10.0), (2, 3, 12.0), (3, 4, 11.0),
               (4, 5, 9.0), (5, 6, 8.0), (5, 7, 10.0)],
    )
    plan = network.plan_network(graph, mu=0.2)
    rng = np.random.default_rng(11)
    keys = [rng.integers(0, 2, 64, dtype=np.uint8) for _ in plan.segments]
    global_key, announcements = network.reconcile_network(keys, plan)
    ok = len(plan.segments) == 3
    for i, key in enumerate(keys):
        derived = network.derive_global_key(announcements, i, key)
        ok = ok and np.array_equal(derived, global_key)
    return "7-party plan and key reconciliation", ok, (
        f"{len(plan.segments)} segments, centers {plan.intra_announcers}"
    )


ALL_CHECKS = (
    check_discrimination_identities,
    check_helstrom_value,
    check_povm_completeness,
    check_announcement_statistics,
    check_entropy_closed_form,
    check_noiseless_session,
    check_network_roundtrip,
)


def run_all():
    """Run every check; returns list of (name, passed, detail)."""
    return [check() for check in ALL_CHECKS]
