"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is pinned at its stated tolerance and runtime budget.
Criteria 1-5 and 7 run the `selfcheck` battery's checks, which hold their
grids and tolerances, so `twinfield-qka selftest` runs them too.
"""

import time

import numpy as np

from oracles import FIG_SEVEN_EDGES, edge_entries, random_tree_edges
from twinfield_qka import selfcheck
from twinfield_qka.keyrate import symmetric_rate
from twinfield_qka.network import (
    PartyGraph,
    derive_global_key,
    plan_network,
    plan_rates,
    reconcile_network,
    segment_tree,
)
from twinfield_qka.simulation import SessionConfig, run_session


def _report(number, description, problems, elapsed, limit):
    status = "PASS" if not problems else "FAIL"
    print(f"{status} criterion {number}: {description} [{elapsed:.2f}s < {limit:.0f}s]")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _run_check(number, description, check, limit):
    """Run one selfcheck check as criterion `number`, within `limit` seconds."""
    t0 = time.monotonic()
    _, passed, detail = check()
    elapsed = time.monotonic() - t0
    problems = [] if passed else [detail]
    if elapsed >= limit:
        problems.append(f"runtime {elapsed:.2f}s >= {limit}s")
    _report(number, description, problems, elapsed, limit)


def test_criterion_1_closed_form_discrimination():
    _run_check(1, "closed-form discrimination values and ordering",
               selfcheck.check_discrimination_identities, 1)


def test_criterion_2_helstrom_oracle():
    _run_check(2, "eigenvalue Helstrom oracle equals exp(-4 mu)/2; gap reported",
               selfcheck.check_helstrom_value, 1)


def test_criterion_3_povm_completeness():
    _run_check(3, "POVM completeness and positivity on 20x20 grid",
               selfcheck.check_povm_completeness, 1)


def test_criterion_4_announcement_statistics():
    _run_check(4, "announcement statistics match closed forms",
               selfcheck.check_announcement_statistics, 1)


def test_criterion_5_entropy_oracle_equivalence():
    _run_check(5, "conditional-state entropy pipeline equals closed form",
               selfcheck.check_entropy_closed_form, 5)


def test_criterion_6_sqrt_eta_scaling():
    t0 = time.monotonic()
    problems = []
    etas = np.logspace(-4, -2, 30)
    rates = [symmetric_rate(0.01, eta) for eta in etas]
    slope = float(np.polyfit(np.log10(etas), np.log10(rates), 1)[0])
    if abs(slope - 0.5) > 0.05:
        problems.append(f"log-log slope {slope:.4f} outside 0.5 +- 0.05")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(6, f"rate scales as sqrt(eta) at small mu (slope {slope:.3f})", problems, elapsed, 1)


def test_criterion_7_monte_carlo_consistency():
    _run_check(7, "conclusive fraction within 5 sigma over 20 seeds, qber 0",
               selfcheck.check_noiseless_session, 10)


def test_criterion_8_long_haul_key_rate():
    t0 = time.monotonic()
    problems = []
    skr = {}
    for mu in (0.2, 0.5):
        cfg = SessionConfig(n_pulses=100_000_000, mu=mu, arm_lengths=(250.0 / 4,) * 4, seed=0)
        skr[mu] = run_session(cfg).skr_per_pulse
    if skr[0.2] < 1e-6:
        problems.append(f"skr at 250 km is {skr[0.2]:.3e} < 1e-6 per pulse")
    if not skr[0.2] > skr[0.5]:
        problems.append(f"mu=0.2 ({skr[0.2]:.3e}) does not beat mu=0.5 ({skr[0.5]:.3e})")
    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.2f}s >= 300s")
    _report(
        8,
        f"250 km secret key rate {skr[0.2]:.2e}/pulse, mu ordering holds",
        problems, elapsed, 300,
    )


def test_criterion_9_protocol_round_trip():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(1234)

    # Loss-only sessions: everyone must end up with identical key material.
    for i in range(70):
        cfg = SessionConfig(
            n_pulses=int(rng.integers(2_000, 30_000)),
            mu=float(rng.uniform(0.05, 0.5)),
            arm_lengths=(float(rng.uniform(0.0, 120.0)) / 4,) * 4,
            y0=0.0, dark_count_prob=0.0,
            seed=int(rng.integers(0, 2**32)),
        )
        res = run_session(cfg)
        alice, bob_ab = res.sifted_ab
        bob_bc, charlie = res.sifted_bc
        if not (np.array_equal(alice, bob_ab) and np.array_equal(bob_bc, charlie)):
            problems.append(f"session {i}: sifted keys diverge without noise")
            continue
        n_bits = min(len(bob_ab), len(bob_bc))
        k_ab, k_bc = bob_ab[:n_bits], bob_bc[:n_bits]
        ann = k_ab ^ k_bc
        if not np.array_equal(ann ^ alice[:n_bits], k_bc):
            problems.append(f"session {i}: Alice cannot recover the far key")
        if not np.array_equal(ann ^ charlie[:n_bits], k_ab):
            problems.append(f"session {i}: Charlie cannot recover the far key")

    # Sessions with injected background noise: every wrong bit must be
    # visible in qber and propagate transparently through the XOR bridge.
    for i in range(40):
        cfg = SessionConfig(
            n_pulses=int(rng.integers(20_000, 60_000)),
            mu=0.2,
            arm_lengths=(float(rng.uniform(80.0, 160.0)) / 4,) * 4,
            y0=1e-3, dark_count_prob=1e-3,
            seed=int(rng.integers(0, 2**32)),
        )
        res = run_session(cfg)
        alice, bob_ab = res.sifted_ab
        bob_bc, charlie = res.sifted_bc
        if res.qber_ab != np.mean(alice != bob_ab):
            problems.append(f"noisy session {i}: reported qber_ab hides divergence")
        if res.qber_bc != np.mean(bob_bc != charlie):
            problems.append(f"noisy session {i}: reported qber_bc hides divergence")
        n_bits = min(len(bob_ab), len(bob_bc))
        k_ab_bob, k_bc_bob = bob_ab[:n_bits], bob_bc[:n_bits]
        ann = k_ab_bob ^ k_bc_bob
        derived_ab = ann ^ charlie[:n_bits]
        # XOR transparency: Charlie's reconstruction differs from Bob's key
        # exactly where the BC sifted strings differ; nothing is silent.
        if not np.array_equal(derived_ab ^ k_ab_bob, k_bc_bob ^ charlie[:n_bits]):
            problems.append(f"noisy session {i}: silent divergence through the bridge")

    # Segment chaining: random topologies, every party derives the group key.
    for i in range(100):
        n = int(rng.integers(2, 10))
        edges = random_tree_edges(n, rng)
        plan = plan_rates(segment_tree(edges), mu=0.2)
        keys = [rng.integers(0, 2, 48, dtype=np.uint8) for _ in plan.segments]
        global_key, announcements = reconcile_network(keys, plan)
        recovered = derive_global_key(announcements, keys)
        for j in np.flatnonzero((recovered != global_key).any(axis=1)):
            problems.append(f"topology {i}: segment {j} cannot derive the group key")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.2f}s >= 30s")
    _report(9, "round trips over 110 sessions and 100 topologies", problems, elapsed, 30)


def test_criterion_10_network_planning():
    t0 = time.monotonic()
    problems = []

    graph = PartyGraph.build([1, 2, 3, 4, 5, 6, 7], edge_entries(FIG_SEVEN_EDGES))
    plan = plan_network(graph, mu=0.2)
    members = sorted(tuple(sorted(s.members)) for s in plan.segments)
    if members != [(1, 2, 3), (3, 4, 5), (5, 6, 7)]:
        problems.append(f"unexpected segments {members}")
    if sorted(plan.intra_announcers) != [3, 4, 5]:
        problems.append(f"announcing centers {sorted(plan.intra_announcers)} != [3, 4, 5]")

    rng = np.random.default_rng(77)
    for n in (3, 5, 7, 9):
        for _ in range(25):
            edges = random_tree_edges(n, rng)
            segments = segment_tree(edges)
            if 2 * len(segments) + 1 != n:
                problems.append(f"2n+1 != N on a random tree with N={n}")

    base = [(1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0), (4, 5, 80.0), (5, 6, 10.0), (6, 7, 10.0)]
    stretched = [(1, 2, 19.0)] + base[1:]
    rate0 = plan_rates(segment_tree(base), mu=0.2).network_rate
    rate1 = plan_rates(segment_tree(stretched), mu=0.2).network_rate
    if rate0 != rate1:
        problems.append("stretching a non-bottleneck edge changed the network rate")
    bottleneck = plan_rates(segment_tree(base), mu=0.2).bottleneck_distance
    if bottleneck != 80.0:
        problems.append(f"bottleneck distance {bottleneck} != 80.0")

    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(10, "segment structure, 2n+1 counts, bottleneck behavior", problems, elapsed, 5)
