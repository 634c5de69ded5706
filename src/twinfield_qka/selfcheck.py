"""The analysis invariants, each checked once, behind the `selftest` CLI subcommand.

Each check returns (name, passed, detail), passed a Python bool; the detail
lists the problems found, or the measures when there are none.  The first six
are acceptance criteria 1-5 and 7 at their grids, tolerances and seeds:
tests/test_acceptance.py runs them, and so does `twinfield-qka selftest`.
"""

from __future__ import annotations

import math

import numpy as np

from . import discrimination, keyrate, network, simulation
from .coherent import correlated_mixture


def _bounded(label, deviations, tol, problems):
    """'label = the largest deviation', noting a problem when it exceeds tol or is NaN."""
    worst = np.max(deviations)
    text = f"{label} = {worst:.2e}"
    if not worst <= tol:
        problems.append(f"{text} > {tol:g}")
    return text


def _verdict(name, measures, problems):
    return name, not problems, "; ".join(problems) or measures


def _working_points():
    """The 20 x 20 (mu, eta) grid of criteria 3-5."""
    for mu in np.linspace(0.01, 1.0, 20):
        for eta in np.logspace(-5, 0, 20):
            yield mu, eta


def check_discrimination_identities():
    """Criterion 1: the closed forms equal their rewrites, are exact at 0, and q_triple > q_pair."""
    pair = discrimination.qmin_pair_closed

    def triple(mu):  # the two-node form as `discriminate` reports it
        return discrimination.compose_error(pair(mu), pair(mu))

    problems = [f"{form}(0) = {value!r}, want exactly {want}" for form, value, want
                in (("q_pair", pair(0.0), 0.5), ("q_triple", triple(0.0), 0.75)) if value != want]
    mus = np.linspace(0.002, 2.0, 1000)
    hyperbolic = 0.5 * (1.0 - np.exp(-2.0 * mus) * np.cosh(mus) * np.sinh(mus))
    expanded = (-np.exp(-8.0 * mus) + 10.0 * np.exp(-4.0 * mus) + 39.0) / 64.0
    deviations = [abs(form(mu) - value) for form, values in ((pair, hyperbolic), (triple, expanded))
                  for mu, value in zip(mus, values)]
    measures = _bounded("max |form1 - form2|", deviations, 1e-12, problems)
    for mu in np.linspace(0.001, 1.0, 1000):
        if not triple(mu) > pair(mu):
            problems.append(f"q_triple <= q_pair at mu = {mu:.4g}")
            break
    return _verdict("closed-form identities", measures, problems)


def check_helstrom_value():
    """Criterion 2: the eigenvalue route gives exp(-4 mu)/2; `discriminate` reports both routes."""
    def helstrom(mu):
        return discrimination.helstrom_error(correlated_mixture(+1, mu),
                                             correlated_mixture(-1, mu))

    problems = []
    deviations = [abs(helstrom(mu) - 0.5 * math.exp(-4.0 * mu))
                  for mu in np.linspace(0.01, 2.0, 200)]
    measures = _bounded("max |q - exp(-4 mu)/2|", deviations, 1e-10, problems)
    result = discrimination.discriminate(0.2)
    direct = (helstrom(0.2), discrimination.qmin_pair_closed(0.2))
    if (result.q_helstrom, result.q_closed_pair) != direct:
        problems.append(f"{result} does not hold the two direct values")
    gap = abs(result.q_helstrom - result.q_closed_pair)
    if not gap >= 0.1:
        problems.append(f"the two routes differ by {gap:.3g} < 0.1 at mu = 0.2")
    measures += f", gap at mu = 0.2: {gap:.3f}"
    return _verdict("trace-norm bound equals exp(-4 mu)/2", measures, problems)


def check_povm_completeness():
    """Criterion 3: the node's three POVM elements sum to the identity and are PSD."""
    sums, lowest, problems = [], [], []
    for mu, eta in _working_points():
        povm = keyrate.loss_povm(mu, eta)
        elements = np.array([povm.f_plus, povm.f_minus, povm.f_inconclusive])
        sums.append(np.abs(elements.sum(axis=0) - np.eye(4)).max())
        lowest.append(np.linalg.eigvalsh(elements).min())
    low = np.min(lowest)
    measures = _bounded("max |sum - I|", sums, 1e-10, problems) + f", min eigenvalue = {low:.2e}"
    if not low >= -1e-10:
        problems.append(f"min eigenvalue = {low:.2e} < -1e-10")
    return _verdict("POVM completeness and positivity", measures, problems)


def check_announcement_statistics():
    """Criterion 4: for every sign pair, the announcement probabilities match their closed forms.

    p(conclusive) = 1 - p(?) = 1 - exp(-2 sqrt(eta) mu), and the silent outcome,
    '-' for equal signs and '+' for opposite ones, has probability 0.
    """
    labels = ("max |p(conclusive) - closed form|", "max p(silent)", "max |p(?) - closed form|",
              "max |sum - 1|")
    rows = []
    for mu, eta in _working_points():
        povm = keyrate.loss_povm(mu, eta)
        p_inc = math.exp(-2.0 * math.sqrt(eta) * mu)
        for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            probs = keyrate.announcement_probability(povm, sa, sb)
            hit, miss = ("+", "-") if sa == sb else ("-", "+")
            rows.append((probs[hit] - (1.0 - p_inc), probs[miss], probs["?"] - p_inc,
                         sum(probs.values()) - 1.0))
    problems = []
    measures = ", ".join(_bounded(label, np.abs(column), 1e-10, problems)
                         for label, column in zip(labels, np.transpose(rows)))
    return _verdict("announcement statistics", measures, problems)


def check_entropy_closed_form():
    """Criterion 5: the operator route's Holevo value is chi; the fraction is max(0, 1 - chi)."""
    deviations, wrong_fraction, problems = [], [], []
    for mu, eta in _working_points():
        _, chi, fraction, _ = keyrate.link_rate(mu, eta)
        deviations.append(abs(keyrate.holevo(keyrate.loss_povm(mu, eta), "+") - chi))
        if fraction != max(0.0, 1.0 - chi):
            wrong_fraction.append(f"mu = {mu:.4g}, eta = {eta:.3g}")
    measures = _bounded("max |holevo - chi|", deviations, 1e-9, problems)
    if wrong_fraction:
        problems.append(f"fraction != max(0, 1 - chi) at {len(wrong_fraction)} points, "
                        f"first {wrong_fraction[0]}")
    return _verdict("operator pipeline vs closed-form Holevo", measures, problems)


def check_noiseless_session():
    """Criterion 7: in 20 noise-free sessions of 10^5 pulses at mu = 0.2, each conclusive
    fraction lies within 5 sigma of 1 - exp(-0.4), and the QBER is 0."""
    n, p = 100_000, 1.0 - math.exp(-0.4)
    sigma = math.sqrt(p * (1.0 - p) / n)
    offsets, noisy, problems = [], [], []
    for seed in range(20):
        result = simulation.run_session(simulation.SessionConfig(
            n_pulses=n, mu=0.2, y0=0.0, dark_count_prob=0.0, seed=seed))
        offsets.append(abs(result.conclusive_counts["AB"] / n - p) / sigma)
        if result.qber_ab != 0.0 or result.qber_bc != 0.0:
            noisy.append(seed)
    far = [seed for seed, k in enumerate(offsets) if not k < 5.0]  # NaN is far too
    if far:
        problems.append(f"conclusive fraction 5 sigma or more off {p:.5f} at seeds {far}")
    if noisy:
        problems.append(f"nonzero qber at seeds {noisy}")
    measures = f"20 seeds, conclusive fraction at most {np.max(offsets):.2f} sigma off {p:.5f}"
    return _verdict("noiseless Monte Carlo session", measures, problems)


def check_network_roundtrip():
    graph = network.PartyGraph.build(
        parties=[1, 2, 3, 4, 5, 6, 7],
        edges=[{"a": a, "b": b, "km": km} for a, b, km in [
            (1, 3, 10.0), (2, 3, 12.0), (3, 4, 11.0), (4, 5, 9.0), (5, 6, 8.0), (5, 7, 10.0)]],
    )
    plan = network.plan_network(graph, mu=0.2)
    rng = np.random.default_rng(11)
    keys = [rng.integers(0, 2, 64, dtype=np.uint8) for _ in plan.segments]
    global_key, announcements = network.reconcile_network(keys, plan)
    derived = network.derive_global_key(announcements, keys)
    ok = len(plan.segments) == 3 and bool((derived == global_key).all())
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
