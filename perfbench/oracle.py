"""Independent computations the benchmark holds the program's outputs against.

Nothing here imports the program.  Each formula is written out again from
the protocol's model (and, where cancellation matters, in a numerically
different but equivalent form), so that a wrong result in the program is
not echoed back by its own check.  Every check raises Mismatch on failure.
"""

from __future__ import annotations

import math

import numpy as np

FIBER_DB_PER_KM = 0.2

#: Closed-form rows must agree to this (absolute, or relative above 1).
CLOSED_FORM_TOL = 1e-12
#: Sampled rows must agree with the explicit operator pipeline to this.
OPERATOR_TOL = 1e-9
#: Monte Carlo counts and error rates must lie within this many sigma.
SIGMAS = 5.0


class Mismatch(Exception):
    """An output of the program disagrees with an independent computation."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def close(got, want, tol=CLOSED_FORM_TOL):
    return math.isclose(got, want, rel_tol=tol, abs_tol=tol)


def transmittance(km):
    return 10.0 ** (-FIBER_DB_PER_KM * km / 10.0)


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def link(mu, eta, delta_ec):
    """(sift, chi, secret bits per pulse) of one link at source intensity mu.

    sift = 1 - exp(-2 sqrt(eta) mu); chi = h((1 - exp(-4 mu + 2 mu sqrt(eta))) / 2).
    """
    s = math.sqrt(eta)
    sift = -math.expm1(-2.0 * s * mu)
    chi = binary_entropy(-math.expm1(-4.0 * mu + 2.0 * mu * s) / 2.0)
    return sift, chi, sift * max(0.0, 1.0 - delta_ec - chi)


# --- keyrate -----------------------------------------------------------------


def check_keyrate_row(row, mu1, mu2, link1_km, link2_km, delta_ec):
    """One CSV row of `keyrate`: eta/sift/chi of the bottleneck link and the rate.

    The program reports the second link only when it is strictly worse.
    Returns (mu, eta) of the reported link for the operator-pipeline check.
    """
    eta1, eta2 = transmittance(link1_km), transmittance(link2_km)
    sift1, chi1, r1 = link(mu1, eta1, delta_ec)
    sift2, chi2, r2 = link(mu2, eta2, delta_ec)
    if r2 < r1:
        mu, eta, sift, chi = mu2, eta2, sift2, chi2
    else:
        mu, eta, sift, chi = mu1, eta1, sift1, chi1
    for name, want in (("eta", eta), ("sift", sift), ("chi", chi), ("rate", min(r1, r2))):
        expect(close(row[name], want), f"keyrate {name} {row[name]!r} != closed form {want!r}")
    return mu, eta


def check_operator_pipeline(row, mu, eta, keyrate):
    """Sampled row against the explicit POVM: chi = Holevo('+'), sift = 1 - P('?')."""
    povm = keyrate.loss_povm(mu, eta)
    chi = keyrate.holevo(povm, "+")
    sift = 1.0 - keyrate.announcement_probability(povm, +1, +1)["?"]
    expect(abs(row["chi"] - chi) <= OPERATOR_TOL, f"chi {row['chi']!r} != operator {chi!r}")
    expect(abs(row["sift"] - sift) <= OPERATOR_TOL, f"sift {row['sift']!r} != operator {sift!r}")


def check_distance_sweep(rows):
    """The rate never rises with distance; far out the sift scales as sqrt(eta)."""
    for before, after in zip(rows, rows[1:]):
        expect(
            after["rate"] <= before["rate"] * (1.0 + CLOSED_FORM_TOL),
            f"rate rises from {before['rate']!r} to {after['rate']!r} with distance",
        )
    a, b = rows[-2], rows[-1]
    slope = math.log(b["sift"] / a["sift"]) / math.log(b["eta"] / a["eta"])
    expect(abs(slope - 0.5) <= 0.05, f"long-distance log-log sift slope {slope:.4f} not 0.5")


def check_optimum(result, eta, grid):
    """optimize_intensity against a brute-force argmax of the symmetric rate."""
    mu_star, rate_star = result
    rates = [link(float(mu), eta, 0.0)[2] for mu in grid]
    best = max(rates)
    expect(float(mu_star) in [float(m) for m in grid], f"mu* {mu_star!r} not on the grid")
    expect(close(rate_star, link(mu_star, eta, 0.0)[2]), f"rate* {rate_star!r} wrong for mu*")
    expect(rate_star >= best - CLOSED_FORM_TOL, f"rate* {rate_star!r} below the grid max {best!r}")


# --- simulation --------------------------------------------------------------


def check_session(result, n_pulses, mu, total_km, y0, dark):
    """Per-node conclusive and error counts against the detector model.

    With equal arms each node sees arrival intensity m = mu t(L/4) from both
    sides; the constructive port clicks with p_sig = 1 - (1 - p_bg) e^{-2m},
    the dark one with p_bg, and exactly one click is conclusive.  Returns the
    model's error rate and {node: (errors, conclusive)} for pooling.
    """
    p_bg = 1.0 - (1.0 - y0) * (1.0 - dark)
    m = mu * transmittance(total_km / 4.0)
    p_sig = 1.0 - (1.0 - p_bg) * math.exp(-2.0 * m)
    p_conc = p_sig * (1.0 - p_bg) + p_bg * (1.0 - p_sig)
    q_want = p_bg * (1.0 - p_sig) / p_conc
    lengths = result["key_lengths"]
    tallies = {}
    for node, key in (("AB", "ab"), ("BC", "bc")):
        count = result["conclusive_counts"][node]
        sigma = math.sqrt(n_pulses * p_conc * (1.0 - p_conc))
        expect(
            abs(count - n_pulses * p_conc) <= SIGMAS * sigma,
            f"{node} conclusive {count} vs {n_pulses * p_conc:.1f} +- {sigma:.1f}",
        )
        expect(lengths[key] == count, f"{node} key length {lengths[key]} != count {count}")
        errors = round(result[f"qber_{key}"] * count)
        check_errors(node, errors, count, q_want)
        tallies[node] = (errors, count)
    return q_want, tallies


#: One-sided tail of SIGMAS standard deviations of a normal distribution.
TAIL = 0.5 * math.erfc(SIGMAS / math.sqrt(2.0))


def binomial_tails(k, n, p):
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p), summed term by term."""

    def pmf(i):
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * math.log(p) + (n - i) * math.log1p(-p))

    lower = sum(pmf(i) for i in range(k + 1))
    upper, i = 0.0, k
    while i <= n:
        term = pmf(i)
        upper += term
        if i > n * p and term < upper * 1e-17:
            break
        i += 1
    return lower, upper


def check_errors(label, errors, count, q_want):
    """Error count against Binomial(count, q_want), at the false-alarm rate of SIGMAS.

    A session expects only a few errors (about 3 in 2^20 pulses at both
    distances), where a normal approximation of the count flags correct
    output far more often than its nominal rate; the exact tails do not.
    """
    lower, upper = binomial_tails(errors, count, q_want)
    expect(
        min(lower, upper) >= TAIL,
        f"{label} {errors} errors in {count} conclusive vs rate {q_want!r} "
        f"(P(<=) {lower:.3g}, P(>=) {upper:.3g})",
    )


# --- network -----------------------------------------------------------------


def mst_weight(weights):
    """Prim's algorithm on a dense matrix (inf where there is no edge)."""
    n = len(weights)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    total = 0.0
    for _ in range(n - 1):
        cand = np.where(in_tree, np.inf, best)
        j = int(np.argmin(cand))
        expect(math.isfinite(cand[j]), "network is disconnected")
        total += float(cand[j])
        in_tree[j] = True
        best = np.minimum(best, weights[j])
    return total


def check_plan(doc, ids, weights, mu, delta_ec):
    """A `plan` document against the properties every valid plan must have."""
    n = len(ids)
    tree = {}
    for a, b, km in doc["tree_edges"]:
        tree[frozenset((a, b))] = km
    expect(len(tree) == n - 1, f"{len(tree)} tree edges for {n} parties")
    weight = sum(tree.values())
    want = mst_weight(weights)
    expect(math.isclose(weight, want, rel_tol=1e-9), f"tree weight {weight!r} != MST {want!r}")

    segments = doc["segments"]
    members = [list(s["members"]) for s in segments]
    triples = sum(1 for m in members if len(m) == 3)
    pairs = sum(1 for m in members if len(m) == 2)
    want_triples, want_pairs = ((n - 1) // 2, 0) if n % 2 else ((n - 2) // 2, 1)
    expect(
        (triples, pairs) == (want_triples, want_pairs),
        f"{triples} triples + {pairs} pairs for N={n}",
    )
    rates = []
    for seg, m in zip(segments, members):
        if len(m) == 3:
            expect(seg["center"] == m[1], f"center {seg['center']!r} is not the middle of {m}")
            hops = [(m[0], m[1]), (m[1], m[2])]
            expect(m[0] != m[2], f"triple {m} repeats a party")
        else:
            hops = [(m[0], m[1])]
        kms = []
        for a, b in hops:
            km = tree.get(frozenset((a, b)))
            expect(km is not None, f"segment {m} uses {a}-{b}, which is not a tree edge")
            kms.append(km)
        expect(seg["link_km"] == kms, f"segment {m} link_km {seg['link_km']} != {kms}")
        want_rate = min(link(mu, transmittance(km), delta_ec)[2] for km in kms)
        expect(close(seg["rate_per_pulse"], want_rate), f"segment {m} rate != closed form")
        rates.append(want_rate)
    expect(close(doc["network_rate_per_pulse"], min(rates)), "network rate != min segment rate")

    sets = [set(m) for m in members]
    expect(set().union(*sets) == set(ids), "not every party is covered")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            expect(len(sets[i] & sets[j]) <= 1, f"segments {members[i]} and {members[j]} share >1")
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(sets)):
            if j not in reached and sets[i] & sets[j]:
                reached.add(j)
                frontier.append(j)
    expect(len(reached) == len(sets), "segment-sharing graph is disconnected")
    expect(doc["reconciliation"]["all_parties_converge"] is True, "parties do not converge")
