"""Unit tests for the Monte Carlo protocol simulation."""

import collections
import math
import tracemalloc
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import key_digest, node_laws
from twinfield_qka import simulation
from twinfield_qka.errors import ValidationError
from twinfield_qka.keyrate import (
    link_rate,
    symmetric_rate,
    transmittance_from_distance,
)
from twinfield_qka.linalg import binary_entropy
from twinfield_qka.simulation import (
    BLOCK_SIZE,
    SessionConfig,
    _below,
    _block_events,
    _block_rng,
    _digits,
    _key_digest,
    _raw_bytes,
    background_click_probability,
    run_session,
    session_result_to_dict,
)


def noiseless(n_pulses, mu=0.2, total_km=0.0, seed=0):
    return SessionConfig(
        n_pulses=n_pulses, mu=mu, arm_lengths=(total_km / 4,) * 4,
        y0=0.0, dark_count_prob=0.0, seed=seed,
    )


# --- the per-pulse oracle ---------------------------------------------------
#
# run_session draws only the conclusive rounds.  The oracle below draws what
# the protocol describes for every pulse: three phase bits and one uniform per
# detector, announced and sifted pulse by pulse.  Both must have the same law.

#: One-sided tail of 5 standard deviations of a normal distribution.
TAIL_5_SIGMA = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


def announce_block(k_end, kb, p_signal, p_bg, u_plus, u_minus):
    """One node's announcements (+1, -1, 0 for '?') over a block of pulses."""
    equal_mask = k_end == kb
    click_plus = np.where(equal_mask, u_plus < p_signal, u_plus < p_bg)
    click_minus = np.where(equal_mask, u_minus < p_bg, u_minus < p_signal)
    ann = np.zeros(len(u_plus), dtype=np.int8)
    ann[click_plus & ~click_minus] = 1
    ann[click_minus & ~click_plus] = -1
    return ann


def per_pulse_session(config):
    """Per node (AB, BC): conclusive pulse indices, the flipper's and Bob's sifted bits.

    Alice (node AB) and Charlie (node BC) flip their bit on '-'; Bob keeps his.
    """
    p_bg = background_click_probability(config.y0, config.dark_count_prob)
    p_sig = [1.0 - (1.0 - p_bg) * math.exp(-2.0 * m) for m, _, _ in node_laws(config)]
    nodes = ([], [])
    n = config.n_pulses
    for bi in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        cnt = min(n - bi * BLOCK_SIZE, BLOCK_SIZE)
        rng = _block_rng(config.seed, bi)
        ka = rng.integers(0, 2, cnt, dtype=np.uint8)
        kb = rng.integers(0, 2, cnt, dtype=np.uint8)
        kc = rng.integers(0, 2, cnt, dtype=np.uint8)
        u = rng.random((4, cnt))
        for i, k_end in enumerate((ka, kc)):
            ann = announce_block(k_end, kb, p_sig[i], p_bg, u[2 * i], u[2 * i + 1])
            conc = np.flatnonzero(ann)
            nodes[i].append((conc + bi * BLOCK_SIZE, k_end[conc] ^ (ann[conc] < 0), kb[conc]))
    return [tuple(np.concatenate(parts) for parts in zip(*node)) for node in nodes]


def recorded_session(config, monkeypatch):
    """run_session, and per node the events it drew: positions, flipper's bits, Bob's bits."""
    blocks = []
    real = simulation._block_events

    def spy(rng, cnt, laws):
        events = real(rng, cnt, laws)
        offset = len(blocks) * BLOCK_SIZE
        blocks.append([(np.flatnonzero(at) + offset, bob ^ err, bob) for at, bob, err in events])
        return events

    monkeypatch.setattr(simulation, "_block_events", spy)
    res = run_session(config)
    return res, [tuple(np.concatenate(parts) for parts in zip(*(b[i] for b in blocks)))
                 for i in range(2)]


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def two_sample_tail(e1, k1, e2, k2):
    """Tail of e1 errors in k1 rounds against e2 in k2, under one common error rate.

    Conditional on the e1 + e2 errors in all, e1 is hypergeometric (Fisher's
    exact test).  Returns P(X >= e1) if e1 lies above its mean, else P(X <= e1).
    """
    errors, rounds = e1 + e2, k1 + k2
    lo, hi = max(0, errors - k2), min(errors, k1)
    step = 1 if e1 * rounds >= errors * k1 else -1
    term = total = math.exp(_log_comb(k1, e1) + _log_comb(k2, e2) - _log_comb(rounds, errors))
    x = e1
    while lo <= x + step <= hi:
        if step > 0:
            term *= (k1 - x) * (errors - x) / ((x + 1) * (k2 - errors + x + 1))
        else:
            term *= x * (k2 - errors + x) / ((k1 - x + 1) * (errors - x + 1))
        total += term
        x += step
        if term <= total * 1e-17:
            break
    return min(total, 1.0)


def chi2_tail(x, dof):
    """P(X >= x) for a chi-square variable with dof degrees of freedom."""
    h = x / 2.0
    if dof % 2:
        total, shape = math.erfc(math.sqrt(h)), 1.5
        term = math.sqrt(h) * math.exp(-h) / math.gamma(shape)
    else:
        total, term, shape = 0.0, math.exp(-h), 1.0
    for _ in range(dof // 2):
        total += term
        term *= h / shape
        shape += 1.0
    return min(total, 1.0)


def geometric_gap_tail(gaps, p):
    """Chi-square tail of a gap histogram against the geometric law P(G = g) = (1-p)^(g-1) p.

    Bin edges sit at the law's 1/16 quantiles and, further out, where its
    tail halves, as long as at least 5 gaps are expected past the last edge.
    """
    n, log_q = len(gaps), math.log1p(-p)
    tails = np.concatenate([1.0 - np.arange(1, 16) / 16, 0.5 ** np.arange(5, 64)])
    edges = np.unique(np.ceil(np.log(tails) / log_q))
    cdf = -np.expm1(edges * log_q)
    keep = n * (1.0 - cdf) >= 5.0
    edges, cdf = edges[keep], cdf[keep]
    expected = n * np.diff(cdf, prepend=0.0, append=1.0)
    observed = np.bincount(np.searchsorted(edges, gaps), minlength=len(expected))
    return chi2_tail(float(np.sum((observed - expected) ** 2 / expected)), len(expected) - 1)


def bob_agreements(nodes):
    """Pulses conclusive at both nodes, and how many of them carry equal Bob bits."""
    (pos_ab, _, bob_ab), (pos_bc, _, bob_bc) = nodes
    common, i_ab, i_bc = np.intersect1d(pos_ab, pos_bc, assume_unique=True, return_indices=True)
    return len(common), int(np.count_nonzero(bob_ab[i_ab] == bob_bc[i_bc]))


def announce_one(phase_end, phase_bob, m, draws, y0=0.0, dark_count_prob=0.0):
    """announce_block on a single pulse: +1, -1 or 0 ('?')."""
    p_bg = background_click_probability(y0, dark_count_prob)
    p_signal = 1.0 - (1.0 - p_bg) * math.exp(-2.0 * m)
    u_plus, u_minus = (np.array([u]) for u in draws)
    return int(announce_block(np.array([phase_end]), np.array([phase_bob]),
                              p_signal, p_bg, u_plus, u_minus)[0])


class TestInterfereAndDetect:
    """The oracle's click rule at one node, one pulse at a time."""

    def test_no_light_no_darks_is_inconclusive(self):
        for draws in ((0.0, 0.0), (0.99, 0.01), (0.5, 0.5)):
            assert announce_one(0, 0, 0.0, draws) == 0

    def test_equal_phases_click_plus(self):
        # Constructive port carries 2m photons; draw below 1 - e^-2m clicks.
        m = 0.3
        p = 1 - math.exp(-2 * m)
        assert announce_one(0, 0, m, (p - 1e-9, 0.9)) == 1
        assert announce_one(0, 0, m, (p + 1e-9, 0.9)) == 0

    def test_opposite_phases_click_minus(self):
        m = 0.3
        p = 1 - math.exp(-2 * m)
        assert announce_one(0, 1, m, (0.9, p - 1e-9)) == -1

    def test_double_click_is_inconclusive(self):
        # Both detectors firing (here via a huge background) never yields a bit.
        assert announce_one(0, 0, 0.5, (0.0, 0.0), y0=0.9) == 0


class TestKeyDigest:
    """A key is reported by the SHA-256 of its bits packed 8 to a byte, first bit highest."""

    @pytest.mark.parametrize("n_bits", [*range(18), 256, 23_001])
    def test_digest_packs_the_bits(self, n_bits):
        bits = np.random.default_rng(n_bits).integers(0, 2, n_bits, dtype=np.uint8)
        assert _key_digest(bits) == key_digest(bits.tolist())

    def test_session_digests_name_its_keys(self):
        result = run_session(SessionConfig(n_pulses=20_000, arm_lengths=(5.0,) * 4, seed=3))
        (alice, bob_ab), (bob_bc, charlie) = result.sifted_ab, result.sifted_bc
        assert session_result_to_dict(result)["key_digests"] == {
            "alice_ab": key_digest(alice), "bob_ab": key_digest(bob_ab),
            "bob_bc": key_digest(bob_bc), "charlie_bc": key_digest(charlie),
        }
        assert len(alice) % 8 and len(bob_bc) % 8  # the last byte is padded


class TestRunSession:
    def test_deterministic_given_seed(self):
        cfg = noiseless(50_000, seed=42)
        r1, r2 = run_session(cfg), run_session(cfg)
        assert np.array_equal(r1.sifted_ab[0], r2.sifted_ab[0])
        assert np.array_equal(r1.sifted_bc[1], r2.sifted_bc[1])
        assert r1.skr_per_pulse == r2.skr_per_pulse
        assert session_result_to_dict(r1) == session_result_to_dict(r2)

    def test_different_seeds_differ(self):
        r1 = run_session(noiseless(50_000, seed=1))
        r2 = run_session(noiseless(50_000, seed=2))
        assert not np.array_equal(r1.sifted_ab[0], r2.sifted_ab[0])

    def test_loss_only_has_zero_qber(self):
        for seed in range(5):
            res = run_session(noiseless(30_000, total_km=40.0, seed=seed))
            assert res.qber_ab == 0.0
            assert res.qber_bc == 0.0
            assert np.array_equal(res.sifted_ab[0], res.sifted_ab[1])
            assert np.array_equal(res.sifted_bc[0], res.sifted_bc[1])

    def test_conclusive_fraction_matches_closed_form(self):
        n = 100_000
        res = run_session(noiseless(n, seed=9))
        p = link_rate(0.2, 1.0)[0]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(res.conclusive_counts["AB"] / n - p) < 5 * sigma
        assert abs(res.conclusive_counts["BC"] / n - p) < 5 * sigma

    def test_dark_counts_create_qber(self):
        cfg = SessionConfig(
            n_pulses=200_000, mu=0.2, arm_lengths=(120.0 / 4,) * 4,
            y0=1e-3, dark_count_prob=1e-3, seed=5,
        )
        res = run_session(cfg)
        assert res.qber_ab > 0.0
        # Reported qber is exactly the sifted-string divergence.
        assert res.qber_ab == np.mean(res.sifted_ab[0] != res.sifted_ab[1])

    def test_zero_intensity_yields_empty_keys(self):
        cfg = SessionConfig(n_pulses=10_000, mu=0.0,
                            y0=0.0, dark_count_prob=0.0, seed=3)
        res = run_session(cfg)
        assert len(res.sifted_ab[0]) == 0
        assert res.skr_per_pulse == 0.0
        assert res.skr_bps == 0.0

    def test_skr_bounded_by_sifted_rate(self):
        res = run_session(noiseless(50_000, total_km=80.0, seed=7))
        assert res.skr_per_pulse <= res.sifted_rate

    def test_skr_approaches_asymptotic_rate(self):
        n = 1_000_000
        res = run_session(noiseless(n, seed=13))
        target = symmetric_rate(0.2, 1.0)
        assert abs(res.skr_per_pulse - target) / target < 0.05

    def test_spans_multiple_blocks(self):
        # Exercise the block loop boundary (BLOCK_SIZE is 2^20).
        cfg = noiseless((1 << 20) + 123, seed=21)
        res = run_session(cfg)
        n = cfg.n_pulses
        p = link_rate(0.2, 1.0)[0]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(res.conclusive_counts["AB"] / n - p) < 5 * sigma
        assert res.qber_ab == 0.0

    def test_double_clicks_never_become_key_bits(self):
        # With a heavy background both detectors often fire together; those
        # rounds must land in '?', so the conclusive rate is the two
        # exactly-one-click terms and nothing else.
        n = 300_000
        p_bg = 0.3
        cfg = SessionConfig(n_pulses=n, mu=0.2,
                            y0=p_bg, dark_count_prob=0.0, seed=6)
        res = run_session(cfg)
        p_sig = 1 - (1 - p_bg) * math.exp(-0.4)
        p_conclusive = p_sig * (1 - p_bg) + p_bg * (1 - p_sig)
        sigma = math.sqrt(p_conclusive * (1 - p_conclusive) / n)
        assert abs(res.conclusive_counts["AB"] / n - p_conclusive) < 5 * sigma

    def test_unequal_arms_calibrate_to_weaker(self):
        cfg = SessionConfig(
            n_pulses=200_000, mu=0.2,
            arm_lengths=(30.0, 10.0, 0.0, 0.0),
            y0=0.0, dark_count_prob=0.0, seed=2,
        )
        res = run_session(cfg)
        # Arrival intensity is set by the lossier 30 km arm.
        m = 0.2 * 10 ** (-0.02 * 30)
        p = 1 - math.exp(-2 * m)
        n = cfg.n_pulses
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(res.conclusive_counts["AB"] / n - p) < 5 * sigma

    @pytest.mark.parametrize("arms, weak", [((0.0, 0.0, 40.0, 40.0), "BC"),
                                            ((40.0, 40.0, 0.0, 0.0), "AB")])
    def test_weaker_node_sets_the_rate(self, arms, weak):
        cfg = SessionConfig(n_pulses=50_000, arm_lengths=arms, seed=4)
        res = run_session(cfg)
        t = transmittance_from_distance(40.0)
        m, eta = 0.2 * t, t * t
        assert res.chi == link_rate(m / math.sqrt(eta), eta)[1]
        assert res.sifted_rate == res.conclusive_counts[weak] / cfg.n_pulses
        assert res.conclusive_counts[weak] == min(res.conclusive_counts.values())

    def test_rate_charges_measured_errors_through_link_rate(self):
        # Heavy background and unequal arms: each node pays h(qber) on top of chi.
        arms = (5.0, 25.0, 40.0, 10.0)
        cfg = SessionConfig(n_pulses=300_000, arm_lengths=arms, y0=2e-3, seed=8)
        res = run_session(cfg)
        t = transmittance_from_distance
        rates, loss_only = [], []
        for (l1, l2), qber, node in ((arms[:2], res.qber_ab, "AB"),
                                     (arms[2:], res.qber_bc, "BC")):
            sift = res.conclusive_counts[node] / cfg.n_pulses
            mu_eff, eta = 0.2 * t(abs(l1 - l2) / 2), t(l1) * t(l2)
            rates.append(sift * link_rate(mu_eff, eta, binary_entropy(qber))[2])
            loss_only.append(sift * link_rate(mu_eff, eta)[2])
        assert min(res.qber_ab, res.qber_bc) > 0.005
        assert res.skr_per_pulse == min(rates)
        assert 0.0 < res.skr_per_pulse < min(loss_only)

    @pytest.mark.parametrize("field", ["mu", "y0", "dark_count_prob", "arm_lengths"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_rejected(self, field, value):
        if field == "arm_lengths":
            value = (1.0, value, 1.0, 1.0)
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=10, **{field: value})

    @pytest.mark.parametrize("field", ["n_pulses", "seed"])
    @pytest.mark.parametrize("value", [10.5, float("nan"), 3.0, True, "3", None])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SessionConfig(**{"n_pulses": 10, field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SessionConfig(n_pulses=np.int64(5000), seed=np.uint32(3))
        assert run_session(cfg).conclusive_counts == run_session(
            SessionConfig(n_pulses=5000, seed=3)).conclusive_counts

    def test_config_validation(self):
        # The numeric fields are held to their domains in test_properties.LIBRARY.
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=10, arm_lengths=(1.0, 1.0, 1.0))


#: One and a half random blocks, so every case crosses a block boundary.
ORACLE_PULSES = 3 << 19

ORACLE_CASES = {
    "0 km": SessionConfig(n_pulses=ORACLE_PULSES, mu=0.2, arm_lengths=(0.0,) * 4, seed=1),
    "120 km": SessionConfig(n_pulses=ORACLE_PULSES, mu=0.2, arm_lengths=(120.0 / 4,) * 4, seed=2),
    "250 km": SessionConfig(n_pulses=ORACLE_PULSES, mu=0.2, arm_lengths=(250.0 / 4,) * 4, seed=3),
    "heavy background": SessionConfig(n_pulses=ORACLE_PULSES, mu=0.2, arm_lengths=(40.0 / 4,) * 4,
                                      y0=0.3, seed=4),
    "unequal arms": SessionConfig(n_pulses=ORACLE_PULSES, arm_lengths=(30.0, 10.0, 5.0, 60.0),
                                  y0=1e-3, seed=5),
}


class TestPerPulseOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_counts_errors_and_bob_bits_match(self, case, monkeypatch):
        config = ORACLE_CASES[case]
        res, events = recorded_session(config, monkeypatch)
        oracle = per_pulse_session(replace(config, seed=config.seed + 100))
        n = config.n_pulses
        # The recorded events are exactly the session's keys.
        assert np.array_equal(res.sifted_ab[0], events[0][1])
        assert np.array_equal(res.sifted_ab[1], events[0][2])
        assert np.array_equal(res.sifted_bc[0], events[1][2])
        assert np.array_equal(res.sifted_bc[1], events[1][1])
        for (_, end, bob), (_, o_end, o_bob), node in zip(events, oracle, ("AB", "BC")):
            k1, k2 = len(end), len(o_end)
            assert res.conclusive_counts[node] == k1
            p = (k1 + k2) / (2 * n)
            assert abs(k1 - k2) < 5 * math.sqrt(2 * n * p * (1 - p)), node
            e1 = int(np.count_nonzero(end != bob))
            e2 = int(np.count_nonzero(o_end != o_bob))
            assert two_sample_tail(e1, k1, e2, k2) >= TAIL_5_SIGMA, (node, e1, k1, e2, k2)
        # Bob's bit is shared: every pulse conclusive at both nodes agrees.
        (_, p_ab, _), (_, p_bc, _) = node_laws(config)
        p_both = p_ab * p_bc
        sigma = math.sqrt(n * p_both * (1 - p_both))
        for nodes in (events, oracle):
            common, agree = bob_agreements(nodes)
            assert agree == common
            assert abs(agree - n * p_both) < 5 * sigma, (agree, n * p_both)

    def test_error_rate_matches_the_model(self):
        # Heavy background: the QBER has the power to see a wrong error law.
        config = ORACLE_CASES["heavy background"]
        res = run_session(config)
        for (_, _, q), node, qber in zip(node_laws(config), ("AB", "BC"),
                                         (res.qber_ab, res.qber_bc)):
            k = res.conclusive_counts[node]
            assert abs(qber - q) < 5 * math.sqrt(q * (1 - q) / k), node

    def test_long_haul_session_follows_the_node_law(self):
        # 600 km at the default background: about 4e4 events per node, q about 0.0085.
        n = 10**8
        config = SessionConfig(n_pulses=n, arm_lengths=(600.0 / 4,) * 4, seed=600)
        res = run_session(config)
        (_, p, q), _ = node_laws(config)  # equal arms: both nodes follow one law
        dp, dq = 5 * math.sqrt(p * (1 - p) / n), 5 * math.sqrt(q * (1 - q) / (n * p))
        for node, qber in (("AB", res.qber_ab), ("BC", res.qber_bc)):
            assert abs(res.conclusive_counts[node] / n - p) < dp, node
            assert abs(qber - q) < dq, node
        # The rate p (1 - chi - h(q)) grows with p and falls with q: its band is
        # the rates at the corners of the two counts' 5-sigma bands.
        chi = link_rate(config.mu, transmittance_from_distance(300.0))[1]
        low = (p - dp) * (1 - chi - binary_entropy(q + dq))
        high = (p + dp) * (1 - chi - binary_entropy(q - dq))
        assert 0.0 < low < p * (1 - chi - binary_entropy(q)) < high
        assert low < res.skr_per_pulse < high


class TestEventSampling:
    def test_first_block_independent_of_session_length(self):
        kwargs = dict(mu=0.2, arm_lengths=(120.0 / 4,) * 4, y0=1e-3, seed=21)
        short = run_session(SessionConfig(n_pulses=1 << 20, **kwargs))
        long = run_session(SessionConfig(n_pulses=(1 << 20) + 123, **kwargs))
        for s_key, l_key in zip((*short.sifted_ab, *short.sifted_bc),
                                (*long.sifted_ab, *long.sifted_bc)):
            assert len(l_key) >= len(s_key)
            assert np.array_equal(l_key[:len(s_key)], s_key)

    def test_never_conclusive_gives_no_events(self):
        for at, bob, err in _block_events(_block_rng(0, 0), 5000, [(0.0, 0.0), (0.0, 0.0)]):
            assert len(at) == len(bob) == len(err) == 0
            assert bob.dtype == np.uint8

    def test_always_conclusive_has_no_gaps(self):
        # Bright pulses and no background: every round is conclusive at both nodes.
        n = 5000
        res = run_session(SessionConfig(n_pulses=n, mu=1e3,
                                        y0=0.0, dark_count_prob=0.0, seed=8))
        assert res.conclusive_counts == {"AB": n, "BC": n}
        assert np.array_equal(res.sifted_ab[1], res.sifted_bc[0])
        for at, _, _ in _block_events(_block_rng(8, 0), n, [(1.0, 0.0), (1.0, 0.0)]):
            assert len(at) == n and at.all()

    def test_rare_events_terminate(self):
        # m = 5e-10 per arm gives P(conclusive) close to 1e-9.
        cfg = SessionConfig(n_pulses=(1 << 20) + 5, mu=5e-10,
                            y0=0.0, dark_count_prob=0.0, seed=9)
        res = run_session(cfg)
        assert res.conclusive_counts["AB"] <= 5
        for at, bob, err in _block_events(_block_rng(9, 0), BLOCK_SIZE,
                                          [(1e-300, 0.0), (5e-324, 0.0)]):
            assert len(at) == len(bob) == len(err) == 0

    def test_cost_follows_the_events(self):
        # About 2 events in the block: a per-pulse draw of any kind would
        # take at least BLOCK_SIZE / 8 values or bytes.
        rng = CountingRng(_block_rng(10, 0))
        _block_events(rng, BLOCK_SIZE, [(1e-6, 0.0), (1e-6, 0.0)])
        assert rng.drawn < 1000

    def test_peak_memory_follows_the_events(self):
        # A float64 or int64 array over the events would alone take 8 bytes, over
        # the 7 allowed; so would a 4-byte transient next to the block's own arrays.
        config = SessionConfig(n_pulses=BLOCK_SIZE, arm_lengths=(250.0 / 4,) * 4, seed=16)
        run_session(config)
        tracemalloc.start()
        try:
            res = run_session(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * sum(res.conclusive_counts.values())

    def test_labels_follow_the_multinomial_law(self):
        # Each pulse is AB only, both, BC only or neither, independently.
        pa, pb, blocks = 0.3, 0.01, 4
        laws = [(pa, 0.0), (pb, 0.0)]
        probs = np.array([pa * (1 - pb), pa * pb, (1 - pa) * pb, (1 - pa) * (1 - pb)])
        counts, gaps = np.zeros(4), ([], [], [])
        for bi in range(blocks):
            (ab, _, _), (bc, _, _) = _block_events(_block_rng(12, bi), BLOCK_SIZE, laws)
            label = ab + 2 * bc.astype(np.int8)  # 1 AB only, 3 both, 2 BC only
            assert label.all()  # every event is conclusive at a node
            for gap, code in zip(gaps, (1, 3, 2)):
                gap.append(np.diff(np.flatnonzero(label == code), prepend=-1))
            counts[:3] += [np.count_nonzero(label == code) for code in (1, 3, 2)]
            counts[3] += BLOCK_SIZE - len(label)
        expected = blocks * BLOCK_SIZE * probs
        assert chi2_tail(float(np.sum((counts - expected) ** 2 / expected)), 3) >= TAIL_5_SIGMA
        # In the merged stream the labels are i.i.d.: each one's gaps are geometric.
        p_any = 1.0 - probs[3]
        for gap, p in zip(gaps, probs[:3] / p_any):
            assert geometric_gap_tail(np.concatenate(gap), p) >= TAIL_5_SIGMA, p


class TestExactLabels:
    """_below reads a uniform U to 72 bits: [U < t] holds with probability floor(2^72 t) / 2^72."""

    @pytest.mark.parametrize("t", [0.0, 5e-324, 1e-300, 2**-9, 0.3, 1.0 - 2**-53, 1.0])
    def test_digits_are_the_first_72_bits(self, t):
        head, tail = _digits(t)
        assert 0 <= head <= 256 and 0 <= tail < 2**64
        assert head * 2**64 + tail == math.floor(2**72 * Fraction(t))

    @pytest.mark.parametrize("t, share", [(0.0, 0), (5e-324, 0), (1.0 - 2**-53, 1), (1.0, 1)])
    def test_edge_thresholds(self, t, share):
        # P(U < 5e-324) and P(U >= 1 - 2^-53) are too small to ever be seen.
        rng = _block_rng(14, 0)
        n = 1 << 16
        (below,) = _below(rng, _raw_bytes(rng, n), [t])
        assert np.count_nonzero(below) == share * n

    def test_a_tied_first_digit_is_settled_by_the_next_bits(self):
        # Every U starts with the threshold's own first digit: its next 64 bits decide.
        t = (77 + 0.3) / 256
        head, _ = _digits(t)
        n = 1 << 16
        (below,) = _below(_block_rng(15, 0), np.full(n, head, dtype=np.uint8), [t])
        p = 256 * t - head
        assert abs(np.count_nonzero(below) - n * p) < 5 * math.sqrt(n * p * (1 - p))


class TestSuccesses:
    """Each node's error flags against the law of Bernoulli(q) trials over its events.

    With laws [(1.0, q), (0.0, 0.0)] every pulse of the block is an AB event,
    so the AB flags are BLOCK_SIZE trials.
    """

    @pytest.mark.parametrize("p", [1e-300, 5e-324])
    def test_vanishing_p_has_no_successes(self, p):
        (_, _, err), _ = _block_events(_block_rng(7, 0), BLOCK_SIZE, [(1.0, p), (0.0, 0.0)])
        assert len(err) == BLOCK_SIZE and not err.any()

    @pytest.mark.parametrize("p", [1e-3, 0.0222, 0.3, 0.5, 0.9])
    def test_count_and_gaps_follow_bernoulli_trials(self, p):
        n, blocks = BLOCK_SIZE, 4
        gaps, count = [], 0
        for bi in range(blocks):
            (_, _, err), _ = _block_events(_block_rng(int(p * 1e4), bi), n, [(1.0, p), (0.0, 0.0)])
            pos = np.flatnonzero(err)
            count += len(pos)
            gaps.append(np.diff(pos, prepend=-1))
        total = n * blocks
        assert abs(count - total * p) < 5 * math.sqrt(total * p * (1 - p)), (count, total * p)
        assert geometric_gap_tail(np.concatenate(gaps), p) >= TAIL_5_SIGMA

    def test_errors_are_independent_trials_over_the_events(self):
        # Heavy background: errors are frequent enough for the gap test to see
        # any dependence between an event's error flag and its neighbours.
        config = ORACLE_CASES["heavy background"]
        laws = [(p, q) for _, p, q in node_laws(config)]
        for node, (_, q) in enumerate(laws):
            gaps, errors, events = [], 0, 0
            for bi in range(4):
                _, _, err = _block_events(_block_rng(config.seed, bi), BLOCK_SIZE, laws)[node]
                idx = np.flatnonzero(err)
                errors, events = errors + len(idx), events + len(err)
                gaps.append(np.diff(idx, prepend=-1))
            assert abs(errors - events * q) < 5 * math.sqrt(events * q * (1 - q)), node
            assert geometric_gap_tail(np.concatenate(gaps), q) >= TAIL_5_SIGMA, node


class CountingRng:
    """A Generator that counts its draws and stops a loop that would not end.

    `calls` counts the calls per method, `drawn` sums the values (or bytes)
    every call returned.  `bit_generator.random_raw` counts the same way, one
    value per 64-bit word.
    """

    def __init__(self, rng):
        self.rng, self.calls, self.drawn = rng, collections.Counter(), 0
        self.bit_generator = types.SimpleNamespace(
            random_raw=self._counting("random_raw", rng.bit_generator.random_raw))

    def __getattr__(self, name):
        return self._counting(name, getattr(self.rng, name))

    def _counting(self, name, draw):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            assert self.calls[name] < 100, f"{name} is called without end"
            out = draw(*args, **kwargs)
            self.drawn += len(out) if isinstance(out, bytes) else np.size(out)
            return out

        return counted
