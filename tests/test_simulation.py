"""Unit tests for the Monte Carlo protocol simulation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from twinfield_qka import simulation
from twinfield_qka.errors import ValidationError
from twinfield_qka.keyrate import (
    holevo_closed,
    sift_probability,
    symmetric_rate,
    transmittance_from_distance,
)
from twinfield_qka.simulation import (
    BLOCK_SIZE,
    SessionConfig,
    _block_events,
    _block_rng,
    _successes,
    background_click_probability,
    reconcile_pair,
    run_session,
    session_result_to_dict,
)


def noiseless(n_pulses, mu=0.2, total_km=0.0, seed=0):
    return SessionConfig.equal_arms(
        n_pulses=n_pulses, mu=mu, total_km=total_km,
        y0=0.0, dark_count_prob=0.0, seed=seed,
    )


# --- the per-pulse oracle ---------------------------------------------------
#
# run_session draws only the conclusive rounds.  The oracle below draws what
# the protocol describes for every pulse: three phase bits and one uniform per
# detector, announced and sifted pulse by pulse.  Both must have the same law.

#: One-sided tail of 5 standard deviations of a normal distribution.
TAIL_5_SIGMA = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


def node_laws(config):
    """Per node (AB, BC): arrival intensity, P(conclusive), P(error | conclusive)."""
    t_a, t_b, t_bp, t_c = (transmittance_from_distance(l) for l in config.arm_lengths)
    p_bg = background_click_probability(config.y0, config.dark_count_prob)
    laws = []
    for m in (min(config.mu_a * t_a, config.mu_b * t_b),
              min(config.mu_b * t_bp, config.mu_c * t_c)):
        p_sig = 1.0 - (1.0 - p_bg) * math.exp(-2.0 * m)
        p_conc = p_sig * (1.0 - p_bg) + p_bg * (1.0 - p_sig)
        laws.append((m, p_conc, p_bg * (1.0 - p_sig) / p_conc))
    return laws


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
        blocks.append([(pos + offset, bob ^ err, bob) for pos, bob, err in events])
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
        p = sift_probability(0.2, 1.0)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(res.conclusive_counts["AB"] / n - p) < 5 * sigma
        assert abs(res.conclusive_counts["BC"] / n - p) < 5 * sigma

    def test_dark_counts_create_qber(self):
        cfg = SessionConfig.equal_arms(
            n_pulses=200_000, mu=0.2, total_km=120.0,
            y0=1e-3, dark_count_prob=1e-3, seed=5,
        )
        res = run_session(cfg)
        assert res.qber_ab > 0.0
        # Reported qber is exactly the sifted-string divergence.
        assert res.qber_ab == np.mean(res.sifted_ab[0] != res.sifted_ab[1])

    def test_zero_intensity_yields_empty_keys(self):
        cfg = SessionConfig(n_pulses=10_000, mu_a=0.0, mu_b=0.0, mu_c=0.0,
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
        p = sift_probability(0.2, 1.0)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(res.conclusive_counts["AB"] / n - p) < 5 * sigma
        assert res.qber_ab == 0.0

    def test_double_clicks_never_become_key_bits(self):
        # With a heavy background both detectors often fire together; those
        # rounds must land in '?', so the conclusive rate is the two
        # exactly-one-click terms and nothing else.
        n = 300_000
        p_bg = 0.3
        cfg = SessionConfig(n_pulses=n, mu_a=0.2, mu_b=0.2, mu_c=0.2,
                            y0=p_bg, dark_count_prob=0.0, seed=6)
        res = run_session(cfg)
        p_sig = 1 - (1 - p_bg) * math.exp(-0.4)
        p_conclusive = p_sig * (1 - p_bg) + p_bg * (1 - p_sig)
        sigma = math.sqrt(p_conclusive * (1 - p_conclusive) / n)
        assert abs(res.conclusive_counts["AB"] / n - p_conclusive) < 5 * sigma

    def test_unequal_arms_calibrate_to_weaker(self):
        cfg = SessionConfig(
            n_pulses=200_000, mu_a=0.2, mu_b=0.2, mu_c=0.2,
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
        assert res.chi == holevo_closed(m / math.sqrt(eta), eta)
        assert res.sifted_rate == res.conclusive_counts[weak] / cfg.n_pulses
        assert res.conclusive_counts[weak] == min(res.conclusive_counts.values())

    @pytest.mark.parametrize("field", ["mu_a", "mu_b", "mu_c", "ec_efficiency",
                                       "repetition_rate", "y0", "dark_count_prob",
                                       "arm_lengths"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_rejected(self, field, value):
        if field == "arm_lengths":
            value = (1.0, value, 1.0, 1.0)
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=10, **{field: value})

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=0)
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=10, mu_a=-0.1)
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=10, y0=1.5)
        with pytest.raises(ValidationError):
            SessionConfig(n_pulses=10, arm_lengths=(1.0, 1.0, 1.0))


#: One and a half random blocks, so every case crosses a block boundary.
ORACLE_PULSES = 3 << 19

ORACLE_CASES = {
    "0 km": SessionConfig.equal_arms(n_pulses=ORACLE_PULSES, mu=0.2, total_km=0.0, seed=1),
    "120 km": SessionConfig.equal_arms(n_pulses=ORACLE_PULSES, mu=0.2, total_km=120.0, seed=2),
    "250 km": SessionConfig.equal_arms(n_pulses=ORACLE_PULSES, mu=0.2, total_km=250.0, seed=3),
    "heavy background": SessionConfig.equal_arms(n_pulses=ORACLE_PULSES, mu=0.2, total_km=40.0,
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


class TestEventSampling:
    def test_first_block_independent_of_session_length(self):
        kwargs = dict(mu=0.2, total_km=120.0, y0=1e-3, seed=21)
        short = run_session(SessionConfig.equal_arms(n_pulses=1 << 20, **kwargs))
        long = run_session(SessionConfig.equal_arms(n_pulses=(1 << 20) + 123, **kwargs))
        for s_key, l_key in zip((*short.sifted_ab, *short.sifted_bc),
                                (*long.sifted_ab, *long.sifted_bc)):
            assert len(l_key) >= len(s_key)
            assert np.array_equal(l_key[:len(s_key)], s_key)

    def test_never_conclusive_gives_no_events(self):
        for pos, bob, err in _block_events(_block_rng(0, 0), 5000, [(0.0, 0.0), (0.0, 0.0)]):
            assert len(pos) == len(bob) == len(err) == 0
            assert bob.dtype == np.uint8

    def test_always_conclusive_has_no_gaps(self):
        # Bright pulses and no background: every round is conclusive at both nodes.
        n = 5000
        res = run_session(SessionConfig(n_pulses=n, mu_a=1e3, mu_b=1e3, mu_c=1e3,
                                        y0=0.0, dark_count_prob=0.0, seed=8))
        assert res.conclusive_counts == {"AB": n, "BC": n}
        assert np.array_equal(res.sifted_ab[1], res.sifted_bc[0])
        for pos, _, _ in _block_events(_block_rng(8, 0), n, [(1.0, 0.0), (1.0, 0.0)]):
            assert np.array_equal(pos, np.arange(n))

    def test_rare_events_terminate(self):
        # m = 5e-10 per arm gives P(conclusive) close to 1e-9.
        cfg = SessionConfig(n_pulses=(1 << 20) + 5, mu_a=5e-10, mu_b=5e-10, mu_c=5e-10,
                            y0=0.0, dark_count_prob=0.0, seed=9)
        res = run_session(cfg)
        assert res.conclusive_counts["AB"] <= 5
        # Gaps overflow to inf here and are capped; summing them must not
        # give positions that never pass the block.
        rng = CountingRng(_block_rng(9, 0))
        for pos, _, _ in _block_events(rng, BLOCK_SIZE, [(1e-300, 0.0), (5e-324, 0.0)]):
            assert len(pos) == 0
        assert rng.exponential_calls == 2


class TestSuccesses:
    """_successes against the law of n Bernoulli(p) trials."""

    @pytest.mark.parametrize("n, p", [(1000, 0.0), (0, 0.5), (0, 1.0), (0, 0.0)])
    def test_empty_without_draws(self, n, p):
        rng = _block_rng(5, 0)
        out = _successes(rng, n, p)
        assert out.dtype == np.int64 and len(out) == 0
        assert np.array_equal(rng.random(8), _block_rng(5, 0).random(8))

    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_certain_success_is_every_trial(self, n):
        out = _successes(_block_rng(6, 0), n, 1.0)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.arange(n))

    @pytest.mark.parametrize("p", [1e-300, 5e-324])
    def test_vanishing_p_has_no_successes(self, p):
        assert len(_successes(_block_rng(7, 0), BLOCK_SIZE, p)) == 0

    @pytest.mark.parametrize("p", [1e-3, 0.0222, 0.3, 0.5, 0.9])
    def test_count_and_gaps_follow_bernoulli_trials(self, p):
        n, blocks = BLOCK_SIZE, 4
        gaps, count = [], 0
        for bi in range(blocks):
            pos = _successes(_block_rng(int(p * 1e4), bi), n, p)
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
    """A Generator that counts exponential draws and stops a loop that would not end."""

    def __init__(self, rng):
        self.rng, self.exponential_calls = rng, 0

    def standard_exponential(self, size):
        self.exponential_calls += 1
        assert self.exponential_calls < 100, "the gap draws do not pass the block"
        return self.rng.standard_exponential(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestReconcilePair:
    def test_xor_involution(self):
        ann, a, b = reconcile_pair([1, 0, 1, 1], [0, 1, 1, 0])
        np.testing.assert_array_equal(ann, [1, 1, 0, 1])
        np.testing.assert_array_equal(ann ^ b, a)
        np.testing.assert_array_equal(ann ^ a, b)

    def test_truncates_to_shorter_key(self):
        ann, a, b = reconcile_pair([1, 0, 1, 1, 0], [0, 1, 1])
        assert len(ann) == len(a) == len(b) == 3
        np.testing.assert_array_equal(a, [1, 0, 1])

    def test_identical_keys_announce_zeros(self):
        ann, _, _ = reconcile_pair([1, 0, 1], [1, 0, 1])
        assert not ann.any()

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            reconcile_pair([2, 0], [0, 1])


class TestThreePartyRoundTrip:
    def test_all_parties_agree_in_loss_only_sessions(self):
        for seed in range(8):
            res = run_session(noiseless(20_000, total_km=60.0, seed=seed))
            alice, bob_ab = res.sifted_ab
            bob_bc, charlie = res.sifted_bc
            ann, k_ab, k_bc = reconcile_pair(bob_ab, bob_bc)
            n = len(ann)
            alice_view_bc = ann ^ alice[:n]
            charlie_view_ab = ann ^ charlie[:n]
            np.testing.assert_array_equal(alice_view_bc, k_bc)
            np.testing.assert_array_equal(charlie_view_ab, k_ab)

