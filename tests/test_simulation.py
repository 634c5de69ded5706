"""Unit tests for the Monte Carlo protocol simulation."""

import math

import numpy as np
import pytest

from twinfield_qka.errors import UsageError, ValidationError
from twinfield_qka.keyrate import (
    holevo_closed,
    sift_probability,
    symmetric_rate,
    transmittance_from_distance,
)
from twinfield_qka.simulation import (
    SessionConfig,
    calibrate_source_intensity,
    interfere_and_detect,
    reconcile_pair,
    run_session,
    session_config_from_json,
    session_config_to_json,
    session_result_to_dict,
    sift_pair,
)


def noiseless(n_pulses, mu=0.2, total_km=0.0, seed=0):
    return SessionConfig.equal_arms(
        n_pulses=n_pulses, mu=mu, total_km=total_km,
        y0=0.0, dark_count_prob=0.0, seed=seed,
    )


class TestCalibration:
    def test_direct_division(self):
        assert calibrate_source_intensity(0.1, 0.5) == pytest.approx(0.2)

    def test_lossless_arm(self):
        assert calibrate_source_intensity(0.37, 1.0) == 0.37

    def test_zero_transmittance_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_source_intensity(0.1, 0.0)


class TestInterfereAndDetect:
    def test_no_light_no_darks_is_inconclusive(self):
        for draws in ((0.0, 0.0), (0.99, 0.01), (0.5, 0.5)):
            assert interfere_and_detect(0, 0, 0.0, draws=draws) == "?"

    def test_equal_phases_click_plus(self):
        # Constructive port carries 2m photons; draw below 1 - e^-2m clicks.
        m = 0.3
        p = 1 - math.exp(-2 * m)
        assert interfere_and_detect(0, 0, m, draws=(p - 1e-9, 0.9)) == "+"
        assert interfere_and_detect(0, 0, m, draws=(p + 1e-9, 0.9)) == "?"

    def test_opposite_phases_click_minus(self):
        m = 0.3
        p = 1 - math.exp(-2 * m)
        assert interfere_and_detect(0, 1, m, draws=(0.9, p - 1e-9)) == "-"

    def test_double_click_is_inconclusive(self):
        # Both detectors firing (here via a huge background) never yields a bit.
        assert interfere_and_detect(0, 0, 0.5, y0=0.9, draws=(0.0, 0.0)) == "?"

    def test_symbol_arguments_accepted(self):
        m = 0.3
        p = 1 - math.exp(-2 * m)
        assert interfere_and_detect("+", "-", m, draws=(0.9, p - 1e-9)) == "-"


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


class TestSiftPair:
    def test_worked_example(self):
        mine, partner = sift_pair([0, 1, 1], [0, 0, 1], ["+", "-", "?"], role="flipper")
        np.testing.assert_array_equal(mine, [0, 0])
        np.testing.assert_array_equal(partner, [0, 0])

    def test_keeper_does_not_flip(self):
        mine, partner = sift_pair([0, 1, 1], [0, 0, 1], ["+", "-", "?"], role="keeper")
        np.testing.assert_array_equal(mine, [0, 1])
        np.testing.assert_array_equal(partner, [0, 0])

    def test_all_inconclusive_gives_empty_keys(self):
        mine, partner = sift_pair([0, 1], [1, 0], ["?", "?"], role="flipper")
        assert len(mine) == 0
        assert len(partner) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sift_pair([0, 1], [0], ["+", "-"], role="flipper")

    def test_unknown_role_rejected(self):
        with pytest.raises(UsageError):
            sift_pair([0], [0], ["+"], role="middle")

    def test_integer_codes_accepted(self):
        mine, partner = sift_pair([1, 1], [0, 0], np.array([1, -1], dtype=np.int8),
                                  role="flipper")
        np.testing.assert_array_equal(mine, [1, 0])


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


class TestConfigSerialization:
    def test_json_round_trip(self):
        cfg = SessionConfig.equal_arms(n_pulses=1000, mu=0.25, total_km=100.0, seed=4)
        assert session_config_from_json(session_config_to_json(cfg)) == cfg
