"""Unit tests for the POVM / Holevo / asymptotic-rate module."""

import math

import numpy as np
import pytest

from oracles import ETA_GRID, MU_GRID
from twinfield_qka.coherent import basis_coeffs, signal_vector
from twinfield_qka.errors import POVM_MU_MIN, ImpossibleBranchError, UsageError, ValidationError
from twinfield_qka.keyrate import (
    announcement_probability,
    asymptotic_rate,
    eve_conditional_state,
    eve_mixture,
    holevo,
    link_rate,
    loss_povm,
    optimize_intensity,
    symmetric_rate,
    transmittance_from_distance,
)
from twinfield_qka.linalg import binary_entropy, von_neumann_entropy


class TestLossPovm:
    def test_inconclusive_top_entry_at_unit_eta(self):
        povm = loss_povm(0.2, 1.0)
        c0, _ = basis_coeffs(0.2)
        expected = povm.xi**2 * (1 + povm.omega) ** 2 / (4 * c0**4)
        assert povm.f_inconclusive[0, 0].real == pytest.approx(expected, abs=1e-14)
        assert povm.omega == pytest.approx(1.0)

    def test_vacuum_limit_inconclusive(self):
        povm = loss_povm(1e-8, 0.5)
        assert povm.f_inconclusive[0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            loss_povm(0.2, 0.0)
        with pytest.raises(ValidationError):
            loss_povm(0.0, 0.5)
        with pytest.raises(ValidationError):
            loss_povm(0.2, 1.5)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_intensity_rejected(self, mu):
        with pytest.raises(ValidationError, match="intensity must be finite"):
            loss_povm(mu, 0.5)

    @pytest.mark.parametrize("mu", [5e-324, 1e-320])
    def test_intensity_whose_square_underflows_is_refused(self, mu):
        # 8 c1^4, about 8 mu^2, would be 0: this used to raise ZeroDivisionError.
        words = f"intensity must be finite and >= {POVM_MU_MIN!r}, got {mu!r}"
        with pytest.raises(ValidationError, match=words):
            loss_povm(mu, 0.5)


class TestAnnouncementProbability:
    def test_equal_signs_at_unit_eta(self):
        povm = loss_povm(0.2, 1.0)
        probs = announcement_probability(povm, +1, +1)
        assert probs["+"] == pytest.approx(0.32967995396436067, abs=1e-12)
        assert probs["-"] == pytest.approx(0.0, abs=1e-12)
        assert probs["?"] == pytest.approx(0.6703200460356393, abs=1e-12)

    def test_opposite_signs_never_plus(self):
        for mu in (0.1, 0.4):
            for eta in (1.0, 0.01):
                povm = loss_povm(mu, eta)
                assert announcement_probability(povm, +1, -1)["+"] == pytest.approx(0.0, abs=1e-12)

    def test_small_mu_mostly_inconclusive(self):
        povm = loss_povm(1e-7, 0.8)
        assert announcement_probability(povm, +1, +1)["?"] == pytest.approx(1.0, abs=1e-6)


class TestEveConditionalState:
    def test_impossible_branch(self):
        povm = loss_povm(0.2, 0.9)
        with pytest.raises(ImpossibleBranchError):
            eve_conditional_state(povm, "-", +1, +1)

    def test_vacuum_inconclusive_passthrough(self):
        povm = loss_povm(1e-8, 0.9)
        theta = eve_conditional_state(povm, "?", +1, +1)
        np.testing.assert_allclose(np.abs(theta), [1, 0, 0, 0], atol=1e-4)

    def test_unit_norm_and_born_consistency(self):
        from twinfield_qka.linalg import psd_sqrt

        for delta, (sa, sb) in (("+", (1, 1)), ("-", (1, -1)), ("?", (-1, 1))):
            povm = loss_povm(0.3, 0.4)
            theta = eve_conditional_state(povm, delta, sa, sb)
            assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-12)
            v = signal_vector(sa, sb, 0.3)
            raw = psd_sqrt(povm.element(delta)) @ v
            born = announcement_probability(povm, sa, sb)[delta]
            assert np.linalg.norm(raw) ** 2 == pytest.approx(born, abs=1e-12)


class TestEveMixtureAndHolevo:
    def test_small_mu_entropy_vanishes(self):
        povm = loss_povm(1e-6, 0.5)
        assert von_neumann_entropy(eve_mixture(povm, "+")) == pytest.approx(0.0, abs=1e-4)

    def test_entropy_matches_closed_form_at_unit_eta(self):
        povm = loss_povm(0.2, 1.0)
        s = von_neumann_entropy(eve_mixture(povm, "+"))
        assert s == pytest.approx(0.64576359828413954, abs=1e-12)
        assert s == pytest.approx(link_rate(0.2, 1.0)[1], abs=1e-12)

    def test_mixture_rank_at_most_two(self):
        povm = loss_povm(0.4, 0.3)
        w = np.sort(np.linalg.eigvalsh(eve_mixture(povm, "+")))
        assert np.abs(w[:2]).max() < 1e-12

    def test_plus_minus_mixtures_equal_entropy(self):
        for mu in (0.05, 0.2, 0.7):
            for eta in (1.0, 0.1, 1e-3):
                povm = loss_povm(mu, eta)
                sp = von_neumann_entropy(eve_mixture(povm, "+"))
                sm = von_neumann_entropy(eve_mixture(povm, "-"))
                assert sp == pytest.approx(sm, abs=1e-10)

    def test_holevo_rejects_inconclusive(self):
        povm = loss_povm(0.2, 0.5)
        with pytest.raises(ValidationError):
            holevo(povm, "?")

    def test_holevo_bounded_by_one(self):
        for mu in MU_GRID[::5]:
            for eta in ETA_GRID[::5]:
                assert holevo(loss_povm(mu, eta), "+") <= 1.0 + 1e-12


class TestDevetakWinter:
    """link_rate's fraction max(0, 1 - delta_ec - chi), with chi from the operator pipeline."""

    def test_unit_eta_value(self):
        povm = loss_povm(0.2, 1.0)
        assert 1.0 - holevo(povm, "+") == pytest.approx(0.35423640171586046, abs=1e-12)
        assert link_rate(0.2, 1.0)[2] == pytest.approx(0.35423640171586046, abs=1e-12)

    def test_full_leakage_clamps_to_zero(self):
        assert link_rate(0.2, 1.0, 1.0)[2] == 0.0

    def test_negative_leakage_rejected(self):
        with pytest.raises(ValidationError):
            link_rate(0.2, 1.0, -0.1)


class TestAsymptoticRate:
    def test_symmetric_links_equal_single_link(self):
        assert asymptotic_rate([(0.2, 0.3), (0.2, 0.3)]) == (0, link_rate(0.2, 0.3))
        assert asymptotic_rate([(0.2, 0.3)], 0.05) == (0, link_rate(0.2, 0.3, 0.05))

    def test_unit_eta_reference_value(self):
        assert symmetric_rate(0.2, 1.0) == pytest.approx(0.11678464061018565, abs=1e-12)

    def test_min_semantics(self):
        strong = [(0.2, 1.0), (0.2, 1.0)]
        weak = [(0.2, 1.0), (0.2, 1e-3)]
        assert asymptotic_rate(weak) == (1, link_rate(0.2, 1e-3))
        assert asymptotic_rate(weak)[1][3] < asymptotic_rate(strong)[1][3]

    def test_three_links_report_the_slowest(self):
        links = [(0.2, 0.5), (0.1, 1e-4), (0.3, 1e-2)]
        assert asymptotic_rate(links, 0.02) == (1, link_rate(0.1, 1e-4, 0.02))

    def test_tie_reports_the_first_link(self):
        assert asymptotic_rate([(0.3, 1e-2), (0.3, 1e-2), (0.2, 0.5)]) == (
            0, link_rate(0.3, 1e-2))
        # Different links that both rate 0: chi = 1 leaves no secret fraction.
        assert asymptotic_rate([(0.2, 0.5), (5.0, 1e-3), (7.0, 1e-3)]) == (
            1, link_rate(5.0, 1e-3))

    def test_empty_chain_is_usage_error(self):
        with pytest.raises(UsageError):
            asymptotic_rate([])

    def test_monotone_in_distance(self):
        rates = [
            symmetric_rate(0.2, transmittance_from_distance(l))
            for l in np.linspace(0.0, 300.0, 40)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_non_negative_everywhere(self):
        for mu in MU_GRID[::3]:
            for eta in ETA_GRID[::3]:
                assert symmetric_rate(mu, eta) >= 0.0


class TestLinkRate:
    def test_parts_match_the_closed_forms(self):
        for mu in MU_GRID[::4]:
            for eta in ETA_GRID[::4]:
                sift, chi, fraction, bits = link_rate(mu, eta, 0.05)
                se = math.sqrt(eta)
                overlap = math.exp(-4 * mu * (1 - se) - 2 * mu * se)
                assert sift == pytest.approx(1 - math.exp(-2 * se * mu), rel=1e-12)
                assert chi == pytest.approx(binary_entropy((1 - overlap) / 2), rel=1e-12)
                assert fraction == max(0.0, 1 - 0.05 - chi)
                assert bits == sift * fraction

    def test_two_link_rate_is_the_slower_link(self):
        index, rate = asymptotic_rate([(0.2, 0.5), (0.3, 1e-3)], 0.02)
        assert index == 1
        assert rate[3] == min(link_rate(0.2, 0.5, 0.02)[3], link_rate(0.3, 1e-3, 0.02)[3])
        assert symmetric_rate(0.3, 1e-3, 0.02) == link_rate(0.3, 1e-3, 0.02)[3]

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -0.1])
    def test_bad_intensity_rejected(self, mu):
        with pytest.raises(ValidationError):
            link_rate(mu, 0.5)

    @pytest.mark.parametrize("delta_ec", [float("nan"), float("inf"), -0.1])
    def test_bad_leakage_rejected(self, delta_ec):
        with pytest.raises(ValidationError):
            link_rate(0.2, 0.5, delta_ec)


class TestTransmittance:
    def test_reference_points(self):
        assert transmittance_from_distance(0.0) == 1.0
        assert transmittance_from_distance(100.0) == pytest.approx(0.01, abs=1e-15)
        assert transmittance_from_distance(250.0) == pytest.approx(1e-5, abs=1e-18)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            transmittance_from_distance(-1.0)

    @pytest.mark.parametrize("km", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, km):
        with pytest.raises(ValidationError, match="distance must be finite"):
            transmittance_from_distance(km)

    def test_underflow_is_refused_under_the_distance(self):
        # 16000 km is 1e-320, subnormal but not 0; 16500 km underflows to 0.
        assert 0.0 < transmittance_from_distance(16000.0) < math.ldexp(1.0, -1022)
        with pytest.raises(ValidationError, match=r"^distance 16500\.0 km is too long: "
                                                  "its transmittance underflows to 0$"):
            transmittance_from_distance(16500.0)


class TestOptimizeIntensity:
    def test_long_haul_prefers_smaller_mu(self):
        eta = transmittance_from_distance(250.0)
        mu_star, rate_star = optimize_intensity(eta, [0.2, 0.5])
        assert mu_star == 0.2
        assert rate_star == pytest.approx(symmetric_rate(0.2, eta), abs=1e-15)

    def test_single_point_grid(self):
        mu_star, rate_star = optimize_intensity(0.5, [0.33])
        assert mu_star == 0.33
        assert rate_star == pytest.approx(symmetric_rate(0.33, 0.5), abs=1e-15)

    def test_tie_breaks_toward_smaller_mu(self):
        mu_star, _ = optimize_intensity(0.5, [0.4, 0.4])
        assert mu_star == 0.4

    def test_empty_grid_is_usage_error(self):
        with pytest.raises(UsageError):
            optimize_intensity(0.5, [])

