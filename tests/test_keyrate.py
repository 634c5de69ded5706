"""Unit tests for the POVM / Holevo / asymptotic-rate module."""

import math

import numpy as np
import pytest

from twinfield_qka.coherent import basis_coeffs, signal_vector
from twinfield_qka.errors import ImpossibleBranchError, UsageError, ValidationError
from twinfield_qka.keyrate import (
    ChannelParams,
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
from twinfield_qka.linalg import von_neumann_entropy

MU_GRID = np.linspace(0.01, 1.0, 20)
ETA_GRID = np.logspace(-5, 0, 20)
SIGN_PAIRS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


class TestLossPovm:
    def test_completeness_on_grid(self):
        for mu in MU_GRID:
            for eta in ETA_GRID:
                povm = loss_povm(mu, eta)
                total = povm.f_plus + povm.f_minus + povm.f_inconclusive
                assert np.abs(total - np.eye(4)).max() < 1e-10

    def test_elements_psd_on_grid(self):
        for mu in MU_GRID:
            for eta in ETA_GRID:
                povm = loss_povm(mu, eta)
                for f in (povm.f_plus, povm.f_minus, povm.f_inconclusive):
                    assert np.linalg.eigvalsh(f).min() > -1e-10

    def test_inconclusive_top_entry_at_unit_eta(self):
        povm = loss_povm(0.2, 1.0)
        c = basis_coeffs(0.2)
        expected = povm.xi**2 * (1 + povm.omega) ** 2 / (4 * c.c0**4)
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

    def test_closed_forms_on_grid(self):
        for mu in MU_GRID[::4]:
            for eta in ETA_GRID[::4]:
                povm = loss_povm(mu, eta)
                p_inc = math.exp(-2 * math.sqrt(eta) * mu)
                for sa, sb in SIGN_PAIRS:
                    probs = announcement_probability(povm, sa, sb)
                    conclusive = "+" if sa == sb else "-"
                    silent = "-" if sa == sb else "+"
                    assert probs[conclusive] == pytest.approx(1 - p_inc, abs=1e-10)
                    assert probs[silent] == pytest.approx(0.0, abs=1e-10)
                    assert probs["?"] == pytest.approx(p_inc, abs=1e-10)
                    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

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
        assert s == pytest.approx(holevo_closed(0.2, 1.0), abs=1e-12)

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
    def test_unit_eta_value(self):
        povm = loss_povm(0.2, 1.0)
        assert devetak_winter_rate(povm, "+", 0.0) == pytest.approx(
            0.35423640171586046, abs=1e-12
        )

    def test_full_leakage_clamps_to_zero(self):
        povm = loss_povm(0.2, 1.0)
        assert devetak_winter_rate(povm, "+", 1.0) == 0.0

    def test_negative_leakage_rejected(self):
        povm = loss_povm(0.2, 1.0)
        with pytest.raises(ValidationError):
            devetak_winter_rate(povm, "+", -0.1)

    def test_closed_form_equals_operator_pipeline(self):
        # Independent route: POVM -> PSD sqrt -> conditional states ->
        # eigenvalues -> entropy, vs the analytic expression.
        for mu in MU_GRID[::2]:
            for eta in ETA_GRID[::2]:
                povm = loss_povm(mu, eta)
                direct = devetak_winter_rate(povm, "+", 0.0)
                assert direct == pytest.approx(dw_rate_closed(mu, eta), abs=1e-9)


class TestAsymptoticRate:
    def test_symmetric_links_equal_single_link(self):
        res = asymptotic_rate(ChannelParams(0.2, 0.2, 0.3, 0.3))
        assert res.r_infinity == pytest.approx(res.sift_ab * res.rate_ab, abs=1e-15)

    def test_unit_eta_reference_value(self):
        assert symmetric_rate(0.2, 1.0) == pytest.approx(0.11678464061018565, abs=1e-12)

    def test_min_semantics(self):
        strong = ChannelParams(0.2, 0.2, 1.0, 1.0)
        weak = ChannelParams(0.2, 0.2, 1.0, 1e-3)
        r_weak_link = sift_probability(0.2, 1e-3) * dw_rate_closed(0.2, 1e-3)
        assert asymptotic_rate(weak).r_infinity == pytest.approx(r_weak_link, abs=1e-15)
        assert asymptotic_rate(weak).r_infinity < asymptotic_rate(strong).r_infinity

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

    def test_sqrt_eta_scaling(self):
        etas = np.logspace(-4, -2, 25)
        rates = [symmetric_rate(0.01, eta) for eta in etas]
        slope = np.polyfit(np.log10(etas), np.log10(rates), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)


class TestLinkRate:
    def test_parts_match_the_closed_forms(self):
        for mu in MU_GRID[::4]:
            for eta in ETA_GRID[::4]:
                sift, chi, fraction, bits = link_rate(mu, eta, 0.05)
                assert sift == sift_probability(mu, eta)
                assert chi == holevo_closed(mu, eta)
                assert fraction == dw_rate_closed(mu, eta, 0.05)
                assert bits == sift * fraction

    def test_two_link_rate_is_the_slower_link(self):
        res = asymptotic_rate(ChannelParams(0.2, 0.3, 0.5, 1e-3), 0.02)
        assert res.r_infinity == min(link_rate(0.2, 0.5, 0.02)[3], link_rate(0.3, 1e-3, 0.02)[3])
        assert symmetric_rate(0.3, 1e-3, 0.02) == link_rate(0.3, 1e-3, 0.02)[3]

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -0.1])
    def test_bad_intensity_rejected(self, mu):
        for fn in (sift_probability, holevo_closed, link_rate):
            with pytest.raises(ValidationError):
                fn(mu, 0.5)

    @pytest.mark.parametrize("delta_ec", [float("nan"), float("inf"), -0.1])
    def test_bad_leakage_rejected(self, delta_ec):
        with pytest.raises(ValidationError):
            link_rate(0.2, 0.5, delta_ec)
        with pytest.raises(ValidationError):
            devetak_winter_rate(loss_povm(0.2, 0.5), "+", delta_ec)


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


class TestChannelParams:
    def test_from_link_distances(self):
        params = ChannelParams.from_link_distances(0.2, 0.3, 100.0, 50.0)
        assert params.eta1 == pytest.approx(0.01, abs=1e-15)
        assert params.eta2 == pytest.approx(0.1, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ChannelParams(-0.1, 0.2, 0.5, 0.5)
        with pytest.raises(ValidationError):
            ChannelParams(0.1, 0.2, 0.0, 0.5)

    @pytest.mark.parametrize("mus", [(float("nan"), 0.2), (0.2, float("nan")),
                                     (float("inf"), 0.2), (0.2, float("inf"))])
    def test_non_finite_intensity_rejected(self, mus):
        with pytest.raises(ValidationError, match="must be finite"):
            ChannelParams(*mus, 0.5, 0.5)
