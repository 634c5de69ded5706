"""Unit tests for the minimum-error discrimination module."""

import math

import numpy as np
import pytest

from twinfield_qka.coherent import correlated_mixture
from twinfield_qka.discrimination import (
    compose_error,
    discriminate,
    helstrom_error,
    qmin_pair_closed,
    qmin_pair_closed_hyperbolic,
    qmin_triple_closed,
    qmin_triple_closed_expanded,
)
from twinfield_qka.errors import ValidationError


class TestHelstromError:
    def test_indistinguishable_states(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0])
        assert helstrom_error(rho, rho) == pytest.approx(0.5)

    def test_orthogonal_pure_states(self):
        q = helstrom_error(np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0]))
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_correlated_mixtures_value(self):
        q = helstrom_error(correlated_mixture(+1, 0.2), correlated_mixture(-1, 0.2))
        assert q == pytest.approx(0.22466448205861078, abs=1e-12)
        assert q == pytest.approx(0.5 * math.exp(-0.8), abs=1e-12)

    def test_non_density_rejected(self):
        with pytest.raises(ValidationError):
            helstrom_error(np.diag([2.0, 0, 0, 0]), np.diag([1.0, 0, 0, 0]))

    def test_symmetric_in_arguments(self):
        a = correlated_mixture(+1, 0.3)
        b = correlated_mixture(-1, 0.3)
        assert helstrom_error(a, b) == pytest.approx(helstrom_error(b, a), abs=1e-14)

    def test_invariant_under_basis_permutation(self):
        a = correlated_mixture(+1, 0.3)
        b = correlated_mixture(-1, 0.3)
        base = helstrom_error(a, b)
        rng = np.random.default_rng(4)
        for _ in range(6):
            p = np.eye(4)[rng.permutation(4)]
            assert helstrom_error(p @ a @ p.T, p @ b @ p.T) == pytest.approx(base, abs=1e-12)

    def test_monotone_in_intensity(self):
        mus = np.linspace(0.01, 2.0, 120)
        values = [
            helstrom_error(correlated_mixture(+1, mu), correlated_mixture(-1, mu))
            for mu in mus
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestClosedForms:
    def test_vacuum_values(self):
        assert qmin_pair_closed(0.0) == 0.5
        assert qmin_triple_closed(0.0) == 0.75

    def test_mu_02(self):
        assert qmin_pair_closed(0.2) == pytest.approx(0.4311661205146527, abs=1e-15)
        assert qmin_triple_closed(0.2) == pytest.approx(0.67642801754964932, abs=1e-15)

    def test_large_mu_asymptote(self):
        assert qmin_pair_closed(50.0) == pytest.approx(0.375, abs=1e-12)

    def test_negative_mu_rejected(self):
        for fn in (qmin_pair_closed, qmin_triple_closed,
                   qmin_pair_closed_hyperbolic, qmin_triple_closed_expanded):
            with pytest.raises(ValidationError):
                fn(-0.01)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [qmin_pair_closed, qmin_triple_closed,
                                    qmin_pair_closed_hyperbolic, qmin_triple_closed_expanded,
                                    discriminate])
    def test_non_finite_mu_rejected(self, fn, mu):
        with pytest.raises(ValidationError, match="must be finite"):
            fn(mu)

    def test_printed_forms_agree(self):
        for mu in np.linspace(0.002, 2.0, 500):
            assert qmin_pair_closed(mu) == pytest.approx(
                qmin_pair_closed_hyperbolic(mu), abs=1e-12
            )
            assert qmin_triple_closed(mu) == pytest.approx(
                qmin_triple_closed_expanded(mu), abs=1e-12
            )

    def test_triple_exceeds_pair(self):
        for mu in np.linspace(0.001, 1.0, 1000):
            assert qmin_triple_closed(mu) > qmin_pair_closed(mu)


class TestComposeError:
    def test_node_mode(self):
        assert compose_error(0.5, 0.5) == pytest.approx(0.75)

    def test_node_mode_reproduces_triple(self):
        q = qmin_pair_closed(0.2)
        assert compose_error(q, q) == pytest.approx(
            qmin_triple_closed(0.2), abs=1e-15
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            compose_error(1.2, 0.1)
        with pytest.raises(ValidationError):
            compose_error(0.1, -0.2)


class TestDiscriminate:
    def test_exposes_both_routes(self):
        res = discriminate(0.2)
        assert res.q_helstrom == pytest.approx(0.5 * math.exp(-0.8), abs=1e-12)
        assert res.q_closed_pair == pytest.approx((math.exp(-0.8) + 3) / 8, abs=1e-15)
        # The two routes genuinely differ for these mixtures; both stay visible.
        assert abs(res.q_helstrom - res.q_closed_pair) > 0.1

    def test_triple_field_consistency(self):
        res = discriminate(0.35)
        assert res.q_closed_triple == pytest.approx(
            1 - (1 - res.q_closed_pair) ** 2, abs=1e-15
        )
