"""Unit tests for the minimum-error discrimination module."""

import json
import math

import numpy as np
import pytest

from oracles import closed_triple
from twinfield_qka import cli
from twinfield_qka.coherent import correlated_mixture
from twinfield_qka.discrimination import (
    compose_error,
    discriminate,
    helstrom_error,
    qmin_pair_closed,
)
from twinfield_qka.errors import ValidationError
from twinfield_qka.linalg import trace_norm


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
    def test_mu_02(self):
        q = qmin_pair_closed(0.2)
        assert q == pytest.approx(0.4311661205146527, abs=1e-15)
        assert compose_error(q, q) == pytest.approx(0.67642801754964932, abs=1e-15)

    def test_large_mu_asymptote(self):
        assert qmin_pair_closed(50.0) == pytest.approx(0.375, abs=1e-12)

    def test_negative_mu_rejected(self):
        for fn in (qmin_pair_closed, discriminate):
            with pytest.raises(ValidationError):
                fn(-0.01)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [qmin_pair_closed, discriminate])
    def test_non_finite_mu_rejected(self, fn, mu):
        with pytest.raises(ValidationError, match="must be finite"):
            fn(mu)

    @pytest.mark.parametrize("block", [slice(0, 2), slice(2, 4)], ids=["e0e0-e1e1", "e0e1-e1e0"])
    def test_pair_closed_form_is_helstrom_on_half_trace_mixtures_differing_in_one_block(
        self, block
    ):
        # Take both mixtures at trace 1/2 and give the anti-correlated one the
        # correlated one's block; the Helstrom formula on that pair is the
        # closed form.  (helstrom_error itself accepts only trace-1 states.)
        deviations = []
        for mu in np.linspace(1e-3, 5.0, 400):
            rho1 = 0.5 * correlated_mixture(+1, mu)
            rho0 = 0.5 * correlated_mixture(-1, mu)
            rho0[block, block] = rho1[block, block]
            q = 0.5 * (1.0 - 0.5 * trace_norm(rho1 - rho0))
            deviations.append(abs(q - (3.0 + math.exp(-4.0 * mu)) / 8.0))
        assert np.max(deviations) < 1e-12  # np.max keeps a NaN, where max(0.0, nan) drops it


class TestComposeError:
    def test_node_mode(self):
        assert compose_error(0.5, 0.5) == pytest.approx(0.75)

    def test_node_mode_reproduces_triple(self):
        for mu in np.linspace(0.0, 2.0, 201):
            q = qmin_pair_closed(mu)
            assert compose_error(q, q) == pytest.approx(closed_triple(mu), abs=1e-15)

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

    def test_triple_field_consistency(self, capsys):
        # Both triple columns of `discriminate` compose the pair columns.
        assert cli.dispatch(["discriminate", "--mu", "0.35", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        res = discriminate(0.35)
        assert row["q_helstrom_pair"] == res.q_helstrom
        assert row["q_pair_closed"] == res.q_closed_pair
        assert row["q_helstrom_triple"] == compose_error(res.q_helstrom, res.q_helstrom)
        assert row["q_triple_closed"] == compose_error(res.q_closed_pair, res.q_closed_pair)
        assert row["q_triple_closed"] == pytest.approx(
            1 - (1 - res.q_closed_pair) ** 2, abs=1e-15
        )
