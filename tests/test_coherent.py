"""Unit tests for the coherent-state encoding layer."""

import math

import numpy as np
import pytest

from twinfield_qka.coherent import basis_coeffs, correlated_mixture, signal_vector
from twinfield_qka.errors import ValidationError

MU_GRID = np.arange(0.05, 1.0001, 0.05)


class TestBasisCoeffs:
    def test_vacuum(self):
        assert basis_coeffs(0.0) == (1.0, 0.0)

    def test_known_intensity(self):
        c0, c1 = basis_coeffs(0.2)
        assert c0**2 == pytest.approx(0.83516002301781966, abs=1e-15)
        assert c1**2 == pytest.approx(0.16483997698218036, abs=1e-15)

    def test_normalization_identity(self):
        for mu in np.linspace(0.0, 5.0, 60):
            c0, c1 = basis_coeffs(mu)
            assert c0**2 + c1**2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_defining_formulas(self):
        for mu in MU_GRID:
            c0, c1 = basis_coeffs(mu)
            assert c0 == pytest.approx(math.exp(-mu / 2) * math.sqrt(math.cosh(mu)), abs=1e-14)
            assert c1 == pytest.approx(math.exp(-mu / 2) * math.sqrt(math.sinh(mu)), abs=1e-14)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError):
            basis_coeffs(-0.1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [
        basis_coeffs,
        lambda mu: signal_vector(+1, -1, mu),
        lambda mu: correlated_mixture(+1, mu),
    ], ids=["basis_coeffs", "signal_vector", "correlated_mixture"])
    def test_non_finite_intensity_rejected(self, fn, mu):
        with pytest.raises(ValidationError, match="must be finite"):
            fn(mu)


class TestSignalVector:
    def test_plus_plus_components(self):
        v = signal_vector(+1, +1, 0.2)
        np.testing.assert_allclose(
            v.real,
            [0.83516002301781966, 0.16483997698218036,
             0.37103606155021457, 0.37103606155021457],
            atol=1e-14,
        )

    def test_minus_minus_mirrors_plus_plus(self):
        for mu in MU_GRID:
            vpp = signal_vector(+1, +1, mu)
            vmm = signal_vector(-1, -1, mu)
            np.testing.assert_allclose(vmm[:2], vpp[:2], atol=1e-14)
            np.testing.assert_allclose(vmm[2:], -vpp[2:], atol=1e-14)

    def test_vacuum_is_sign_blind(self):
        for sa in (+1, -1):
            for sb in (+1, -1):
                np.testing.assert_allclose(signal_vector(sa, sb, 0.0), [1, 0, 0, 0], atol=1e-15)

    def test_unit_norm(self):
        for mu in MU_GRID:
            for sa in (+1, -1):
                for sb in (+1, -1):
                    v = signal_vector(sa, sb, mu)
                    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_string_signs_rejected(self):
        for sign in ("+", "-", 0, 2):
            with pytest.raises(ValidationError, match="phase sign must be"):
                signal_vector(sign, +1, 0.3)

    def test_pairwise_non_orthogonality(self):
        pairs = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
        for mu in MU_GRID:
            vecs = [signal_vector(sa, sb, mu) for sa, sb in pairs]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(np.vdot(vecs[i], vecs[j])) > 1e-6


class TestCorrelatedMixture:
    def test_vacuum_mixture(self):
        np.testing.assert_allclose(correlated_mixture(+1, 0.0), np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_diagonal_at_mu_02(self):
        rho = correlated_mixture(+1, 0.2)
        c04 = 0.69749226404712505
        c14 = 0.16483997698218036**2
        c02c12 = 0.13766775897069461
        np.testing.assert_allclose(np.diag(rho).real, [c04, c14, c02c12, c02c12], atol=1e-14)

    def test_block_diagonal_structure(self):
        for parity in (+1, -1):
            rho = correlated_mixture(parity, 0.4)
            np.testing.assert_allclose(rho[:2, 2:], 0.0, atol=1e-14)
            np.testing.assert_allclose(rho[2:, :2], 0.0, atol=1e-14)

    def test_parities_differ_only_off_diagonal(self):
        # rho_plus - rho_minus has zero diagonal and off-diagonal entries
        # +-2 c0^2 c1^2 inside the two blocks.
        for mu in MU_GRID:
            c0, c1 = basis_coeffs(mu)
            gap = 2 * c0**2 * c1**2
            d = correlated_mixture(+1, mu) - correlated_mixture(-1, mu)
            np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-14)
            assert d[0, 1].real == pytest.approx(gap, abs=1e-13)
            assert d[2, 3].real == pytest.approx(gap, abs=1e-13)

    def test_trace_one_and_psd(self):
        for parity in (+1, -1):
            for mu in MU_GRID:
                rho = correlated_mixture(parity, mu)
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_identical_diagonals_between_parities(self):
        for mu in MU_GRID:
            dp = np.diag(correlated_mixture(+1, mu))
            dm = np.diag(correlated_mixture(-1, mu))
            np.testing.assert_allclose(dp, dm, atol=1e-14)
