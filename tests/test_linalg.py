"""Unit tests for the 4x4 operator toolbox."""

import math

import numpy as np
import pytest

from twinfield_qka.discrimination import helstrom_error
from twinfield_qka.errors import ValidationError
from twinfield_qka.linalg import (
    binary_entropy,
    check_density,
    outer,
    psd_sqrt,
    trace_norm,
    von_neumann_entropy,
)


def _signal(sa, sb, mu):
    """Independent construction of the joint two-pulse vector from scratch."""
    c0 = math.exp(-mu / 2) * math.sqrt(math.cosh(mu))
    c1 = math.exp(-mu / 2) * math.sqrt(math.sinh(mu))
    return np.array([c0 * c0, sa * sb * c1 * c1, sb * c0 * c1, sa * c0 * c1])


def _mixture(parity, mu):
    pairs = [(1, 1), (-1, -1)] if parity > 0 else [(1, -1), (-1, 1)]
    rho = np.zeros((4, 4))
    for sa, sb in pairs:
        v = _signal(sa, sb, mu)
        rho += 0.5 * np.outer(v, v)
    return rho


class TestEigenvalues:
    """The spectrum as trace_norm and von_neumann_entropy see it (check_hermitian + eigvalsh)."""

    def test_identity_spectrum(self):
        assert trace_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-14)
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-14)

    def test_diagonal_matrix(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0])
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-14)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-14)

    def test_half_mixture_difference(self):
        # Spectrum of 1/2 (rho_minus - rho_plus) at mu = 0.2 is {+-c0^2 c1^2},
        # each twice, with c0^2 c1^2 = (1 - e^-0.8)/4: traceless, trace norm 4 c0^2 c1^2.
        d = 0.5 * (_mixture(-1, 0.2) - _mixture(+1, 0.2))
        c02c12 = 0.13766775897069461
        assert abs(np.trace(d)) < 1e-15
        assert trace_norm(d) == pytest.approx(4 * c02c12, abs=1e-12)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert trace_norm(rho) == pytest.approx(1.0, abs=1e-10)
            assert 0.0 <= von_neumann_entropy(rho) <= 2.0

    def test_non_hermitian_rejected_with_entry_pair(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 2] = 0.3
        for fn in (trace_norm, von_neumann_entropy):
            with pytest.raises(ValidationError, match=r"\(0,2\)"):
                fn(bad)


class TestNonFiniteEntries:
    """A NaN passes every tolerance comparison, so it has to be rejected by name."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("fn", [
        trace_norm,
        von_neumann_entropy,
        check_density,
        lambda rho: helstrom_error(rho, np.eye(2) / 2),
        lambda rho: helstrom_error(np.eye(2) / 2, rho),
    ], ids=["trace_norm", "von_neumann_entropy", "check_density", "helstrom_first",
            "helstrom_second"])
    def test_rejected(self, fn, value):
        rho = np.array([[value, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValidationError, match="must be finite"):
            fn(rho)


class TestTraceNorm:
    def test_signed_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert trace_norm(np.zeros((4, 4))) == 0.0

    def test_half_mixture_difference(self):
        d = 0.5 * (_mixture(-1, 0.2) - _mixture(+1, 0.2))
        assert trace_norm(d) == pytest.approx(0.55067103588277844, abs=1e-12)
        assert trace_norm(d) == pytest.approx(1 - math.exp(-0.8), abs=1e-12)

    def test_dominates_trace_with_equality_for_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            assert trace_norm(h) >= abs(np.trace(h).real) - 1e-10
            psd = a @ a.conj().T
            assert trace_norm(psd) == pytest.approx(np.trace(psd).real, abs=1e-9)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rank_two(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5, 0, 0])) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)

    def test_trace_validation(self):
        with pytest.raises(ValidationError, match="trace"):
            von_neumann_entropy(np.diag([0.5, 0.2, 0, 0]))

    def test_permutation_invariance(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        base = von_neumann_entropy(np.diag(probs))
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = rng.permutation(4)
            assert von_neumann_entropy(np.diag(probs[perm])) == pytest.approx(base, abs=1e-12)

    def test_tiny_negative_eigenvalues_absorbed(self):
        rho = np.diag([1.0, -1e-14, 1e-14, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_known_value(self):
        assert binary_entropy(0.164840) == pytest.approx(0.64576365216854159, abs=1e-15)

    def test_symmetry(self):
        for z in np.linspace(0.0, 1.0, 21):
            assert binary_entropy(z) == pytest.approx(binary_entropy(1 - z), abs=1e-12)

    def test_domain_error(self):
        for z in (-0.1, 1.1):
            with pytest.raises(ValidationError):
                binary_entropy(z)

    def test_matches_diagonal_density_entropy(self):
        for z in np.linspace(0.0, 1.0, 100):
            rho = np.diag([z, 1 - z, 0.0, 0.0])
            assert binary_entropy(z) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


class TestOuter:
    def test_basis_projectors(self):
        np.testing.assert_allclose(outer([1, 0, 0, 0]), np.diag([1, 0, 0, 0]))
        np.testing.assert_allclose(outer([0, 1, 0, 0]), np.diag([0, 1, 0, 0]))

    def test_signal_top_entry(self):
        p = outer(_signal(1, 1, 0.2))
        assert p[0, 0].real == pytest.approx(0.69749226404712505, abs=1e-15)

    def test_rank_one_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            norm2 = np.vdot(v, v).real
            assert trace_norm(outer(v)) == pytest.approx(norm2, rel=1e-12)
            assert von_neumann_entropy(outer(v) / norm2) == pytest.approx(0.0, abs=1e-10)


class TestPsdSqrt:
    def test_squares_back(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            psd = a @ a.conj().T
            s = psd_sqrt(psd)
            np.testing.assert_allclose(s @ s, psd, atol=1e-10)
            assert np.linalg.eigvalsh(s).min() > -1e-12

    def test_density_check_accepts_mixtures(self):
        check_density(_mixture(+1, 0.3))
        check_density(_mixture(-1, 0.3))
