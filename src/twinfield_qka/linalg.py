"""Dense complex linear algebra on the 4-dimensional two-mode subspace.

Everything here operates on plain numpy arrays: length-4 complex vectors
(mode vectors, basis order {e0e0, e1e1, e0e1, e1e0}) and 4x4 complex
hermitian matrices.  The functions accept any square hermitian matrix, but
the package never needs more than dimension 4, so correctness beats speed
throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import PROBABILITY, ValidationError, check

HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10
ENTROPY_EIGENVALUE_CLAMP = 1e-12


def check_hermitian(op) -> np.ndarray:
    """Return op as a complex array, raising on a non-finite entry or broken hermiticity."""
    h = np.asarray(op, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"operator must be a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():  # NaN would pass the tolerance test below
        raise ValidationError("operator entries must be finite")
    dev = np.abs(h - h.conj().T)
    if dev.max() > HERMITICITY_TOL:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise ValidationError(
            f"matrix is not hermitian: entries ({i},{j}) and ({j},{i}) "
            f"differ by {dev[i, j]:.3e} (> {HERMITICITY_TOL:.1e})"
        )
    return h


def check_density(rho) -> np.ndarray:
    """Validate the density-operator invariants: hermitian, PSD, trace 1."""
    h = check_psd(rho)
    tr = np.trace(h).real
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValidationError(f"density operator must have trace 1, got {tr!r}")
    return h


def check_psd(op) -> np.ndarray:
    """Validate a measurement-element style operator: hermitian and PSD."""
    h = check_hermitian(op)
    w = np.linalg.eigvalsh(h)
    if w.min() < PSD_EIGENVALUE_FLOOR:
        raise ValidationError(f"operator has negative eigenvalue {w.min():.3e}")
    return h


def trace_norm(op) -> float:
    """Trace norm |A|_1; for hermitian A this is the sum of |eigenvalues|."""
    h = check_hermitian(op)
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr(rho log2 rho) in bits; eigenvalues <= 1e-12 contribute 0."""
    h = check_density(rho)
    w = np.linalg.eigvalsh(h)
    w = w[w > ENTROPY_EIGENVALUE_CLAMP]
    return float(-(w * np.log2(w)).sum())


def binary_entropy(z: float) -> float:
    """Binary Shannon entropy h(z) = -z log2 z - (1-z) log2(1-z), in bits."""
    check("binary_entropy argument", z, PROBABILITY)
    out = 0.0
    for p in (z, 1.0 - z):
        if p > 0.0:
            out -= p * np.log2(p)
    return float(out)


def outer(v) -> np.ndarray:
    """Rank-1 projector-style outer product |v><v|."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(a, a.conj())


def psd_sqrt(op) -> np.ndarray:
    """Unique PSD square root of a PSD hermitian operator, via diagonalization."""
    h = check_psd(op)
    w, vecs = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (vecs * np.sqrt(w)) @ vecs.conj().T
