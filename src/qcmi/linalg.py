"""Spectral operations on complex Hermitian matrices.

Every matrix function in the package goes through one eigendecomposition
routine so that support handling (pseudo-inverses, logs of singular
operators) stays consistent. Matrix 2-norms are Frobenius norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

# Relative Hermiticity tolerance used everywhere a Hermitian input is required.
HERMITIAN_RTOL = 1e-8
# Eigenvalues below support_cutoff() are treated as exact zeros.
SUPPORT_RTOL = 1e-10
SUPPORT_FLOOR = 1e-14


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square, C-ordered complex128 array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2.0


def require_hermitian(m, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Return the symmetrized copy of m, raising if it is not Hermitian.

    The deviation ||m - m^dag||_2 is compared against rtol * max(1, ||m||_2).
    """
    a = as_matrix(m)
    dev = hs_norm(a - dagger(a))
    if dev > rtol * max(1.0, hs_norm(a)):
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    return hermitian_part(a)


def support_cutoff(eigenvalues: np.ndarray) -> float:
    """Threshold below which eigenvalues count as kernel, not support."""
    lam_max = float(np.max(eigenvalues)) if np.size(eigenvalues) else 0.0
    return max(SUPPORT_RTOL * max(lam_max, 0.0), SUPPORT_FLOOR)


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigendecomposition with ascending eigenvalues.

    eig_hermitian fixes the eigenvector phases. Matrix functions skip
    that step, because Q f(w) Q^dag does not depend on the phases.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Q diag(f) Q^dag for values f on the eigenvalues."""
        q = self.eigenvectors
        return (q * f) @ dagger(q)


@dataclass(frozen=True, eq=False)
class PsdEigen(HermitianEigen):
    """Eigendecomposition of a PSD matrix and its support cutoff.

    One decomposition serves every support-restricted function of the
    matrix: eigenvalues at or below the cutoff count as kernel.
    """

    cutoff: float

    @property
    def on_support(self) -> np.ndarray:
        return self.eigenvalues > self.cutoff

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.on_support))

    def _on_support(self, f) -> np.ndarray:
        # f applied to the support eigenvalues, 0 on the kernel.
        on = self.on_support
        return np.where(on, f(np.where(on, self.eigenvalues, 1.0)), 0.0)

    def log(self) -> np.ndarray:
        return hermitian_part(self.apply(self._on_support(np.log)))

    def sqrt(self) -> np.ndarray:
        return hermitian_part(self.apply(self._on_support(np.sqrt)))

    def power(self, t: float) -> np.ndarray:
        return hermitian_part(self.apply(self._on_support(lambda w: np.power(w, t))))

    def cpower(self, t: float) -> np.ndarray:
        return self.apply(self._on_support(lambda w: np.exp(1j * t * np.log(w))))

    def projector(self) -> np.ndarray:
        cols = self.eigenvectors[:, self.on_support]
        return hermitian_part(cols @ dagger(cols))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a density matrix in both sort orders."""

    ascending: np.ndarray
    descending: np.ndarray


def _fix_phases(q: np.ndarray) -> np.ndarray:
    # Rephase each column so its first non-negligible component is real
    # and positive. This pins the eigenvector matrix for a fixed input.
    big = np.abs(q) > 1e-12
    first = np.argmax(big, axis=0)
    cols = np.arange(q.shape[1])
    pivot = q[first, cols]
    found = big[first, cols]
    scale = np.where(found, pivot.conj() / np.where(found, np.abs(pivot), 1.0), 1.0)
    return q * scale


def _eigh(m) -> HermitianEigen:
    # Eigendecomposition with the phases LAPACK returns, which is enough
    # for any function of the matrix.
    h = require_hermitian(m)
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return HermitianEigen(eigenvalues=w, eigenvectors=q)


def eig_hermitian(m) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are returned in ascending order. Eigenvector phases are
    fixed deterministically so repeated calls on the same input agree
    bitwise.
    """
    e = _eigh(m)
    return HermitianEigen(eigenvalues=e.eigenvalues, eigenvectors=_fix_phases(e.eigenvectors))


def as_psd(e: HermitianEigen, what: str) -> PsdEigen:
    """Attach the support cutoff, raising if e has a genuinely negative eigenvalue."""
    w = e.eigenvalues
    tau = support_cutoff(w)
    if w[0] < -tau:
        raise NotPSDError(f"{what} requires a PSD input, found eigenvalue {w[0]:.3e}")
    return PsdEigen(eigenvalues=w, eigenvectors=e.eigenvectors, cutoff=tau)


def psd_eig(m, what: str) -> PsdEigen:
    """One eigendecomposition of a PSD matrix; what names the caller in errors."""
    return as_psd(_eigh(m), what)


def mat_exp(m) -> np.ndarray:
    """exp(m) for Hermitian m."""
    e = _eigh(m)
    return hermitian_part(e.apply(np.exp(e.eigenvalues)))


def mat_log(m) -> np.ndarray:
    """Support-restricted logarithm of a PSD matrix.

    Kernel eigenvalues map to 0, so exp(mat_log(rho)) reproduces rho on its
    support and acts as the identity times zero on the kernel.
    """
    return psd_eig(m, "log").log()


def mat_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD matrix (kernel stays kernel)."""
    return psd_eig(m, "sqrt").sqrt()


def mat_power(m, t: float) -> np.ndarray:
    """Support-restricted real power of a PSD matrix.

    Negative exponents invert on the support only, so mat_power(rho, -0.5)
    is the pseudo-inverse square root.
    """
    return psd_eig(m, "power").power(t)


def mat_cpower(m, t: float) -> np.ndarray:
    """m**(it) for PSD m: unitary on the support, zero on the kernel."""
    return psd_eig(m, "cpower").cpower(t)


def mat_abs(m) -> np.ndarray:
    """Operator absolute value |m| of a Hermitian matrix."""
    e = _eigh(m)
    return hermitian_part(e.apply(np.abs(e.eigenvalues)))


def support_projector(m) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    return psd_eig(m, "support projector").projector()


def support_rank(m) -> int:
    """Number of eigenvalues above the support cutoff."""
    return psd_eig(m, "support rank").rank


def trace_norm(m) -> float:
    """Schatten 1-norm of a Hermitian matrix (sum of |eigenvalues|)."""
    h = require_hermitian(m)
    w = np.linalg.eigvalsh(h)
    return float(np.sum(np.abs(w)))


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a."""
    x = as_matrix(a)
    y = as_matrix(b)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"commutator of shapes {x.shape} and {y.shape}")
    return x @ y - y @ x
