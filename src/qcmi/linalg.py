"""Spectral operations on complex Hermitian matrices.

Every matrix function in the package goes through one eigendecomposition
routine so that support handling (pseudo-inverses, logs of singular
operators) stays consistent, and one PSD rule (_with_cutoff) decides
which matrices are negative. No other module calls numpy.linalg: every
eigh, eigvalsh and qr of the package is made here. Matrix 2-norms are
Frobenius norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
)
from .tolerances import HERMITIAN_RTOL, SUPPORT_FLOOR, SUPPORT_RTOL


def _scalar(x):
    # A 0-d result unwrapped to a Python number; results for stacks stay arrays.
    return x.item() if x.ndim == 0 else x


def as_matrices(m) -> np.ndarray:
    """Coerce input to C-ordered complex128 square matrices, shape (..., n, n).

    Leading axes index a stack of matrices.
    """
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected square matrices, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square, C-ordered complex128 array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def hs_norm(m):
    """Hilbert-Schmidt (Frobenius) norm; an array of norms for a stack."""
    a = np.asarray(m)
    if a.ndim == 2:
        return float(np.linalg.norm(a))
    # numpy.linalg.norm's reduction for each matrix of the stack: the dot
    # of the entries with themselves, for complex input the dot of the real
    # parts plus the dot of the imaginary parts. matmul makes that same BLAS
    # dot call per matrix, so every norm is bitwise its matrix's norm alone.
    stack = a.shape[:-2]
    if np.iscomplexobj(a):
        v = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
        v = v.reshape(stack + (1, -1, 2))
        re, im = v[..., 0], v[..., 1]
        sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    else:
        v = np.ascontiguousarray(a, dtype=np.float64).reshape(stack + (1, -1))
        sq = v @ v.swapaxes(-1, -2)
    return np.sqrt(sq.reshape(stack))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2.0


def _first(values, failed) -> float:
    # The value of the first matrix of a stack that failed a check.
    return float(np.asarray(values)[failed][0])


def _require_finite(a: np.ndarray, what: str) -> None:
    # Raise NotFiniteError naming the first NaN or infinite entry of a.
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        index = tuple(int(i) for i in bad[0])
        where = index[0] if len(index) == 1 else index
        raise NotFiniteError(f"{what} entry {where} is {a[index].item()}")


def require_hermitian(m) -> np.ndarray:
    """Return the symmetrized copy of m, raising if it is not Hermitian.

    The deviation ||m - m^dag||_2 is compared against
    HERMITIAN_RTOL * max(1, ||m||_2).
    For a stack each matrix is checked on its own, and the first one that
    fails raises. A NaN or infinite entry makes the deviation NaN or
    infinite, which fails the comparisons, and raises NotFiniteError.
    """
    a = as_matrices(m)
    rtol = HERMITIAN_RTOL
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which raises below
        dev = hs_norm(a - dagger(a))
    if a.ndim == 2:  # one matrix, without the fixed cost of the stack form
        failed = not dev <= rtol and (not math.isfinite(dev) or dev > rtol * hs_norm(a))
        found = dev if failed else None
    else:
        failed = ~(dev <= rtol)
        if failed.any():  # only then are the norms of a needed
            failed &= ~np.isfinite(dev) | (dev > rtol * hs_norm(a))
        found = _first(dev, failed) if failed.any() else None
    if found is not None:
        _require_finite(a, "matrix")
        raise NotHermitianError(f"matrix deviates from Hermitian by {found:.3e}")
    return hermitian_part(a)


def support_cutoff(eigenvalues):
    """Threshold below which eigenvalues count as kernel, not support.

    eigenvalues has shape (..., n); a stack gets one threshold per matrix.
    """
    w = np.asarray(eigenvalues)
    lam_max = w.max(axis=-1, initial=0.0)
    if w.ndim == 1:  # one matrix, without the fixed cost of the stack form
        return max(SUPPORT_RTOL * float(lam_max), SUPPORT_FLOOR)
    return np.maximum(SUPPORT_RTOL * lam_max, SUPPORT_FLOOR)


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigendecomposition with ascending eigenvalues.

    The eigenvector phases are the ones LAPACK returns: Q f(w) Q^dag does
    not depend on them. For a stack, eigenvalues has shape (..., n) and
    eigenvectors (..., n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Q diag(f) Q^dag for values f on the eigenvalues."""
        q = self.eigenvectors
        return (q * f[..., None, :]) @ dagger(q)


@dataclass(frozen=True, eq=False)
class PsdEigen(HermitianEigen):
    """Eigendecomposition of a PSD matrix and its support cutoff.

    One decomposition serves every support-restricted function of the
    matrix: eigenvalues at or below the cutoff count as kernel. A stack
    has one cutoff per matrix.
    """

    cutoff: float | np.ndarray

    @property
    def on_support(self) -> np.ndarray:
        return self.eigenvalues > np.asarray(self.cutoff)[..., None]

    @property
    def rank(self):
        return _scalar(np.count_nonzero(self.on_support, axis=-1))

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
        return hermitian_part(self.apply(self.on_support.astype(float)))


def _eigh(m) -> HermitianEigen:
    # Eigendecomposition with the phases LAPACK returns, which is enough
    # for any function of the matrix.
    return _eigh_symmetrized(require_hermitian(m))


def _eigh_symmetrized(h: np.ndarray) -> HermitianEigen:
    # _eigh of matrices that require_hermitian has already returned.
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return HermitianEigen(eigenvalues=w, eigenvectors=q)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    # Ascending eigenvalues of matrices that require_hermitian has already
    # returned. numpy.linalg is read at call time, so a wrapper installed
    # there sees every call.
    return np.linalg.eigvalsh(h)


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # QR factors of each matrix of a stack, numpy.linalg read at call time.
    return np.linalg.qr(a)


def _with_cutoff(e: HermitianEigen) -> tuple[PsdEigen, np.ndarray]:
    # The one PSD rule: e with its support cutoff, and which matrices have
    # a least eigenvalue below minus their cutoff, that is, a genuinely
    # negative one. Eigenvalues between -cutoff and cutoff are kernel.
    w = e.eigenvalues
    psd = PsdEigen(eigenvalues=w, eigenvectors=e.eigenvectors, cutoff=support_cutoff(w))
    return psd, w[..., 0] < -np.asarray(psd.cutoff)


def as_psd(e: HermitianEigen, what: str) -> PsdEigen:
    """Attach the support cutoff, raising if e has a genuinely negative eigenvalue.

    For a stack the first matrix with such an eigenvalue raises.
    """
    psd, negative = _with_cutoff(e)
    if np.count_nonzero(negative):
        found = _first(e.eigenvalues[..., 0], negative)
        raise NotPSDError(f"{what} requires a PSD input, found eigenvalue {found:.3e}")
    return psd


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


def support_projector(m) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    return psd_eig(m, "support projector").projector()


def support_rank(m) -> int:
    """Number of eigenvalues above the support cutoff."""
    return psd_eig(m, "support rank").rank


def trace_norm(m):
    """Schatten 1-norm of a Hermitian matrix (sum of |eigenvalues|).

    A stack of matrices takes one eigvalsh call and gives an array of norms.
    """
    w = np.abs(_eigvalsh(require_hermitian(m)))
    if w.ndim == 1:  # one matrix, without the fixed cost of the stack form
        return float(w.sum())
    return w.sum(axis=-1)


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a."""
    x = as_matrix(a)
    y = as_matrix(b)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"commutator of shapes {x.shape} and {y.shape}")
    return x @ y - y @ x
