"""Spectral operations on complex Hermitian matrices.

Every matrix function in the package goes through one eigendecomposition
routine so that support handling (pseudo-inverses, logs of singular
operators) stays consistent, and one PSD rule (_with_cutoff) decides
which matrices are negative. No other module calls numpy.linalg: every
eigh, eigvalsh, qr and svd of the package is made here. Matrix 2-norms are
Frobenius norms.

The package's one worker thread lives here too: _eigh_ahead hands the
eigh of a large stack to it, so that the caller can go on meanwhile.
Only eigh goes there, which releases the GIL; eigvalsh, qr and det hold
it, so they stay on the calling thread. A decomposition the worker has not
started by the time it is read is cancelled and made by the caller.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

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
    """Hilbert-Schmidt (Frobenius) norm; a float, or an array of norms for a stack."""
    a = np.asarray(m)
    # numpy.linalg.norm of each matrix of the stack in turn, so that every
    # norm is bitwise numpy.linalg.norm of its matrix alone.
    norms = [np.linalg.norm(x) for x in a.reshape(-1, *a.shape[-2:])]
    return _scalar(np.array(norms).reshape(a.shape[:-2]))


def _conj_transposed(m: np.ndarray) -> np.ndarray:
    # m^dag of each matrix of a stack as a new C-ordered array, to be
    # worked on in place: elementwise operations between it and m then
    # need no buffer of their own.
    out = m.swapaxes(-1, -2).copy()
    return np.conjugate(out, out=out)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2, of each matrix of a stack.

    Computed in one new array, with the operations of that expression and
    so bitwise its value.
    """
    m = np.asarray(m)
    h = _conj_transposed(m)
    np.add(m, h, out=h)
    h /= 2.0
    return h


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

    The difference d = m - m^dag is made in the array m^dag is copied
    into. When every bit of d is clear, m equals m^dag entry by entry and
    is finite (a NaN or infinite entry leaves a NaN or infinite one in d),
    so no deviation is computed; m + m^dag is then bitwise m + m, signed
    zeros included, and d's array takes the symmetrized copy. Otherwise
    the deviation's norm is computed only when a bound on it from the
    largest entry of d does not settle the check, and m^dag is made again
    for the symmetrized copy. Either way the result is bitwise
    hermitian_part(m).
    """
    a = as_matrices(m)
    d = _conj_transposed(a)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which raises below
        np.subtract(a, d, out=d)
    if not d.view(np.uint64).max(initial=0):
        np.add(a, a, out=d)
        d /= 2.0
        return d
    _require_small_deviation(a, d)
    del d  # before the symmetrized copy is made
    return hermitian_part(a)


def _require_small_deviation(a: np.ndarray, d: np.ndarray) -> None:
    # require_hermitian's check of a from d = a - a^dag, whose entries are
    # made nonnegative in place: that leaves the norm of d bitwise as it
    # was. A matrix's norm is at most sqrt(entries) times its largest
    # entry, and the computed norm exceeds the exact one by far less than
    # a factor 2; so when that bound is within rtol / 2 for every matrix,
    # each passes without its norm.
    rtol = HERMITIAN_RTOL
    f = d.view(np.float64)
    np.abs(f, out=f)
    bound = f.max(axis=(-2, -1)) * math.sqrt(f.shape[-2] * f.shape[-1])
    if (bound <= rtol / 2).all():
        return
    # An array, 0-d for one matrix: ~ on a Python bool would be -1 or -2.
    dev = np.asarray(hs_norm(d))
    failed = ~(dev <= rtol)
    if failed.any():  # only then are the norms of a needed
        failed &= ~np.isfinite(dev) | (dev > rtol * hs_norm(a))
        if failed.any():
            _require_finite(a, "matrix")
            raise NotHermitianError(f"matrix deviates from Hermitian by {_first(dev, failed):.3e}")


def support_cutoff(eigenvalues):
    """Threshold below which eigenvalues count as kernel, not support.

    eigenvalues has shape (..., n); a stack gets one threshold per matrix.
    """
    lam_max = np.asarray(eigenvalues).max(axis=-1, initial=0.0)
    return _scalar(np.maximum(SUPPORT_RTOL * lam_max, SUPPORT_FLOOR))


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
    has one cutoff per matrix. The support mask on_support, the
    eigenvalues above the cutoff, is computed once, on construction, and
    rank, projector and every support-restricted function read it.
    """

    cutoff: float | np.ndarray
    on_support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        on = self.eigenvalues > np.asarray(self.cutoff)[..., None]
        object.__setattr__(self, "on_support", on)

    @property
    def rank(self):
        return _scalar(self.on_support.sum(axis=-1))

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


# _eigh_ahead hands a stack of k matrices of dimension n to the worker
# thread when k * n**3 is at least EIGH_AHEAD_WORK, and decomposes a
# smaller one inline: there the handoff costs more than the overlap saves.
# Measured on an Intel Xeon with 2 cores and one BLAS thread, as scans
# with rho's eigh on the worker against inline, 20 alternating rounds, ms
# per sample (rounds the worker won), in two runs: n = 27 alone ran 1.12x
# and 1.13x (1/20, 0/20) as long, in stacks of 2 and 4 1.19x and 1.04x,
# of 8 1.04x (8/20) and 0.95x (18/20), of 11 0.89x and 0.93x, of 16 0.93x
# and 0.89x and of 22 0.91x and 0.92x (18-19/20); n = 36 and 48 alone
# 1.08x and 1.07x; n = 64 alone 0.90x and 0.94x and in fours 0.90x and
# 0.87x; n = 80 alone 1.00x and 0.89x and in pairs 0.83x and 0.87x; n =
# 125 alone 0.85x and 0.87x (18-19/20). So 3,3,3 scans (stacks of 22) and
# everything from 4,4,4 up use the worker, and 2,2,2 scans and a lone
# state at 3,3,3 do not.
EIGH_AHEAD_WORK = 2**18

_worker = None  # the executor of the one worker thread, made on first use


def _forget_worker() -> None:
    # A forked child has no worker thread; work submitted to the parent's
    # executor would never run there (each read would cancel it and
    # decompose inline) and would stay queued with its matrix, so the child
    # makes its own.
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _eigh_ahead(h: np.ndarray) -> tuple[Callable[[], HermitianEigen], bool]:
    # _eigh_symmetrized(h), requested now and read later: a callable that
    # yields it, and whether it is being computed on the worker thread. A
    # stack of at least EIGH_AHEAD_WORK is submitted to the worker at once;
    # a smaller one is decomposed inline, on the callable's first call.
    # Either way the decomposition is bitwise the same, and an error of the
    # decomposition is raised by the callable.
    if h.size * h.shape[-1] < EIGH_AHEAD_WORK:
        return partial(_eigh_symmetrized, h), False
    global _worker
    if _worker is None:
        # Imported here: importing it costs about 6 ms, which a run that
        # never decomposes a large stack need not pay.
        from concurrent.futures import ThreadPoolExecutor

        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qcmi-eigh")
    return partial(_eigh_done, _worker.submit(_eigh_symmetrized, h), h), True


def _eigh_done(future, h: np.ndarray) -> HermitianEigen:
    # The worker's _eigh_symmetrized(h). If the worker has not started it by
    # the time it is read, its core was not scheduled (a host that steals
    # it made waiting slower than inline), so the caller cancels it and
    # makes it itself. A worker preempted mid-eigh is waited for: making
    # the eigh a second time would make the number of decompositions vary
    # from run to run.
    if future.cancel():
        return _eigh_symmetrized(h)
    return future.result()


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    # Ascending eigenvalues of matrices that require_hermitian has already
    # returned. numpy.linalg is read at call time, so a wrapper installed
    # there sees every call.
    return np.linalg.eigvalsh(h)


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # QR factors of each matrix of a stack, numpy.linalg read at call time.
    return np.linalg.qr(a)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Thin SVD factors U, S, W^dag of a, numpy.linalg read at call time.
    return np.linalg.svd(a, full_matrices=False)


def _with_cutoff(e: HermitianEigen) -> tuple[PsdEigen, np.ndarray]:
    # The one PSD rule: e with its support cutoff, and which matrices have
    # a least eigenvalue below minus their cutoff, that is, a genuinely
    # negative one. Eigenvalues between -cutoff and cutoff are kernel.
    w = e.eigenvalues
    psd = PsdEigen(eigenvalues=w, eigenvectors=e.eigenvectors, cutoff=support_cutoff(w))
    return psd, w[..., 0] < -np.asarray(psd.cutoff)


def psd_eig(m, what: str) -> PsdEigen:
    """One eigendecomposition of a PSD matrix; what names the caller in errors.

    For a stack the first matrix with a genuinely negative eigenvalue raises.
    """
    psd, negative = _with_cutoff(_eigh(m))
    if np.count_nonzero(negative):
        found = _first(psd.eigenvalues[..., 0], negative)
        raise NotPSDError(f"{what} requires a PSD input, found eigenvalue {found:.3e}")
    return psd


def _exp_eigen(h) -> PsdEigen:
    # exp(h) as a decomposition, from one decomposition of h. Its sqrt
    # keeps the PSD rule of every sqrt: eigenvalues e^w at or below the
    # support cutoff of the spectrum e^w count as zero; none is negative.
    e = _eigh(h)
    return _with_cutoff(HermitianEigen(np.exp(e.eigenvalues), e.eigenvectors))[0]


def _rebuilt(e: HermitianEigen) -> np.ndarray:
    # The matrix of a decomposition, Q diag(w) Q^dag symmetrized, in a new
    # writable array.
    return hermitian_part(e.apply(e.eigenvalues))


def mat_exp(m) -> np.ndarray:
    """exp(m) for Hermitian m."""
    return _rebuilt(_exp_eigen(m))


def trace_norm(m):
    """Schatten 1-norm of a Hermitian matrix (sum of |eigenvalues|).

    A stack of matrices takes one eigvalsh call and gives an array of norms.
    """
    return _scalar(np.abs(_eigvalsh(require_hermitian(m))).sum(axis=-1))
