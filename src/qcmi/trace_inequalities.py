"""Scalar trace inequalities of single matrices.

Peierls-Bogoliubov, Golden-Thompson and Lieb's three-matrix value, from
which the bound chain is proven. The chain's own slacks are rows of
qcmi.inequalities; these functions check each inequality on its own.

Each function returns a gap or bound value rather than a boolean, so the
tests can assert nonnegativity at an explicit tolerance and record how
tight each inequality is.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError
from .linalg import dagger, mat_exp, psd_eig, require_hermitian
from .tolerances import LOG_MEAN_RTOL


def _same_dim(*mats: np.ndarray) -> None:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"operands act on different spaces: {sorted(dims)}")


def pb_gap(h, k) -> float:
    """Peierls-Bogoliubov gap.

    Returns Tr exp(h + k) / Tr exp(h) - exp(Tr[exp(h) k] / Tr exp(h)),
    which is nonnegative for Hermitian h, k and zero when k is a multiple
    of the identity.
    """
    hh = require_hermitian(h)
    kk = require_hermitian(k)
    _same_dim(hh, kk)
    eh = mat_exp(hh)
    z = float(np.trace(eh).real)
    lhs = float(np.trace(mat_exp(hh + kk)).real) / z
    rhs = float(np.exp(np.trace(eh @ kk).real / z))
    return lhs - rhs


def gt_gap(a, b) -> float:
    """Golden-Thompson gap Tr[exp(a) exp(b)] - Tr exp(a + b), nonnegative."""
    aa = require_hermitian(a)
    bb = require_hermitian(b)
    _same_dim(aa, bb)
    lhs = float(np.trace(mat_exp(aa) @ mat_exp(bb)).real)
    rhs = float(np.trace(mat_exp(aa + bb)).real)
    return lhs - rhs


def lieb_triple_rhs(r, s, t) -> float:
    """Closed form of Tr of the integral of r (s + x)^-1 t (s + x)^-1 dx.

    Evaluated in the eigenbasis of s: the integral over x in [0, inf)
    contributes the inverse logarithmic mean (ln s_i - ln s_j)/(s_i - s_j)
    to the (i, j) entry, with the diagonal limit 1/s_i. Requires s to be
    positive definite; r and t only need to be PSD.
    """
    psd_eig(r, "lieb triple r")
    psd_eig(t, "lieb triple t")
    es = psd_eig(s, "lieb triple s")
    ws, qs = es.eigenvalues, es.eigenvectors
    if ws[0] <= es.cutoff:
        raise SingularMatrixError(f"middle operand is singular (min eigenvalue {ws[0]:.3e})")
    rr = dagger(qs) @ np.asarray(r, dtype=complex) @ qs
    tt = dagger(qs) @ np.asarray(t, dtype=complex) @ qs
    si = ws[:, None]
    sj = ws[None, :]
    diff = si - sj
    close = np.abs(diff) <= LOG_MEAN_RTOL * np.maximum(si, sj)
    safe = np.where(close, 1.0, diff)
    weights = np.where(close, 2.0 / (si + sj), (np.log(si) - np.log(sj)) / safe)
    return float(np.sum(rr * tt.T * weights).real)
