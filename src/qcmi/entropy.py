"""Entropy functionals. All logarithms are natural, so values are in nats.

Relative entropy returns math.inf when the support condition fails. The
infinity never enters arithmetic downstream: consumers check math.isinf
first, and report writers serialize it as the string "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotDistributionError
from .linalg import (
    HermitianEigen,
    _eigh,
    _scalar,
    as_psd,
    hermitian_part,
    hs_norm,
    mat_sqrt,
    support_cutoff,
)
from .states import DensityMatrix, TripartiteState

REL_ENTROPY_SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class EntropyReport:
    """The four entropies of a tripartite state and the derived CMI."""

    s_abc: float
    s_ab: float
    s_bc: float
    s_b: float
    cmi: float


def _spectrum(rho: DensityMatrix) -> np.ndarray:
    return _eigh(rho.mat).eigenvalues


def spectrum_entropy(w: np.ndarray):
    """-sum w log w over the eigenvalues above the support cutoff, in nats.

    w has shape (..., n); a stack of spectra gives an array of entropies.
    """
    on = w > np.asarray(support_cutoff(w))[..., None]
    terms = np.where(on, w * np.log(np.where(on, w, 1.0)), 0.0)
    return _scalar(-np.sum(terms, axis=-1))


def vn_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr[rho log rho] in nats."""
    return spectrum_entropy(_spectrum(rho))


def rel_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Umegaki relative entropy S(rho || sigma).

    Returns math.inf when rho has weight outside the support of sigma
    (detected as ||(I - P) rho (I - P)||_2 above 1e-9 for the support
    projector P of sigma); otherwise Tr[rho (log rho - log sigma)] with
    support-restricted logs.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"states have dimensions {rho.dim} and {sigma.dim}")
    return _rel_entropy(rho.mat, _spectrum(rho), _eigh(sigma.mat))


def _rel_entropy(rho: np.ndarray, rho_w: np.ndarray, sigma: HermitianEigen) -> float:
    # rel_entropy of the density matrix rho, with eigenvalues rho_w, and
    # the density matrix whose decomposition is sigma.
    psd = as_psd(sigma, "support projector")
    comp = np.eye(rho.shape[0]) - psd.projector()
    if hs_norm(comp @ rho @ comp) > REL_ENTROPY_SUPPORT_TOL:
        return math.inf
    tr_rho_log_rho = -spectrum_entropy(rho_w)
    tr_rho_log_sigma = float(np.trace(rho @ psd.log()).real)
    return tr_rho_log_rho - tr_rho_log_sigma


def cmi(state: TripartiteState) -> EntropyReport:
    """Conditional mutual information I(A:C|B) = S_AB + S_BC - S_ABC - S_B."""
    return state.analysis.entropies


def classical_rel_entropy(p, q) -> float:
    """Kullback-Leibler divergence between two probability vectors, in nats."""
    pv = np.asarray(p, dtype=float).ravel()
    qv = np.asarray(q, dtype=float).ravel()
    if pv.size != qv.size:
        raise DimensionMismatchError(f"vector lengths {pv.size} and {qv.size} differ")
    for name, v in (("p", pv), ("q", qv)):
        if float(v.min()) < -1e-12:
            raise NotDistributionError(f"{name} has negative entry {v.min():.3e}")
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise NotDistributionError(f"{name} sums to {v.sum()!r}, expected 1")
    on = pv > 0.0
    if np.any(qv[on] <= 0.0):
        return math.inf
    return float(np.sum(pv[on] * (np.log(pv[on]) - np.log(qv[on]))))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho))."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"states have dimensions {rho.dim} and {sigma.dim}")
    s = mat_sqrt(rho.mat)
    inner = hermitian_part(s @ sigma.mat @ s)
    w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(w)))
