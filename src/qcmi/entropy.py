"""Entropy functionals. All logarithms are natural, so values are in nats.

Relative entropy returns math.inf when the support condition fails. The
infinity never enters arithmetic downstream: consumers check math.isinf
first, and report writers serialize it as the string "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import PsdEigen, _eigvalsh, _scalar, hermitian_part, hs_norm
from .states import DensityMatrix, _require_distribution
from .tolerances import PROBABILITY_NEGATIVE_TOL, REL_ENTROPY_SUPPORT_TOL, WEIGHT_SUM_TOL


@dataclass(frozen=True)
class EntropyReport:
    """The four entropies of a tripartite state and the derived CMI."""

    s_abc: float
    s_ab: float
    s_bc: float
    s_b: float
    cmi: float


def _entropy(e: PsdEigen):
    # -sum w log w over the support eigenvalues w of a decomposition, in
    # nats, from the support mask it keeps; an array for a stack.
    w, on = e.eigenvalues, e.on_support
    terms = np.where(on, w * np.log(np.where(on, w, 1.0)), 0.0)
    return _scalar(-np.sum(terms, axis=-1))


def vn_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr[rho log rho] in nats."""
    return _entropy(rho.eig)


def rel_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Umegaki relative entropy S(rho || sigma).

    Returns math.inf when rho has weight outside the support of sigma
    (detected as ||(I - P) rho (I - P)||_2 above REL_ENTROPY_SUPPORT_TOL
    for the support projector P of sigma, a test made only for a singular
    sigma: a full-rank sigma's support is the whole space); otherwise
    Tr[rho (log rho - log sigma)] with support-restricted logs. Both are
    read from the states' decompositions.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"states have dimensions {rho.dim} and {sigma.dim}")
    if _outside_support(rho, sigma):
        return math.inf
    return _rel_entropy(rho, sigma.eig.log())


def _outside_support(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    # Whether rel_entropy(rho, sigma) is infinite. For a full-rank sigma,
    # I - P is zero up to rounding and the test cannot fail, so P is not
    # built.
    if sigma.is_full_rank():
        return False
    comp = np.eye(rho.dim) - sigma.eig.projector()
    return hs_norm(comp @ rho.mat @ comp) > REL_ENTROPY_SUPPORT_TOL


def _rel_entropy(rho: DensityMatrix, log_sigma: np.ndarray) -> float:
    # Tr[rho (log rho - log sigma)] for rho within the support of sigma,
    # given sigma's support-restricted log.
    tr_rho_log_rho = -vn_entropy(rho)
    tr_rho_log_sigma = float(np.trace(rho.mat @ log_sigma).real)
    return tr_rho_log_rho - tr_rho_log_sigma


def classical_rel_entropy(p, q) -> float:
    """Kullback-Leibler divergence between two probability vectors, in nats."""
    pv = np.asarray(p, dtype=float).ravel()
    qv = np.asarray(q, dtype=float).ravel()
    if pv.size != qv.size:
        raise DimensionMismatchError(f"vector lengths {pv.size} and {qv.size} differ")
    for name, v in (("p", pv), ("q", qv)):
        _require_distribution(v, name, PROBABILITY_NEGATIVE_TOL, WEIGHT_SUM_TOL)
    on = pv > 0.0
    if np.any(qv[on] <= 0.0):
        return math.inf
    return float(np.sum(pv[on] * (np.log(pv[on]) - np.log(qv[on]))))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho))."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"states have dimensions {rho.dim} and {sigma.dim}")
    s = rho.eig.sqrt()
    inner = hermitian_part(s @ sigma.mat @ s)
    w = np.clip(_eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(w)))
