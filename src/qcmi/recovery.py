"""Recovery maps, Markov equality diagnostics, and state classification.

The workhorse is the operator

    M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC)

(all factors embedded into the full space). M M^dag equals the recovered
state obtained by sandwiching rho_BC with sqrt(rho_AB) pinv_sqrt(rho_B),
and M^dag M is the mirror recovery through the BC side. A state has zero
conditional mutual information exactly when these recoveries reproduce it.

M, the recovered states M M^dag and M^dag M, the trace distances
gap_m = ||rho - M M^dag||_1 and gap_mprime = ||rho - M^dag M||_1, and the
Ruskai residual ||log rho_ABC + log rho_B - log rho_AB - log rho_BC||_2
are read from the state's analysis (state.analysis.m, .m_mdag, .mdag_m,
.gap_m, .gap_mprime, .ruskai); validate_density(state.analysis.m_mdag)
checks a recovered state as a density matrix. This module computes the
modular residual and classifies states from the same analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularMatrixError
from .linalg import hs_norm
from .states import TripartiteState, embed
from .tolerances import DEFAULT_TOL, _require_tol

DEFAULT_MODULAR_TIMES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class ClassificationLabel:
    """Outcome of the commutation / reconstruction classification.

    D1: M is normal and M M^dag reproduces the state (Markov).
    D2: M is normal but the reconstruction differs from the state.
    D3: M is not normal.
    """

    label: str
    commutator_norm: float
    reconstruction_gap: float
    tol: float


def modular_residual(state: TripartiteState) -> float:
    """Largest deviation of the modular commutation identity over DEFAULT_MODULAR_TIMES.

    Compares rho_ABC^(it) rho_BC^(-it) with rho_AB^(it) rho_B^(-it) in the
    Frobenius norm; all zero exactly on Markov states. Requires a
    full-rank state.
    """
    if not state.rho.is_full_rank():
        raise SingularMatrixError(
            f"modular residual needs a full-rank state "
            f"(support rank {state.rho.support_rank} of {state.dim})"
        )
    a = state.analysis
    psd_ab, psd_bc, psd_b = (m.eig for m in a.marginals)
    dims = state.dims
    worst = 0.0
    for t in DEFAULT_MODULAR_TIMES:
        lhs = a.rho.eig.cpower(t) @ embed(psd_bc.cpower(-t), "BC", dims)
        rhs = embed(psd_ab.cpower(t), "AB", dims) @ embed(psd_b.cpower(-t), "B", dims)
        worst = max(worst, hs_norm(lhs - rhs))
    return worst


def classify(state: TripartiteState, tol: float = DEFAULT_TOL) -> ClassificationLabel:
    """Classify by whether M is normal and whether M M^dag reproduces rho.

    ConfigError unless tol is a positive, finite real number.
    """
    tol = _require_tol(tol)
    a = state.analysis
    comm_norm = a.commutator_norm
    gap = a.gap_m
    return ClassificationLabel(
        label=_label(comm_norm, gap, tol),
        commutator_norm=comm_norm,
        reconstruction_gap=gap,
        tol=tol,
    )


def _label(comm_norm: float, gap: float, tol: float) -> str:
    # classify's rule, from ||[M, M^dag]||_1 and ||rho - M M^dag||_1 at a
    # checked tol.
    if comm_norm > tol:
        return "D3"
    return "D1" if gap <= tol else "D2"
