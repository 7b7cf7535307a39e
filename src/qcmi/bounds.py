"""Lower bounds on conditional mutual information and channel analogues.

The central object is the candidate state

    exp(log rho_AB - log rho_B + log rho_BC)

built from embedded marginal logarithms. For states with singular
marginals the exponential is taken on the intersection of the embedded
marginal supports, and reports flag that restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ChannelAnalysis, _overlap_bound
from .channels import KrausChannel
from .entropy import classical_rel_entropy, fidelity, vn_entropy
from .states import DensityMatrix, TripartiteState, _require_full_rank


@dataclass(frozen=True)
class BoundReport:
    """CMI, the lower-bound chain evaluated on one state, and the slacks."""

    cmi: float
    sigma_star_trace: float
    log_overlap_bound: float
    thm1_bound: float
    corollary_bound: float
    slack_thm1: float
    slack_corollary: float
    support_restricted: bool


def sigma_star(state: TripartiteState) -> np.ndarray:
    """The exponentiated-marginal-logs candidate state (PSD, trace <= 1).

    The returned array is the state's cached operator and is read-only.
    """
    return state.analysis.sigma_star


def log_overlap_bound(state: TripartiteState) -> float:
    """-2 log Tr[sqrt(rho) sqrt(sigma_star)], the sharpest bound in the chain."""
    return _overlap_bound(state.analysis.overlap)


def bound_report(state: TripartiteState) -> BoundReport:
    """Evaluate the full lower-bound chain on one state.

    The three bounds are ordered: corollary <= thm1 <= log_overlap <= cmi,
    each up to the documented tolerances.
    """
    a = state.analysis
    corollary = 0.25 * a.trace_distance**2
    return BoundReport(
        cmi=a.cmi,
        sigma_star_trace=a.sigma_star_trace,
        log_overlap_bound=_overlap_bound(a.overlap),
        thm1_bound=a.thm1,
        corollary_bound=corollary,
        slack_thm1=a.cmi - a.thm1,
        slack_corollary=a.cmi - corollary,
        support_restricted=a.support_restricted,
    )


def channel_exp_operator(rho: DensityMatrix, sigma: DensityMatrix, phi: KrausChannel) -> np.ndarray:
    """exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma))).

    The returned array is read-only.
    """
    return ChannelAnalysis(rho, sigma, phi).exp_operator


def channel_gap_bound(
    rho: DensityMatrix, sigma: DensityMatrix, phi: KrausChannel
) -> tuple[float, float]:
    """Data-processing gap of relative entropy under phi and its lower bound.

    Returns (lhs, rhs) with
        lhs = S(rho || sigma) - S(phi rho || phi sigma)
        rhs = -2 log Tr[sqrt(rho) sqrt(channel_exp_operator(rho, sigma, phi))]
    and lhs >= rhs - tolerance for full-rank inputs.
    """
    a = ChannelAnalysis(rho, sigma, phi)
    return a.lhs, a.rhs


def fidelity_lower_bound(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, float]:
    """Fidelity and its spectral lower bound for full-rank states.

    The bound is Tr[sqrt(rho)] * exp(-S(rho)/2 - H/2) where H is the
    classical divergence between the descending spectrum of rho and the
    ascending spectrum of sigma. Equality holds at rho = sigma = I / dim.
    """
    _require_full_rank(rho, "rho")
    _require_full_rank(sigma, "sigma")
    f = fidelity(rho, sigma)
    w_rho = rho.eig.eigenvalues
    w_sigma = sigma.eig.eigenvalues
    tr_sqrt = float(np.sum(np.sqrt(np.clip(w_rho, 0.0, None))))
    entropy = vn_entropy(rho)
    divergence = classical_rel_entropy(w_rho[::-1], w_sigma)
    bound = tr_sqrt * math.exp(-0.5 * entropy - 0.5 * divergence)
    return f, bound
