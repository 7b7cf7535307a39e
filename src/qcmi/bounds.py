"""A spectral lower bound on fidelity.

The lower-bound chain below conditional mutual information,
cmi >= log_overlap >= thm1 >= corollary, is built on the candidate state

    sigma* = exp(log rho_AB - log rho_B + log rho_BC)

from embedded marginal logarithms. It is read from the state's analysis:
state.analysis.sigma_star, .log_overlap_bound, .thm1 and
.corollary_bound. For states with singular marginals the exponential is
taken on the intersection of the embedded marginal supports, and
.support_restricted flags that restriction. The channel analogue of the
bound is read from qcmi.ChannelAnalysis.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import classical_rel_entropy, fidelity, vn_entropy
from .states import DensityMatrix, _require_full_rank


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
