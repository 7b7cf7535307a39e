"""One spectral analysis per tripartite state.

Every per-state diagnostic reads the same decompositions:

* one eigendecomposition of each marginal rho_AB, rho_BC and rho_B, which
  serves its entropy, log, sqrt and pseudo-inverse sqrt;
* one of rho, which serves S(ABC), sqrt(rho) and log(rho);
* one of the exponent h = log rho_AB - log rho_B + log rho_BC, which gives
  sigma* = exp(h) and sqrt(sigma*);
* one spectrum per trace norm: rho - sigma*, rho - M M^dag, rho - M^dag M
  and [M, M^dag].

Each piece is computed on first use and then kept, so a state pays for
each decomposition at most once. TripartiteState.analysis holds the
instance; the functions in entropy, bounds, recovery and harness are views
over it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .entropy import EntropyReport, spectrum_entropy
from .linalg import (
    HermitianEigen,
    PsdEigen,
    _eigh,
    as_psd,
    dagger,
    hermitian_part,
    hs_norm,
    mat_exp,
    mat_sqrt,
    trace_norm,
)
from .states import DensityMatrix, TripartiteState, embed, partial_trace
from .trace_inequalities import lieb_triple_rhs_in_eigenbasis


def _readonly(a: np.ndarray) -> np.ndarray:
    # Cached operators are handed out by reference; keep callers from
    # editing the cache in place.
    a.flags.writeable = False
    return a


def _intersection_projector(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Intersection of the ranges of two orthogonal projectors: the
    # eigenvalue-2 eigenspace of p + q.
    e = _eigh(p + q)
    cols = e.eigenvectors[:, e.eigenvalues > 2.0 - 1e-8]
    return hermitian_part(cols @ dagger(cols))


class StateAnalysis:
    """Lazily computed spectral data of one tripartite state."""

    def __init__(self, state: TripartiteState):
        # A copy without the cache: holding the state itself would make a
        # reference cycle with state.analysis, and every analysed state's
        # operators would then stay in memory until the cyclic garbage
        # collector happens to run.
        self.state = TripartiteState(rho=state.rho, dims=state.dims)

    # -- marginals -------------------------------------------------------

    @cached_property
    def marginals(self) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
        """Validated (rho_AB, rho_BC, rho_B)."""
        return tuple(partial_trace(self.state, keep) for keep in ("AB", "BC", "B"))

    @cached_property
    def marginal_eigs(self) -> tuple[HermitianEigen, HermitianEigen, HermitianEigen]:
        return tuple(_eigh(r.mat) for r in self.marginals)

    @cached_property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs (raises if not PSD)."""
        return tuple(as_psd(e, "log") for e in self.marginal_eigs)

    @cached_property
    def rho_eig(self) -> HermitianEigen:
        return _eigh(self.state.mat)

    @cached_property
    def rho_psd(self) -> PsdEigen:
        return as_psd(self.rho_eig, "sqrt")

    # -- entropies -------------------------------------------------------

    @cached_property
    def entropies(self) -> EntropyReport:
        s_ab, s_bc, s_b = (spectrum_entropy(e.eigenvalues) for e in self.marginal_eigs)
        s_abc = spectrum_entropy(self.rho_eig.eigenvalues)
        return EntropyReport(
            s_abc=s_abc, s_ab=s_ab, s_bc=s_bc, s_b=s_b, cmi=s_ab + s_bc - s_abc - s_b
        )

    @property
    def cmi(self) -> float:
        return self.entropies.cmi

    # -- sigma* and the bound chain ---------------------------------------

    @cached_property
    def embedded_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I."""
        dims = self.state.dims
        return tuple(
            embed(e.log(), keep, dims) for e, keep in zip(self.marginal_psd, ("AB", "BC", "B"))
        )

    @cached_property
    def exponent(self) -> np.ndarray:
        """h = log rho_AB + log rho_BC - log rho_B, all embedded."""
        log_ab, log_bc, log_b = self.embedded_logs
        return log_ab + log_bc - log_b

    @cached_property
    def _sigma(self) -> tuple[np.ndarray, np.ndarray, bool]:
        # (sigma*, sqrt(sigma*), support_restricted)
        h = self.exponent
        rho_ab, rho_bc, _ = self.marginals
        if rho_ab.is_full_rank() and rho_bc.is_full_rank():
            e = _eigh(h)
            # sqrt keeps mat_sqrt's rule: eigenvalues e^w at or below the
            # support cutoff of the spectrum e^w count as zero.
            ex = as_psd(HermitianEigen(np.exp(e.eigenvalues), e.eigenvectors), "sqrt")
            return _readonly(hermitian_part(ex.apply(ex.eigenvalues))), ex.sqrt(), False
        # Singular rho_AB or rho_BC: exponentiate on the intersection P of
        # the embedded supports, sigma* = P exp(P h P) P. The kernel of P
        # carries eigenvalue 1 in exp(P h P), so sqrt(sigma*) takes its own
        # decomposition of sigma* rather than one of P h P.
        psd_ab, psd_bc, _ = self.marginal_psd
        dims = self.state.dims
        proj = _intersection_projector(
            embed(psd_ab.projector(), "AB", dims), embed(psd_bc.projector(), "BC", dims)
        )
        compressed = hermitian_part(proj @ h @ proj)
        sig = _readonly(hermitian_part(proj @ mat_exp(compressed) @ proj))
        return sig, mat_sqrt(sig), True

    @property
    def sigma_star(self) -> np.ndarray:
        return self._sigma[0]

    @property
    def sqrt_sigma_star(self) -> np.ndarray:
        return self._sigma[1]

    @property
    def support_restricted(self) -> bool:
        return self._sigma[2]

    @cached_property
    def sigma_star_trace(self) -> float:
        return float(np.trace(self.sigma_star).real)

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        return self.rho_psd.sqrt()

    @cached_property
    def overlap(self) -> float:
        """Tr[sqrt(rho) sqrt(sigma*)]."""
        return float(np.trace(self.sqrt_rho @ self.sqrt_sigma_star).real)

    @cached_property
    def thm1(self) -> float:
        """||sqrt(rho) - sqrt(sigma*)||_2^2."""
        return hs_norm(self.sqrt_rho - self.sqrt_sigma_star) ** 2

    @cached_property
    def trace_distance(self) -> float:
        """||rho - sigma*||_1."""
        return trace_norm(self.state.mat - self.sigma_star)

    @cached_property
    def lieb_rhs(self) -> float:
        """lieb_triple_rhs(rho_AB (x) I, I (x) rho_B (x) I, I (x) rho_BC).

        The middle operand has eigenvectors I (x) Q_B (x) I, where Q_B
        diagonalizes rho_B, so the two outer operands are rotated by the
        small factors I_A (x) Q_B and Q_B (x) I_C and embedded afterwards.
        """
        rho_ab, rho_bc, _ = self.marginals
        _, _, psd_b = self.marginal_psd
        d_a, _, d_c = dims = self.state.dims
        q = psd_b.eigenvectors
        u_ab = np.kron(np.eye(d_a), q)
        u_bc = np.kron(q, np.eye(d_c))
        rr = embed(dagger(u_ab) @ rho_ab.mat @ u_ab, "AB", dims)
        tt = embed(dagger(u_bc) @ rho_bc.mat @ u_bc, "BC", dims)
        ws = np.kron(np.ones(d_a), np.kron(psd_b.eigenvalues, np.ones(d_c)))
        return lieb_triple_rhs_in_eigenbasis(rr, tt, ws, psd_b.cutoff)

    # -- recovery operator and Markov residuals ---------------------------

    @cached_property
    def m(self) -> np.ndarray:
        """M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC), embedded."""
        psd_ab, psd_bc, psd_b = self.marginal_psd
        dims = self.state.dims
        left = embed(psd_ab.sqrt(), "AB", dims)
        middle = embed(psd_b.power(-0.5), "B", dims)
        right = embed(psd_bc.sqrt(), "BC", dims)
        return _readonly(left @ middle @ right)

    @cached_property
    def m_mdag(self) -> np.ndarray:
        return self.m @ dagger(self.m)

    @cached_property
    def mdag_m(self) -> np.ndarray:
        return dagger(self.m) @ self.m

    @cached_property
    def gap_m(self) -> float:
        """||rho - M M^dag||_1."""
        return trace_norm(self.state.mat - self.m_mdag)

    @cached_property
    def gap_mprime(self) -> float:
        """||rho - M^dag M||_1."""
        return trace_norm(self.state.mat - self.mdag_m)

    @cached_property
    def commutator_norm(self) -> float:
        """||[M, M^dag]||_1."""
        return trace_norm(self.m_mdag - self.mdag_m)

    @cached_property
    def ruskai(self) -> float:
        """||log rho - h||_2 with support-restricted logs."""
        return hs_norm(self.rho_psd.log() - self.exponent)
