"""One spectral analysis per tripartite state, computed on stacks of states.

Every per-state diagnostic reads the same decompositions:

* one eigendecomposition of each marginal rho_AB, rho_BC and rho_B, which
  serves its validation, entropy, log, sqrt and pseudo-inverse sqrt;
* one of rho, which serves its validation, S(ABC), sqrt(rho) and log(rho);
* one of the exponent h = log rho_AB - log rho_B + log rho_BC, which gives
  sigma* = exp(h) and sqrt(sigma*);
* one spectrum per trace norm: rho - sigma*, rho - M M^dag, rho - M^dag M
  and [M, M^dag].

StackAnalysis computes these for k states of the same dims at once, on
(k, n, n) arrays: one stacked call per kind of decomposition and stacked
matrix products, so the per-call cost of numpy and LAPACK is paid once per
stack rather than once per state. Stacked eigh, eigvalsh and matmul give
each matrix bitwise the result of a call on that matrix alone (the
grouping-invariance tests check this), so a state's values do not depend
on the stack it was analysed in.

The analysis validates rho and its marginals with states._validated, the
one density check, from these decompositions, before it derives anything
from them. That is where a TripartiteState is validated, and consumers
read the decompositions it keeps. Each piece is computed on first use
and then kept, so a stack pays for each decomposition at most once.
StateAnalysis is one state's row of a stack; TripartiteState.analysis
holds it, and the functions in entropy, bounds, recovery and harness are
views over it. A state analysed on its own is a stack of one;
analyse_together gives several states one stack.

ChannelAnalysis does the same for one channel triple (rho, sigma, phi)
of the channel bound and the Petz recovery: one decomposition per matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .channels import KrausChannel, _petz_dual
from .entropy import EntropyReport, rel_entropy, spectrum_entropy
from .errors import DimensionMismatchError
from .linalg import (
    HermitianEigen,
    PsdEigen,
    _eigh,
    _eigh_symmetrized,
    as_psd,
    dagger,
    hermitian_part,
    hs_norm,
    mat_exp,
    mat_sqrt,
    psd_eig,
    trace_norm,
)
from .states import (
    MARGINALS,
    DensityMatrix,
    TripartiteState,
    _require_full_rank,
    _traced_out,
    _validated,
    embed,
    validate_density,
)
from .tolerances import INTERSECTION_TOL, ZERO_OVERLAP


def _overlap_bound(overlap: float) -> float:
    # -2 log overlap, infinite for a zero overlap.
    if overlap <= ZERO_OVERLAP:
        return math.inf
    return -2.0 * math.log(overlap)


def _readonly(a: np.ndarray) -> np.ndarray:
    # Cached operators are handed out by reference; keep callers from
    # editing the cache in place.
    a.flags.writeable = False
    return a


def _intersection_projector(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Intersection of the ranges of two orthogonal projectors: the
    # eigenvalue-2 eigenspace of p + q.
    e = _eigh(p + q)
    cols = e.eigenvectors[:, e.eigenvalues > 2.0 - INTERSECTION_TOL]
    return hermitian_part(cols @ dagger(cols))


def _exp_and_sqrt(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exp(h) and its square root from one decomposition of h. The sqrt
    # keeps mat_sqrt's rule: eigenvalues e^w at or below the support
    # cutoff of the spectrum e^w count as zero.
    e = _eigh(h)
    ex = as_psd(HermitianEigen(np.exp(e.eigenvalues), e.eigenvectors), "sqrt")
    return hermitian_part(ex.apply(ex.eigenvalues)), ex.sqrt()


def _psd_row(e: PsdEigen, i: int) -> PsdEigen:
    return PsdEigen(
        eigenvalues=e.eigenvalues[i], eigenvectors=e.eigenvectors[i], cutoff=float(e.cutoff[i])
    )


class StackAnalysis:
    """Lazily computed spectral data of k states with the same dims.

    Operators have shape (k, n, n) and scalars shape (k,). A stacked
    computation that raises names the first failing matrix of the stack;
    analyse each state alone to find which state fails.
    """

    def __init__(self, states: Sequence[TripartiteState]):
        dims = states[0].dims
        if any(s.dims != dims for s in states):
            raise DimensionMismatchError("a stack analysis needs states of the same dims")
        # The matrices rather than the states: holding a state would make a
        # reference cycle with its analysis, and every analysed state's
        # operators would then stay in memory until the cyclic garbage
        # collector happens to run.
        mats = [s.mat for s in states]
        # A single (read-only) matrix is viewed as a stack of one, not copied.
        self.mat = mats[0][np.newaxis] if len(mats) == 1 else _readonly(np.stack(mats))
        self.dims = dims

    def __len__(self) -> int:
        return self.mat.shape[0]

    # -- rho and its marginals, validated ---------------------------------

    @cached_property
    def _rho(self) -> tuple[PsdEigen, np.ndarray]:
        # The decomposition and support ranks of rho, validated.
        _, e, rank = _validated(self.mat)
        return e, rank

    @property
    def rho_psd(self) -> PsdEigen:
        return self._rho[0]

    @property
    def rho_rank(self) -> np.ndarray:
        return self._rho[1]

    @cached_property
    def marginals(self) -> tuple[tuple[np.ndarray, PsdEigen, np.ndarray], ...]:
        """(read-only stack, decomposition, support ranks) of rho_AB, rho_BC
        and rho_B, validated after rho."""
        self._rho  # rho is validated first; every other value derives from it or these
        return tuple(_validated(_traced_out(self.mat, self.dims, keep)) for keep in MARGINALS)

    @property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs."""
        return tuple(e for _, e, _ in self.marginals)

    # -- entropies -------------------------------------------------------

    @cached_property
    def entropies(self) -> EntropyReport:
        """The entropies and the cmi, each an array over the stack."""
        s_ab, s_bc, s_b = (spectrum_entropy(e.eigenvalues) for e in self.marginal_psd)
        s_abc = spectrum_entropy(self.rho_psd.eigenvalues)
        return EntropyReport(
            s_abc=s_abc, s_ab=s_ab, s_bc=s_bc, s_b=s_b, cmi=s_ab + s_bc - s_abc - s_b
        )

    # -- sigma* and the bound chain ---------------------------------------

    @cached_property
    def embedded_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I."""
        return tuple(
            _readonly(embed(e.log(), keep, self.dims))
            for e, keep in zip(self.marginal_psd, MARGINALS)
        )

    @cached_property
    def exponent(self) -> np.ndarray:
        """h = log rho_AB + log rho_BC - log rho_B, all embedded."""
        log_ab, log_bc, log_b = self.embedded_logs
        return log_ab + log_bc - log_b

    @cached_property
    def _sigma(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (sigma*, sqrt(sigma*), support_restricted)
        h = self.exponent
        (ab, _, rank_ab), (bc, _, rank_bc), _ = self.marginals
        full = (rank_ab == ab.shape[-1]) & (rank_bc == bc.shape[-1])
        if full.all():  # the common case, without copies into a mixed stack
            sigma, root = _exp_and_sqrt(h)
        else:
            sigma = np.empty_like(h)
            root = np.empty_like(h)
            if full.any():
                sigma[full], root[full] = _exp_and_sqrt(h[full])
            for i in np.flatnonzero(~full):
                sigma[i], root[i] = self._restricted_sigma(i)
        return _readonly(sigma), _readonly(root), ~full

    def _restricted_sigma(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        # Singular rho_AB or rho_BC: exponentiate on the intersection P of
        # the embedded supports, sigma* = P exp(P h P) P. The kernel of P
        # carries eigenvalue 1 in exp(P h P), so sqrt(sigma*) takes its own
        # decomposition of sigma* rather than one of P h P.
        psd_ab, psd_bc, _ = self.marginal_psd
        dims = self.dims
        proj = _intersection_projector(
            embed(_psd_row(psd_ab, i).projector(), "AB", dims),
            embed(_psd_row(psd_bc, i).projector(), "BC", dims),
        )
        compressed = hermitian_part(proj @ self.exponent[i] @ proj)
        sig = hermitian_part(proj @ mat_exp(compressed) @ proj)
        return sig, mat_sqrt(sig)

    @property
    def sigma_star(self) -> np.ndarray:
        return self._sigma[0]

    @property
    def sqrt_sigma_star(self) -> np.ndarray:
        return self._sigma[1]

    @property
    def support_restricted(self) -> np.ndarray:
        return self._sigma[2]

    @cached_property
    def sigma_star_trace(self) -> np.ndarray:
        return np.trace(self.sigma_star, axis1=-2, axis2=-1).real

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        return self.rho_psd.sqrt()

    @cached_property
    def overlap(self) -> np.ndarray:
        """Tr[sqrt(rho) sqrt(sigma*)]."""
        return np.trace(self.sqrt_rho @ self.sqrt_sigma_star, axis1=-2, axis2=-1).real

    @cached_property
    def thm1(self) -> np.ndarray:
        """||sqrt(rho) - sqrt(sigma*)||_2^2."""
        return hs_norm(self.sqrt_rho - self.sqrt_sigma_star) ** 2

    # -- recovery operator and Markov residuals ---------------------------

    @cached_property
    def m(self) -> np.ndarray:
        """M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC), embedded.

        Evaluated at subsystem dimension: P = sqrt(rho_AB) (I_A (x)
        pinv_sqrt(rho_B)) on AB, then (P (x) I_C)(I_A (x) sqrt(rho_BC)) as
        one contraction over B, with entry ((a, b, c), (a', b', c')) the
        sum over b'' of P[(a, b), (a', b'')] sqrt(rho_BC)[(b'', c), (b', c')].
        """
        psd_ab, psd_bc, psd_b = self.marginal_psd
        d_a, d_b, d_c = self.dims
        k = len(self)
        p = psd_ab.sqrt().reshape(k, d_a * d_b * d_a, d_b) @ psd_b.power(-0.5)
        m = p @ psd_bc.sqrt().reshape(k, d_b, d_c * d_b * d_c)
        m = m.reshape(k, d_a, d_b, d_a, d_c, d_b, d_c).transpose(0, 1, 2, 4, 3, 5, 6)
        n = d_a * d_b * d_c
        return _readonly(m.reshape(k, n, n))

    @cached_property
    def m_mdag(self) -> np.ndarray:
        return _readonly(self.m @ dagger(self.m))

    @cached_property
    def mdag_m(self) -> np.ndarray:
        return _readonly(dagger(self.m) @ self.m)

    @cached_property
    def trace_distance(self) -> np.ndarray:
        """||rho - sigma*||_1."""
        return trace_norm(self.mat - self.sigma_star)

    @cached_property
    def gap_m(self) -> np.ndarray:
        """||rho - M M^dag||_1."""
        return trace_norm(self.mat - self.m_mdag)

    @cached_property
    def gap_mprime(self) -> np.ndarray:
        """||rho - M^dag M||_1."""
        return trace_norm(self.mat - self.mdag_m)

    @cached_property
    def commutator_norm(self) -> np.ndarray:
        """||[M, M^dag]||_1."""
        return trace_norm(self.m_mdag - self.mdag_m)

    @cached_property
    def ruskai(self) -> np.ndarray:
        """||log rho - h||_2 with support-restricted logs."""
        return hs_norm(self.rho_psd.log() - self.exponent)


def analyse_together(states: Sequence[TripartiteState]) -> None:
    """Give same-dims states one StackAnalysis, each its row as .analysis."""
    stack = StackAnalysis(states)
    for i, state in enumerate(states):
        # The slot functools.cached_property fills on first access.
        vars(state)["analysis"] = StateAnalysis(stack, i)


def _row(name: str, kind=None, doc: str | None = None) -> cached_property:
    # Row `index` of the stack's value `name`, optionally as a Python scalar.
    def get(self):
        value = getattr(self.stack, name)[self.index]
        return value if kind is None else kind(value)

    get.__doc__ = doc
    return cached_property(get)


class StateAnalysis:
    """The spectral data of one state: row `index` of a StackAnalysis.

    Scalars come back as Python floats and operators as read-only
    (n, n) views of the stack's arrays.
    """

    def __init__(self, stack: StackAnalysis, index: int):
        self.stack = stack
        self.index = index

    @cached_property
    def rho(self) -> DensityMatrix:
        """rho, validated, with its decomposition."""
        i = self.index
        return DensityMatrix(mat=self.stack.mat[i], eig=_psd_row(self.stack.rho_psd, i))

    @cached_property
    def marginals(self) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
        """Validated (rho_AB, rho_BC, rho_B), with their decompositions."""
        i = self.index
        return tuple(
            DensityMatrix(mat=mat[i], eig=_psd_row(e, i)) for mat, e, _ in self.stack.marginals
        )

    @property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs."""
        return tuple(m.eig for m in self.marginals)

    @property
    def rho_psd(self) -> PsdEigen:
        return self.rho.eig

    @cached_property
    def entropies(self) -> EntropyReport:
        e = self.stack.entropies
        i = self.index
        return EntropyReport(
            s_abc=float(e.s_abc[i]),
            s_ab=float(e.s_ab[i]),
            s_bc=float(e.s_bc[i]),
            s_b=float(e.s_b[i]),
            cmi=float(e.cmi[i]),
        )

    @property
    def cmi(self) -> float:
        return self.entropies.cmi

    @cached_property
    def embedded_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I."""
        return tuple(log[self.index] for log in self.stack.embedded_logs)

    rho_rank = _row("rho_rank", int, doc="Support rank of rho.")
    sigma_star = _row("sigma_star")
    sqrt_sigma_star = _row("sqrt_sigma_star")
    support_restricted = _row("support_restricted", bool)
    sigma_star_trace = _row("sigma_star_trace", float)
    overlap = _row("overlap", float, doc="Tr[sqrt(rho) sqrt(sigma*)].")
    thm1 = _row("thm1", float, doc="||sqrt(rho) - sqrt(sigma*)||_2^2.")
    trace_distance = _row("trace_distance", float, doc="||rho - sigma*||_1.")
    m = _row("m", doc="M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC), embedded.")
    m_mdag = _row("m_mdag")
    mdag_m = _row("mdag_m")
    gap_m = _row("gap_m", float, doc="||rho - M M^dag||_1.")
    gap_mprime = _row("gap_mprime", float, doc="||rho - M^dag M||_1.")
    commutator_norm = _row("commutator_norm", float, doc="||[M, M^dag]||_1.")
    ruskai = _row("ruskai", float, doc="||log rho - h||_2 with support-restricted logs.")


class ChannelAnalysis:
    """Lazily computed spectral data of one channel triple (rho, sigma, phi).

    The channel bound compares the data-processing gap
    lhs = S(rho || sigma) - S(phi(rho) || phi(sigma)) with
    rhs = -2 log Tr[sqrt(rho) sqrt(X)] for the exp operator
    X = exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma))).
    Every value reads the same decompositions:

    * one of each of rho, sigma, phi(rho) and phi(sigma), which serves its
      validation, entropy, log, sqrt and inverse sqrt;
    * one of the exponent, which gives X;
    * one of X, which gives sqrt(X) bitwise as mat_sqrt(X) does (the
      exponent's would give it only to the last bits);
    * one spectrum for the Petz recovery gap ||rho - P(phi(rho))||_1.

    rho and sigma are DensityMatrix values, validated with their
    decompositions, which are read here. The checks raise with the errors
    of channel_gap_bound, channel_exp_operator and petz_dual, in their
    order: rho and then sigma must be full rank (on construction), then
    phi(rho) and phi(sigma) are validated; X needs both full rank, and the
    Petz map needs phi(sigma) nonsingular.
    """

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix, phi: KrausChannel):
        _require_full_rank(rho, "rho")
        _require_full_rank(sigma, "sigma")
        self.rho = rho
        self.sigma = sigma
        self.phi = phi

    @cached_property
    def _phi_rho(self) -> np.ndarray:
        # phi(rho) as the channel returns it, which the Petz map recovers.
        return self.phi.apply(self.rho.mat)

    @cached_property
    def _outputs(self) -> tuple[DensityMatrix, DensityMatrix]:
        # phi(rho) and phi(sigma), validated, with their decompositions.
        return validate_density(self._phi_rho), validate_density(self.phi.apply(self.sigma.mat))

    @cached_property
    def lhs(self) -> float:
        """S(rho || sigma) - S(phi(rho) || phi(sigma))."""
        out_rho, out_sigma = self._outputs
        return float(rel_entropy(self.rho, self.sigma) - rel_entropy(out_rho, out_sigma))

    @cached_property
    def exp_operator(self) -> np.ndarray:
        """exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma)))."""
        out_rho, out_sigma = self._outputs
        _require_full_rank(out_rho, "phi(rho)")
        _require_full_rank(out_sigma, "phi(sigma)")
        phi = self.phi
        x = self.sigma.eig.log() + phi.dual(out_rho.eig.log()) - phi.dual(out_sigma.eig.log())
        e = _eigh_symmetrized(hermitian_part(x))
        return _readonly(hermitian_part(e.apply(np.exp(e.eigenvalues))))

    @cached_property
    def trace_exp(self) -> float:
        """Tr X, at most 1 if the conjectured trace bound holds."""
        return float(np.trace(self.exp_operator).real)

    @cached_property
    def rhs(self) -> float:
        """-2 log Tr[sqrt(rho) sqrt(X)], the lower bound on lhs."""
        ex = self.exp_operator
        overlap = np.trace(self.rho.eig.sqrt() @ psd_eig(ex, "sqrt").sqrt())
        return _overlap_bound(float(overlap.real))

    @cached_property
    def petz(self) -> KrausChannel:
        """The Petz transpose of phi with respect to sigma (channels.petz_dual)."""
        return _petz_dual(self.phi, self.sigma.eig, self._outputs[1].eig)

    @cached_property
    def petz_gap(self) -> float:
        """||rho - P(phi(rho))||_1 for the Petz map P."""
        return trace_norm(self.rho.mat - self.petz.apply(self._phi_rho))
