"""One spectral analysis per tripartite state, computed on stacks of states.

Every per-state diagnostic reads the same decompositions:

* one eigendecomposition of each marginal rho_AB, rho_BC and rho_B, which
  serves its entropy, log, sqrt and pseudo-inverse sqrt;
* one of rho, which serves S(ABC), sqrt(rho) and log(rho);
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

Each piece is computed on first use and then kept, so a stack pays for
each decomposition at most once. StateAnalysis is one state's row of a
stack; TripartiteState.analysis holds it, and the functions in entropy,
bounds, recovery and harness are views over it. A state analysed on its
own is a stack of one; analyse_together gives several states one stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .entropy import EntropyReport, spectrum_entropy
from .errors import DimensionMismatchError
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
from .states import DensityMatrix, TripartiteState, _traced_out, _validated, embed
from .trace_inequalities import lieb_triple_rhs_in_eigenbasis

MARGINALS = ("AB", "BC", "B")


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

    # -- marginals -------------------------------------------------------

    @cached_property
    def marginals(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(read-only stack, support ranks) of rho_AB, rho_BC and rho_B, validated."""
        return tuple(_validated(_traced_out(self.mat, self.dims, keep)) for keep in MARGINALS)

    @cached_property
    def marginal_eigs(self) -> tuple[HermitianEigen, HermitianEigen, HermitianEigen]:
        return tuple(_eigh(mat) for mat, _ in self.marginals)

    @cached_property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs (raises if not PSD)."""
        return tuple(as_psd(e, "log") for e in self.marginal_eigs)

    @cached_property
    def rho_eig(self) -> HermitianEigen:
        return _eigh(self.mat)

    @cached_property
    def rho_psd(self) -> PsdEigen:
        return as_psd(self.rho_eig, "sqrt")

    # -- entropies -------------------------------------------------------

    @cached_property
    def entropies(self) -> EntropyReport:
        """The entropies and the cmi, each an array over the stack."""
        s_ab, s_bc, s_b = (spectrum_entropy(e.eigenvalues) for e in self.marginal_eigs)
        s_abc = spectrum_entropy(self.rho_eig.eigenvalues)
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
        (ab, rank_ab), (bc, rank_bc), _ = self.marginals
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
        """M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC), embedded."""
        psd_ab, psd_bc, psd_b = self.marginal_psd
        dims = self.dims
        left = embed(psd_ab.sqrt(), "AB", dims)
        middle = embed(psd_b.power(-0.5), "B", dims)
        right = embed(psd_bc.sqrt(), "BC", dims)
        return _readonly(left @ middle @ right)

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

    def lieb_rhs_of(self, rows: np.ndarray) -> np.ndarray:
        """lieb_triple_rhs(rho_AB (x) I, I (x) rho_B (x) I, I (x) rho_BC) for
        the states `rows` (an index or mask array) of the stack.

        The middle operand has eigenvectors I (x) Q_B (x) I, where Q_B
        diagonalizes rho_B, so the two outer operands are rotated by the
        small factors I_A (x) Q_B and Q_B (x) I_C and embedded afterwards.
        """
        (rho_ab, _), (rho_bc, _), _ = self.marginals
        _, _, psd_b = self.marginal_psd
        d_a, d_b, d_c = dims = self.dims
        q = psd_b.eigenvectors[rows]
        u_ab = embed(q, "B", (d_a, d_b, 1))
        u_bc = embed(q, "B", (1, d_b, d_c))
        rr = embed(dagger(u_ab) @ rho_ab[rows] @ u_ab, "AB", dims)
        tt = embed(dagger(u_bc) @ rho_bc[rows] @ u_bc, "BC", dims)
        w = psd_b.eigenvalues[rows]
        ws = np.broadcast_to(w[:, None, :, None], (len(w), d_a, d_b, d_c)).reshape(len(w), -1)
        return lieb_triple_rhs_in_eigenbasis(rr, tt, ws, psd_b.cutoff[rows])

    @cached_property
    def lieb_rhs(self) -> np.ndarray:
        """lieb_rhs_of every state, NaN where rho_B is singular."""
        _, _, psd_b = self.marginal_psd
        regular = psd_b.rank == self.dims[1]
        out = np.full(len(self), np.nan)
        if np.any(regular):
            out[regular] = self.lieb_rhs_of(regular)
        return out


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
    def marginals(self) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
        """Validated (rho_AB, rho_BC, rho_B)."""
        i = self.index
        return tuple(
            DensityMatrix(mat=mat[i], support_rank=int(rank[i]))
            for mat, rank in self.stack.marginals
        )

    @cached_property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs (raises if not PSD)."""
        return tuple(_psd_row(e, self.index) for e in self.stack.marginal_psd)

    @cached_property
    def rho_psd(self) -> PsdEigen:
        return _psd_row(self.stack.rho_psd, self.index)

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

    @cached_property
    def lieb_rhs(self) -> float:
        """lieb_triple_rhs(rho_AB (x) I, I (x) rho_B (x) I, I (x) rho_BC).

        Raises SingularMatrixError when rho_B is singular.
        """
        value = float(self.stack.lieb_rhs[self.index])
        if np.isnan(value):
            self.stack.lieb_rhs_of(np.array([self.index]))  # raises
        return value
