"""One spectral analysis per tripartite state, computed on stacks of states.

Every per-state diagnostic reads the same decompositions:

* one eigendecomposition of each marginal rho_AB, rho_BC and rho_B, which
  serves its validation, entropy, log, sqrt and pseudo-inverse sqrt;
* one of rho, which serves its validation and S(ABC);
* one of the exponent h = log rho_AB - log rho_B + log rho_BC, which gives
  sigma* = exp(h);
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
read the decompositions it keeps.

A row of a report is scalars, so the analysis keeps decompositions and
scalars and not the operators between them. It keeps rho's, the
marginals' and exp(h)'s decompositions, M M^dag and M^dag M (two of the
three trace norms that read them are all classify needs), and each
scalar. Each group of scalars is computed from one build of its
operators, which is freed before the next group: Tr sigma* and
||rho - sigma*||_1 from sigma*, the M products from M, and the overlap,
thm1 and ruskai as sums over the transfer matrix W = |Q^dag V|^2, for Q
rho's and V sigma*'s eigenvectors, which is not kept. h, the embedded
logs, sigma* and M are built on demand, for the rows asked for,
read-only and not kept. Each piece is computed on first use, so a stack
pays for each decomposition at most once. StateAnalysis is one state's
row of a stack, and TripartiteState.analysis holds it. It is the one
read path of every value above: callers read state.analysis.cmi,
.sigma_star, .m, .ruskai, .gap_m and the rest, with the bound chain
.log_overlap_bound, .thm1 and .corollary_bound, and bound_report,
classify, evaluate_sample and the slacks of qcmi.inequalities read the
same attributes. A state analysed on its own is a stack of one;
analyse_together gives several states one stack.

ChannelAnalysis does the same for one channel triple (rho, sigma, phi)
of the channel bound and the Petz recovery: one decomposition per matrix,
and the bound's overlap as a sum over the same transfer matrix. It is the
read path of the channel bound (lhs, rhs, exp_operator) and is exported
as qcmi.ChannelAnalysis.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .channels import KrausChannel, _petz_dual
from .entropy import EntropyReport, _outside_support, _rel_entropy, spectrum_entropy
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
    psd_eig,
    trace_norm,
)
from .states import (
    MARGINALS,
    DensityMatrix,
    TripartiteState,
    _frozen,
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


def _intersection_projector(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Intersection of the ranges of two orthogonal projectors: the
    # eigenvalue-2 eigenspace of p + q.
    e = _eigh(p + q)
    cols = e.eigenvectors[:, e.eigenvalues > 2.0 - INTERSECTION_TOL]
    return hermitian_part(cols @ dagger(cols))


def _exp_eigen(h: np.ndarray) -> PsdEigen:
    # exp(h) as a decomposition, from one decomposition of h. Its sqrt
    # keeps mat_sqrt's rule: eigenvalues e^w at or below the support
    # cutoff of the spectrum e^w count as zero.
    e = _eigh(h)
    return as_psd(HermitianEigen(np.exp(e.eigenvalues), e.eigenvectors), "sqrt")


def _transfer(p: HermitianEigen, q: HermitianEigen) -> np.ndarray:
    # W = |P^dag Q|^2 elementwise for eigenvectors P and Q, doubly stochastic:
    # Tr[f(A) g(B)] = sum_ij W_ij f(a_i) g(b_j) (Nussbaum-Szkola).
    t = dagger(p.eigenvectors) @ q.eigenvectors
    return t.real**2 + t.imag**2


def _psd_rows(e: PsdEigen, rows: int | slice | list[int]) -> PsdEigen:
    # The decompositions `rows` of a stack, views for an index or a slice.
    return PsdEigen(
        eigenvalues=e.eigenvalues[rows], eigenvectors=e.eigenvectors[rows], cutoff=e.cutoff[rows]
    )


# Every state of a stack, as the rows of a stack's on-demand operators.
ALL = slice(None)


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
        self.mat = mats[0][np.newaxis] if len(mats) == 1 else _frozen(np.stack(mats))
        self.dims = dims

    def __len__(self) -> int:
        return self.mat.shape[0]

    # -- rho and its marginals, validated ---------------------------------

    @cached_property
    def rho_psd(self) -> PsdEigen:
        """The decomposition of rho, validated."""
        return _validated(self.mat)[1]

    @cached_property
    def marginals(self) -> tuple[tuple[np.ndarray, PsdEigen], ...]:
        """(read-only stack, decomposition) of rho_AB, rho_BC and rho_B,
        validated after rho."""
        self.rho_psd  # rho is validated first; every other value derives from it or these
        return tuple(_validated(_traced_out(self.mat, self.dims, keep)) for keep in MARGINALS)

    @property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs."""
        return tuple(e for _, e in self.marginals)

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

    def embedded_logs(self, rows: slice = ALL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I of
        the states `rows`, built on each call."""
        return tuple(
            _frozen(embed(_psd_rows(e, rows).log(), keep, self.dims))
            for e, keep in zip(self.marginal_psd, MARGINALS)
        )

    def exponent(self, rows: slice = ALL) -> np.ndarray:
        """h = log rho_AB + log rho_BC - log rho_B, all embedded, of the
        states `rows`, built on each call.

        It is summed in place one embedded log at a time, with the additions
        of the formula in its order.
        """
        psd_ab, psd_bc, psd_b = (_psd_rows(e, rows) for e in self.marginal_psd)
        h = embed(psd_ab.log(), "AB", self.dims)
        h += embed(psd_bc.log(), "BC", self.dims)
        h -= embed(psd_b.log(), "B", self.dims)
        return _frozen(h)

    @cached_property
    def _sigma(self) -> tuple[PsdEigen, dict[int, np.ndarray], np.ndarray]:
        # (decomposition of sigma*, sigma* of the support-restricted rows,
        # support_restricted). A full-rank row's decomposition is exp(h)'s,
        # from which sigma* is rebuilt; a restricted row keeps its sigma*,
        # and its decomposition is the one mat_sqrt makes of it. h is built
        # for this and not kept.
        h = self.exponent()
        (ab, psd_ab), (bc, psd_bc), _ = self.marginals
        full = (psd_ab.rank == ab.shape[-1]) & (psd_bc.rank == bc.shape[-1])
        if full.all():  # the common case, without copies into a mixed stack
            return _exp_eigen(h), {}, ~full
        w, v, cutoff = np.empty(h.shape[:-1]), np.empty_like(h), np.empty(len(self))
        if full.any():
            e = _exp_eigen(h[full])
            w[full], v[full], cutoff[full] = e.eigenvalues, e.eigenvectors, e.cutoff
        restricted = {}
        for i in np.flatnonzero(~full):
            sig = self._restricted_sigma(i, h[i])
            e = psd_eig(sig, "sqrt")
            w[i], v[i], cutoff[i] = e.eigenvalues, e.eigenvectors, e.cutoff
            restricted[int(i)] = _frozen(sig)
        return PsdEigen(eigenvalues=w, eigenvectors=v, cutoff=cutoff), restricted, ~full

    def _restricted_sigma(self, i: int, h: np.ndarray) -> np.ndarray:
        # Singular rho_AB or rho_BC: exponentiate on the intersection P of
        # the embedded supports, sigma* = P exp(P h P) P, for h row i's
        # exponent. The kernel of P carries eigenvalue 1 in exp(P h P), so
        # the overlap and thm1 take their own decomposition of sigma* rather
        # than one of P h P.
        psd_ab, psd_bc, _ = self.marginal_psd
        dims = self.dims
        proj = _intersection_projector(
            embed(_psd_rows(psd_ab, i).projector(), "AB", dims),
            embed(_psd_rows(psd_bc, i).projector(), "BC", dims),
        )
        compressed = hermitian_part(proj @ h @ proj)
        return hermitian_part(proj @ mat_exp(compressed) @ proj)

    def _new_sigma_star(self, rows: slice) -> np.ndarray:
        # sigma* of the states `rows` in a new, writable array: rebuilt from
        # exp(h)'s decomposition for the full-rank rows, copied for the others.
        ex, restricted, _ = self._sigma
        index = range(len(self))[rows]
        full = [i for i in index if i not in restricted]
        e = _psd_rows(ex, rows if len(full) == len(index) else full)
        sigma = hermitian_part(e.apply(e.eigenvalues))
        if len(full) == len(index):
            return sigma
        rebuilt = iter(sigma)
        return np.stack([restricted[i] if i in restricted else next(rebuilt) for i in index])

    def sigma_star(self, rows: slice = ALL) -> np.ndarray:
        """sigma* = exp(h) of the states `rows`, built on each call."""
        return _frozen(self._new_sigma_star(rows))

    support_restricted = property(lambda self: self._sigma[2])

    @cached_property
    def _sigma_values(self) -> tuple[np.ndarray, np.ndarray]:
        # Tr sigma* and ||rho - sigma*||_1 from one build of sigma*, whose
        # array then takes rho - sigma*.
        sigma = self._new_sigma_star(ALL)
        trace = np.trace(sigma, axis1=-2, axis2=-1).real
        return trace, trace_norm(np.subtract(self.mat, sigma, out=sigma))

    sigma_star_trace = property(lambda self: self._sigma_values[0])
    trace_distance = property(lambda self: self._sigma_values[1], doc="||rho - sigma*||_1.")

    @cached_property
    def _chain_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The overlap, thm1 and ruskai as sums over W = |Q^dag V|^2 (Q rho's,
        # V sigma*'s eigenvectors): the Bhattacharyya coefficient and squared
        # Hellinger distance of the Nussbaum-Szkola pair (lambda_i W_ij, mu_j W_ij).
        rho, (sig, _, restricted) = self.rho_psd, self._sigma
        w = _transfer(rho, sig)
        a, b = rho._on_support(np.sqrt), sig._on_support(np.sqrt)
        overlap = np.einsum("kij,ki,kj->k", w, a, b)
        d = a[:, :, None] - b[:, None, :]
        thm1 = np.einsum("kij,kij,kij->k", d, d, w)
        # Full-rank rows: sigma* = exp(h), whose log mu_j are h's eigenvalues.
        # Terms reach ~100; einsum's two-operand reduction keeps ruskai within
        # 4.3e-14 of ||log rho - h||_2 at 5,5,5 (an in-order sum: 9.9e-14).
        log_mu = np.log(np.where(restricted[:, None], 1.0, sig.eigenvalues))
        d = rho._on_support(np.log)[:, :, None] - log_mu[:, None, :]
        ruskai = np.sqrt(np.einsum("kij,kij->k", w, d**2))
        for i in np.flatnonzero(restricted):
            # Here sigma* is not exp(h): ||log rho - h||_2 from h itself.
            row = slice(i, i + 1)
            log = _psd_rows(rho, row).log()
            ruskai[i] = hs_norm(np.subtract(log, self.exponent(row), out=log))[0]
        return overlap, thm1, ruskai

    overlap = property(lambda self: self._chain_values[0], doc="Tr[sqrt(rho) sqrt(sigma*)].")
    thm1 = property(lambda self: self._chain_values[1], doc="||sqrt(rho) - sqrt(sigma*)||_2^2.")
    ruskai = property(lambda self: self._chain_values[2], doc="||log rho - h||_2 on supports.")

    # -- recovery operator and Markov residuals ---------------------------

    def m(self, rows: slice = ALL) -> np.ndarray:
        """M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC), embedded, of the
        states `rows`, built on each call.

        Evaluated at subsystem dimension: P = sqrt(rho_AB) (I_A (x)
        pinv_sqrt(rho_B)) on AB, then (P (x) I_C)(I_A (x) sqrt(rho_BC)) as
        one contraction over B, with entry ((a, b, c), (a', b', c')) the
        sum over b'' of P[(a, b), (a', b'')] sqrt(rho_BC)[(b'', c), (b', c')].
        """
        psd_ab, psd_bc, psd_b = (_psd_rows(e, rows) for e in self.marginal_psd)
        d_a, d_b, d_c = self.dims
        k = len(psd_ab.eigenvalues)
        p = psd_ab.sqrt().reshape(k, d_a * d_b * d_a, d_b) @ psd_b.power(-0.5)
        m = p @ psd_bc.sqrt().reshape(k, d_b, d_c * d_b * d_c)
        m = m.reshape(k, d_a, d_b, d_a, d_c, d_b, d_c).transpose(0, 1, 2, 4, 3, 5, 6)
        n = d_a * d_b * d_c
        return _frozen(m.reshape(k, n, n))

    @cached_property
    def _m_products(self) -> tuple[np.ndarray, np.ndarray]:
        # M M^dag and M^dag M from one build of M. They are kept: each is
        # read by two trace norms, and classify reads only two of the three.
        m = self.m()
        m_dag = dagger(m)
        return _frozen(m @ m_dag), _frozen(m_dag @ m)

    m_mdag = property(lambda self: self._m_products[0])
    mdag_m = property(lambda self: self._m_products[1])

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


def _built(name: str, doc: str | None = None) -> property:
    # The stack's operator `name` built for this state alone on each read,
    # a read-only (n, n) array that nothing keeps.
    def get(self):
        return getattr(self.stack, name)(self._rows)[0]

    get.__doc__ = doc
    return property(get)


class StateAnalysis:
    """The spectral data of one state: row `index` of a StackAnalysis.

    Scalars come back as Python floats and operators as read-only (n, n)
    arrays: M M^dag and M^dag M are views of the stack's, and the others
    are built for this state alone on each read.
    """

    def __init__(self, stack: StackAnalysis, index: int):
        self.stack = stack
        self.index = index

    @cached_property
    def rho(self) -> DensityMatrix:
        """rho, validated, with its decomposition."""
        i = self.index
        return DensityMatrix(mat=self.stack.mat[i], eig=_psd_rows(self.stack.rho_psd, i))

    @cached_property
    def marginals(self) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
        """Validated (rho_AB, rho_BC, rho_B), with their decompositions."""
        i = self.index
        return tuple(
            DensityMatrix(mat=mat[i], eig=_psd_rows(e, i)) for mat, e in self.stack.marginals
        )

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

    @property
    def _rows(self) -> slice:
        # This state as the rows of the stack's on-demand operators.
        return slice(self.index, self.index + 1)

    @property
    def embedded_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I."""
        return tuple(log[0] for log in self.stack.embedded_logs(self._rows))

    sigma_star = _built("sigma_star")
    support_restricted = _row("support_restricted", bool)
    sigma_star_trace = _row("sigma_star_trace", float)
    overlap = _row("overlap", float, doc="Tr[sqrt(rho) sqrt(sigma*)].")
    thm1 = _row("thm1", float, doc="||sqrt(rho) - sqrt(sigma*)||_2^2.")
    trace_distance = _row("trace_distance", float, doc="||rho - sigma*||_1.")
    m = _built("m", doc="M = sqrt(rho_AB) pinv_sqrt(rho_B) sqrt(rho_BC), embedded.")
    m_mdag = _row("m_mdag")
    mdag_m = _row("mdag_m")
    gap_m = _row("gap_m", float, doc="||rho - M M^dag||_1.")
    gap_mprime = _row("gap_mprime", float, doc="||rho - M^dag M||_1.")
    commutator_norm = _row("commutator_norm", float, doc="||[M, M^dag]||_1.")
    ruskai = _row("ruskai", float, doc="||log rho - h||_2 with support-restricted logs.")

    @cached_property
    def log_overlap_bound(self) -> float:
        """-2 log Tr[sqrt(rho) sqrt(sigma*)], infinite at zero overlap."""
        return _overlap_bound(self.overlap)

    @cached_property
    def corollary_bound(self) -> float:
        """||rho - sigma*||_1^2 / 4."""
        return 0.25 * self.trace_distance**2


class ChannelAnalysis:
    """Lazily computed spectral data of one channel triple (rho, sigma, phi).

    The channel bound compares the data-processing gap
    lhs = S(rho || sigma) - S(phi(rho) || phi(sigma)) with
    rhs = -2 log Tr[sqrt(rho) sqrt(X)] for the exp operator
    X = exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma))).
    Every value reads the same decompositions:

    * one of each of rho, sigma, phi(rho) and phi(sigma), which serves its
      validation, entropy, log, sqrt and inverse sqrt;
    * one of the exponent, which gives X and its square root; the overlap
      Tr[sqrt(rho) sqrt(X)] is a sum over the transfer matrix of rho's and
      the exponent's eigenvectors, so no operator but X is built;
    * one spectrum for the Petz recovery gap ||rho - P(phi(rho))||_1.

    From these it builds six matrix functions: log sigma, log phi(rho) and
    log phi(sigma), each once for lhs and the exponent, X for its trace,
    and sqrt(sigma) and phi(sigma)^(-1/2) for the Petz map.

    rho and sigma are DensityMatrix values, validated with their
    decompositions, which are read here. The checks raise in this order:
    rho and then sigma must be full rank (SingularMatrixError, on
    construction), then phi(rho) and phi(sigma) are validated; X needs
    both full rank, and the Petz map needs phi(sigma) nonsingular, with
    the errors of channels.petz_dual.
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
    def _logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # log sigma, log phi(rho) and log phi(sigma), support-restricted,
        # each built once for lhs and X's exponent.
        out_rho, out_sigma = self._outputs
        return self.sigma.eig.log(), out_rho.eig.log(), out_sigma.eig.log()

    @cached_property
    def lhs(self) -> float:
        """S(rho || sigma) - S(phi(rho) || phi(sigma))."""
        out_rho, out_sigma = self._outputs
        log_sigma, _, log_out_sigma = self._logs
        # sigma is full rank (checked on construction): rho is within its support.
        s_in = _rel_entropy(self.rho, log_sigma)
        if _outside_support(out_rho, out_sigma):
            return float(s_in - math.inf)
        return float(s_in - _rel_entropy(out_rho, log_out_sigma))

    @cached_property
    def _x(self) -> PsdEigen:
        # X = exp(x) as a decomposition, from one of its exponent x, with
        # mat_sqrt's support cutoff.
        out_rho, out_sigma = self._outputs
        _require_full_rank(out_rho, "phi(rho)")
        _require_full_rank(out_sigma, "phi(sigma)")
        log_sigma, log_out_rho, log_out_sigma = self._logs
        return _exp_eigen(log_sigma + self.phi.dual(log_out_rho) - self.phi.dual(log_out_sigma))

    @cached_property
    def exp_operator(self) -> np.ndarray:
        """exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma)))."""
        e = self._x
        return _frozen(hermitian_part(e.apply(e.eigenvalues)))

    @cached_property
    def trace_exp(self) -> float:
        """Tr X, at most 1 if the conjectured trace bound holds."""
        return float(np.trace(self.exp_operator).real)

    @cached_property
    def rhs(self) -> float:
        """-2 log Tr[sqrt(rho) sqrt(X)], the lower bound on lhs."""
        rho, x = self.rho.eig, self._x
        a, b = rho._on_support(np.sqrt), x._on_support(np.sqrt)
        return _overlap_bound(float(np.einsum("ij,i,j->", _transfer(rho, x), a, b)))

    @cached_property
    def petz(self) -> KrausChannel:
        """The Petz transpose of phi with respect to sigma (channels.petz_dual)."""
        return _petz_dual(self.phi, self.sigma.eig, self._outputs[1].eig)

    @cached_property
    def petz_gap(self) -> float:
        """||rho - P(phi(rho))||_1 for the Petz map P."""
        return trace_norm(self.rho.mat - self.petz.apply(self._phi_rho))
