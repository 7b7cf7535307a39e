"""One spectral analysis per tripartite state, computed on stacks of states.

Every per-state diagnostic reads the same decompositions:

* one eigendecomposition of each marginal rho_AB, rho_BC and rho_B, which
  serves its validation, entropy, log, sqrt and pseudo-inverse sqrt;
* one of rho, which serves its validation and S(ABC);
* one of the exponent h = log rho_AB - log rho_B + log rho_BC, which gives
  sigma* = exp(h), or for singular rho_AB or rho_BC one of the sum of the
  embedded support projectors and one of h compressed onto the
  intersection P of those supports, which give sigma* = P exp(P h P) P;
* one spectrum per trace norm: rho - sigma*, rho - M M^dag, rho - M^dag M
  and [M, M^dag].

StackAnalysis computes these for k states of the same dims at once, on
(k, n, n) arrays: one stacked call per kind of decomposition and stacked
matrix products, so the per-call cost of numpy and LAPACK is paid once per
stack rather than once per state. Stacked eigh, eigvalsh and matmul give
each matrix bitwise the result of a call on that matrix alone (the
grouping-invariance tests check this), so a state's values do not depend
on the stack it was analysed in.

rho's eigh and the exponent's do not depend on each other. For a large
stack, of k * n**3 at least linalg.EIGH_AHEAD_WORK = 2**18 (3,3,3 scans'
stacks of 22, and every stack from n = 64 up, so each 5,5,5 sample), rho
is decomposed on the package's one worker thread, requested when the
stack is built. Meanwhile the first read of the marginals builds sigma*'s
chain on the calling thread (the marginals, their logs, h and its eigh)
with the functions that build it lazily, and keeps it once rho is
validated; if the worker has not started on rho by then, the caller
cancels it and decomposes rho itself (linalg's _eigh_done). A part of
the chain that raises there is built again after
rho's checks, so every error surfaces at the same read, with the same type
and message, as when rho is decomposed inline, which a smaller stack
does. Values are bitwise those of the inline path, and the BLAS thread
count is left as it is.

The analysis validates rho (Hermitian already: its state's constructor
or sampler made it so) with states._checked and its marginals with
states._validated, the one density check, from these decompositions,
before it derives anything from them. That is where a TripartiteState is
validated, and consumers read the decompositions it keeps.

A row of a report is scalars, so the analysis keeps decompositions and
scalars and not the operators between them. It keeps rho's, the
marginals' and sigma*'s decompositions, the three marginal logs at
marginal dimension (built once, for h and the embedded logs), M M^dag
and M^dag M (two of the three trace norms that read them are all
classify needs), and each scalar. Each group of scalars is computed from
one build of its operators, which is freed before the next group:
Tr sigma* and ||rho - sigma*||_1 from sigma*, the M products from M, and
the overlap, thm1 and ruskai as sums over the transfer matrix
W = |Q^dag V|^2, for Q rho's and V sigma*'s eigenvectors, which is not
kept. h, the embedded logs, sigma* (rebuilt from its decomposition, for
every row alike) and M are built on demand, for the rows asked for,
read-only and not kept. Each piece is computed on first use, so a stack
pays for each decomposition at most once. Each scalar is kept once, as
a column: a list of Python floats over the stack, converted where it is
computed and held by the attribute that computes it; a scan builds its
rows from the columns.
StateAnalysis is one state's row of a stack, and
TripartiteState.analysis holds it. It is the one read path of every
value above: callers read state.analysis.cmi, .sigma_star, .m, .ruskai,
.gap_m and the rest, with the bound chain .log_overlap_bound, .thm1 and
.corollary_bound, each scalar its entry of the stack's column, and
classify, qcmi info and the slacks of qcmi.inequalities read the same
attributes. A state analysed on its own is a stack of one. A scan's
group of samples is built as one (k, n, n) array (qcmi.sampling), which
its stack reads as it is and its states view.

ChannelAnalysis does the same for one channel triple (rho, sigma, phi)
of the channel bound and the Petz recovery: one decomposition per matrix,
and the bound's overlap as a sum over the same transfer matrix. The exp
operator X, like sigma*, is rebuilt from its decomposition on each read.
It is the read path of the channel bound (lhs, rhs, exp_operator) and is
exported as qcmi.ChannelAnalysis.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .channels import KrausChannel, _petz_dual
from .entropy import EntropyReport, _entropy, _outside_support, _rel_entropy
from .linalg import (
    HermitianEigen,
    PsdEigen,
    _eigh,
    _eigh_ahead,
    _exp_eigen,
    _rebuilt,
    _with_cutoff,
    dagger,
    hs_norm,
    trace_norm,
)
from .states import (
    MARGINALS,
    DensityMatrix,
    TripartiteState,
    _checked,
    _frozen,
    _require_full_rank,
    _state,
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


def _transfer(p: HermitianEigen, q: HermitianEigen) -> np.ndarray:
    # W = |P^dag Q|^2 elementwise for eigenvectors P and Q, doubly stochastic:
    # Tr[f(A) g(B)] = sum_ij W_ij f(a_i) g(b_j) (Nussbaum-Szkola).
    t = dagger(p.eigenvectors) @ q.eigenvectors
    return t.real**2 + t.imag**2


# Every state of a stack, as the rows of a stack's on-demand operators.
ALL = slice(None)


def _psd_rows(e: PsdEigen, rows: int | slice | list[int]) -> PsdEigen:
    # The decompositions `rows` of a stack, views for an index or a slice,
    # and e itself for ALL.
    if rows is ALL:
        return e
    return PsdEigen(
        eigenvalues=e.eigenvalues[rows], eigenvectors=e.eigenvectors[rows], cutoff=e.cutoff[rows]
    )


class StackAnalysis:
    """Lazily computed spectral data of k states with the same dims.

    Operators have shape (k, n, n), and each scalar is a list of k Python
    floats (bools for support_restricted). A stacked computation that
    raises names the first failing matrix of the stack; analyse each
    state alone to find which state fails.
    """

    def __init__(self, mat: np.ndarray, dims: tuple[int, int, int]):
        # mat is the read-only (k, n, n) stack itself, not copied. The
        # analysis holds the matrices rather than the states: holding a
        # state would make a reference cycle with its analysis, and every
        # analysed state's operators would then stay in memory until the
        # cyclic garbage collector happens to run.
        self.mat = mat
        self.dims = dims
        # rho's eigh, requested now: a large stack's is computed on the
        # worker thread while this one builds sigma*'s chain (marginals).
        self._rho_eigh, self._rho_ahead = _eigh_ahead(mat)

    def __len__(self) -> int:
        return self.mat.shape[0]

    # -- rho and its marginals, validated ---------------------------------

    @cached_property
    def rho_psd(self) -> PsdEigen:
        """The decomposition of rho, validated."""
        return _checked(self.mat, self._rho_eigh())

    @cached_property
    def marginals(self) -> tuple[tuple[np.ndarray, PsdEigen], ...]:
        """(read-only stack, decomposition) of rho_AB, rho_BC and rho_B,
        validated after rho."""
        if self._rho_ahead and "rho_psd" not in vars(self):
            return self._marginals_ahead()
        self.rho_psd  # rho is validated first; every other value derives from it or these
        return self._validated_marginals()

    def _validated_marginals(self) -> tuple[tuple[np.ndarray, PsdEigen], ...]:
        return tuple(_validated(_traced_out(self.mat, self.dims, keep)) for keep in MARGINALS)

    def _marginals_ahead(self) -> tuple[tuple[np.ndarray, PsdEigen], ...]:
        # marginals while the worker decomposes rho: sigma*'s chain (the
        # marginals, their logs and sigma*'s decomposition) is built here
        # first, by the functions that build it lazily, and kept only once
        # rho is validated. A part of the chain that raises is dropped and
        # built again lazily, after rho's checks, so every error surfaces
        # where it does when nothing is built ahead. A later read, after
        # such an error, takes the lazy path.
        self._rho_ahead = False
        cache = vars(self)
        try:
            cache["marginals"] = self._validated_marginals()
            self._sigma
        except Exception:
            pass
        try:
            self.rho_psd
        except Exception:
            for name in ("marginals", "_marginal_logs", "_sigma"):
                cache.pop(name, None)
            raise
        return cache["marginals"] if "marginals" in cache else self._validated_marginals()

    @property
    def marginal_psd(self) -> tuple[PsdEigen, PsdEigen, PsdEigen]:
        """Marginal decompositions with their support cutoffs."""
        return tuple(e for _, e in self.marginals)

    # -- entropies -------------------------------------------------------

    @cached_property
    def entropies(self) -> EntropyReport:
        """The entropies and the cmi, each a list over the stack."""
        s_ab, s_bc, s_b = (_entropy(e) for e in self.marginal_psd)
        s_abc = _entropy(self.rho_psd)
        cmi = s_ab + s_bc - s_abc - s_b
        return EntropyReport(*(x.tolist() for x in (s_abc, s_ab, s_bc, s_b, cmi)))

    cmi = property(lambda self: self.entropies.cmi, doc="S(AB) + S(BC) - S(ABC) - S(B).")

    # -- sigma* and the bound chain ---------------------------------------

    @cached_property
    def _marginal_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # log rho_AB, log rho_BC and log rho_B of every state, support-
        # restricted, at marginal dimension. exponent and embedded_logs
        # embed the rows they are asked for; the embedded logs are not kept.
        return tuple(_frozen(e.log()) for e in self.marginal_psd)

    def embedded_logs(self, rows: slice = ALL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I of
        the states `rows`, built on each call."""
        return tuple(
            _frozen(embed(log[rows], keep, self.dims))
            for log, keep in zip(self._marginal_logs, MARGINALS)
        )

    def exponent(self, rows: slice = ALL) -> np.ndarray:
        """h = log rho_AB + log rho_BC - log rho_B, all embedded, of the
        states `rows`, built on each call.

        It is summed in place one embedded log at a time, with the additions
        of the formula in its order.
        """
        log_ab, log_bc, log_b = (log[rows] for log in self._marginal_logs)
        h = embed(log_ab, "AB", self.dims)
        h += embed(log_bc, "BC", self.dims)
        h -= embed(log_b, "B", self.dims)
        return _frozen(h)

    @cached_property
    def _sigma(self) -> tuple[PsdEigen, np.ndarray]:
        # (decomposition of sigma*, mask of the support-restricted rows). A
        # full-rank row's decomposition is exp(h)'s, a restricted row's
        # _restricted_exp's. h is built for this and not kept.
        h = self.exponent()
        (ab, psd_ab), (bc, psd_bc), _ = self.marginals
        full = (psd_ab.rank == ab.shape[-1]) & (psd_bc.rank == bc.shape[-1])
        if full.all():  # the common case, without copies into a mixed stack
            return _exp_eigen(h), ~full
        w, v = np.empty(h.shape[:-1]), np.empty_like(h)
        if full.any():
            e = _eigh(h[full])
            w[full], v[full] = np.exp(e.eigenvalues), e.eigenvectors
        for i in np.flatnonzero(~full):
            w[i], v[i] = self._restricted_exp(i, h[i])
        return _with_cutoff(HermitianEigen(w, v))[0], ~full

    def _restricted_exp(self, i: int, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Singular rho_AB or rho_BC: sigma* = P exp(P h P) P for h row i's
        # exponent and P the projector onto the intersection of the
        # embedded supports, the eigenvalue-2 eigenspace V of their sum.
        # That is V exp(V^dag h V) V^dag, so for (w, U) the decomposition
        # of V^dag h V its eigenvalues are (0, ..., 0, e^w) on the columns
        # (V_perp, V U): the kernel's are exactly 0, and the support
        # cutoff is that of sigma*'s own spectrum.
        psd_ab, psd_bc, _ = self.marginal_psd
        both = embed(_psd_rows(psd_ab, i).projector(), "AB", self.dims)
        both += embed(_psd_rows(psd_bc, i).projector(), "BC", self.dims)
        e = _eigh(both)
        on = e.eigenvalues > 2.0 - INTERSECTION_TOL
        v = e.eigenvectors[:, on]
        c = _eigh(dagger(v) @ h @ v)
        w = np.concatenate([np.zeros(np.count_nonzero(~on)), np.exp(c.eigenvalues)])
        return w, np.concatenate([e.eigenvectors[:, ~on], v @ c.eigenvectors], axis=1)

    def sigma_star(self, rows: slice = ALL) -> np.ndarray:
        """sigma* of the states `rows`, built on each call: exp(h), or
        P exp(P h P) P for a support-restricted row."""
        return _frozen(_rebuilt(_psd_rows(self._sigma[0], rows)))

    @cached_property
    def support_restricted(self) -> list[bool]:
        """Whether sigma* is P exp(P h P) P: rho_AB or rho_BC is singular."""
        return self._sigma[1].tolist()

    @cached_property
    def _sigma_values(self) -> tuple[list[float], list[float]]:
        # Tr sigma* and ||rho - sigma*||_1 from one build of sigma*, whose
        # new array then takes rho - sigma*.
        sigma = _rebuilt(self._sigma[0])
        trace = np.trace(sigma, axis1=-2, axis2=-1).real
        return trace.tolist(), trace_norm(np.subtract(self.mat, sigma, out=sigma)).tolist()

    sigma_star_trace = property(lambda self: self._sigma_values[0], doc="Tr sigma*.")
    trace_distance = property(lambda self: self._sigma_values[1], doc="||rho - sigma*||_1.")

    @cached_property
    def corollary_bound(self) -> list[float]:
        """||rho - sigma*||_1^2 / 4."""
        return [0.25 * td**2 for td in self.trace_distance]

    @cached_property
    def _chain_values(self) -> tuple[list[float], list[float], list[float]]:
        # The overlap, thm1 and ruskai as sums over W = |Q^dag V|^2 (Q rho's,
        # V sigma*'s eigenvectors): the Bhattacharyya coefficient and squared
        # Hellinger distance of the Nussbaum-Szkola pair (lambda_i W_ij, mu_j W_ij).
        rho, (sig, restricted) = self.rho_psd, self._sigma
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
        return overlap.tolist(), thm1.tolist(), ruskai.tolist()

    overlap = property(lambda self: self._chain_values[0], doc="Tr[sqrt(rho) sqrt(sigma*)].")
    thm1 = property(lambda self: self._chain_values[1], doc="||sqrt(rho) - sqrt(sigma*)||_2^2.")
    ruskai = property(lambda self: self._chain_values[2], doc="||log rho - h||_2 on supports.")

    @cached_property
    def log_overlap_bound(self) -> list[float]:
        """-2 log Tr[sqrt(rho) sqrt(sigma*)], infinite at zero overlap."""
        # As in corollary_bound, Python arithmetic on each element: numpy's
        # vectorized log and power do not match it bitwise on every input.
        return [_overlap_bound(x) for x in self.overlap]

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

    m_mdag = property(lambda self: self._m_products[0], doc="M M^dag, kept.")
    mdag_m = property(lambda self: self._m_products[1], doc="M^dag M, kept.")

    @cached_property
    def gap_m(self) -> list[float]:
        """||rho - M M^dag||_1."""
        return trace_norm(self.mat - self.m_mdag).tolist()

    @cached_property
    def gap_mprime(self) -> list[float]:
        """||rho - M^dag M||_1."""
        return trace_norm(self.mat - self.mdag_m).tolist()

    @cached_property
    def commutator_norm(self) -> list[float]:
        """||[M, M^dag]||_1."""
        return trace_norm(self.m_mdag - self.mdag_m).tolist()


def _analysed(mat: np.ndarray, dims: tuple[int, int, int]) -> list[TripartiteState]:
    # The states of mat, a new (k, n, n) stack that no caller holds, made
    # read-only: state i views mat[i] and holds row i of one StackAnalysis
    # of mat, which reads the stack without a copy.
    stack = StackAnalysis(_frozen(mat), dims)
    states = [_state(m, dims) for m in stack.mat]
    for i, state in enumerate(states):
        vars(state)["analysis"] = StateAnalysis(stack, i)
    return states


def _scalar(name: str) -> property:
    # This state's entry of the stack's column `name`, with its docstring.
    doc = getattr(StackAnalysis, name).__doc__
    return property(lambda self: getattr(self.stack, name)[self.index], doc=doc)


def _built(name: str) -> property:
    # The stack's operator `name` built for this state alone on each read,
    # a read-only (n, n) array that nothing keeps, with its docstring.
    doc = getattr(StackAnalysis, name).__doc__
    return property(lambda self: getattr(self.stack, name)(self._rows)[0], doc=doc)


class StateAnalysis:
    """The spectral data of one state: row `index` of a StackAnalysis.

    Scalars come back as Python floats, this state's entries of the
    stack's columns: each scalar is kept once, as the stack's list of
    Python floats, which rows and slacks read, and documented there.
    Operators come back as read-only (n, n) arrays: M M^dag and M^dag M
    are views of the stack's, and the others are built for this state
    alone on each read.
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
        """This state's entropies and cmi, Python floats."""
        return EntropyReport(*(col[self.index] for col in vars(self.stack.entropies).values()))

    cmi = _scalar("cmi")

    @property
    def _rows(self) -> slice:
        # This state as the rows of the stack's on-demand operators.
        return slice(self.index, self.index + 1)

    @property
    def embedded_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log rho_AB (x) I, I (x) log rho_BC and I (x) log rho_B (x) I."""
        return tuple(log[0] for log in self.stack.embedded_logs(self._rows))

    sigma_star = _built("sigma_star")
    support_restricted = _scalar("support_restricted")
    sigma_star_trace = _scalar("sigma_star_trace")
    overlap = _scalar("overlap")
    log_overlap_bound = _scalar("log_overlap_bound")
    thm1 = _scalar("thm1")
    trace_distance = _scalar("trace_distance")
    corollary_bound = _scalar("corollary_bound")
    m = _built("m")
    m_mdag = property(lambda self: self.stack.m_mdag[self.index], doc=StackAnalysis.m_mdag.__doc__)
    mdag_m = property(lambda self: self.stack.mdag_m[self.index], doc=StackAnalysis.mdag_m.__doc__)
    gap_m = _scalar("gap_m")
    gap_mprime = _scalar("gap_mprime")
    commutator_norm = _scalar("commutator_norm")
    ruskai = _scalar("ruskai")


class ChannelAnalysis:
    """Lazily computed spectral data of one channel triple (rho, sigma, phi).

    The channel bound compares the data-processing gap
    lhs = S(rho || sigma) - S(phi(rho) || phi(sigma)) with
    rhs = -2 log Tr[sqrt(rho) sqrt(X)] for the exp operator
    X = exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma))).
    Every value reads the same decompositions:

    * one of each of rho, sigma, phi(rho) and phi(sigma), which serves its
      validation, entropy, log and sqrt;
    * one of the exponent, which gives X and its square root; the overlap
      Tr[sqrt(rho) sqrt(X)] is a sum over the transfer matrix of rho's and
      the exponent's eigenvectors, so no operator but X is built;
    * one spectrum for the Petz recovery gap ||rho - P(phi(rho))||_1.

    From these it builds log sigma, log phi(rho) and log phi(sigma), each
    once for lhs and the exponent, and sqrt(sigma) for the Petz map, whose
    Kraus operators come from one SVD (channels.petz_dual). X is rebuilt
    on each read of exp_operator, Tr X from one build, and not kept.

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
        # the support cutoff of its spectrum.
        out_rho, out_sigma = self._outputs
        _require_full_rank(out_rho, "phi(rho)")
        _require_full_rank(out_sigma, "phi(sigma)")
        log_sigma, log_out_rho, log_out_sigma = self._logs
        return _exp_eigen(log_sigma + self.phi.dual(log_out_rho) - self.phi.dual(log_out_sigma))

    @property
    def exp_operator(self) -> np.ndarray:
        """exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma)))."""
        return _frozen(_rebuilt(self._x))

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
        return _petz_dual(self.phi, self.sigma.eig)

    @cached_property
    def petz_gap(self) -> float:
        """||rho - P(phi(rho))||_1 for the Petz map P."""
        return trace_norm(self.rho.mat - self.petz.apply(self._phi_rho))
