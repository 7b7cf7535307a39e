"""The shared per-state spectral analysis: reuse, decomposition counts and
the numerical contracts of the overlap, thm1, M and the Lieb value of its
marginals."""

import dataclasses
import math
import multiprocessing
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from qcmi import analysis as analysis_module
from qcmi import linalg, sampling, states
from qcmi.analysis import MARGINALS, ChannelAnalysis, StackAnalysis, StateAnalysis, _analysed
from qcmi.cli import main
from qcmi.errors import NotPSDError, SingularMatrixError, ValidationError
from qcmi.harness import (
    CORPORA,
    STACK_BUDGET,
    ScanConfig,
    corpus_state,
    evaluate_sample,
    run_conjecture,
    scan,
)
from qcmi.inequalities import proven_checks, rotated_slacks
from qcmi.linalg import (
    dagger,
    hermitian_part,
    hs_norm,
    mat_exp,
    psd_eig,
    support_cutoff,
    trace_norm,
)
from qcmi.sampling import random_density, random_tripartite, random_unitary, substream
from qcmi.stateio import write_state
from qcmi.states import (
    ClassicalJoint,
    TripartiteState,
    _traced_out,
    classical_state,
    embed,
    partial_trace,
    tripartite,
    validate_density,
)
from qcmi.tolerances import DEFAULT_TOL, INTERSECTION_TOL
from qcmi.trace_inequalities import lieb_triple_rhs
from oracles import identity_channel, m_three_embeds, nussbaum_szkola, sqrtm_chain
from test_golden import cases as golden_cases
from test_golden import record, restricted_states, sub_cutoff_classical
from test_metamorphic import _low_rank

# One scan sample at full dimension d decomposes rho (which also validates
# it), the exponent h, and the four trace-norm spectra rho - sigma*,
# rho - M M^dag, rho - M^dag M and [M, M^dag]; with the three marginals,
# each decomposed once for its validation and its functions, that makes
# nine. A support-restricted sample decomposes, in place of h, the sum of
# the embedded support projectors of rho_AB and rho_BC at full dimension
# and h compressed onto their intersection at the intersection's
# dimension: ten, six of them at full dimension.
FULL_DIM_DECOMPOSITIONS_PER_SAMPLE = 6
DECOMPOSITIONS_PER_SAMPLE = 9
RESTRICTED_DECOMPOSITIONS_PER_SAMPLE = 10


@pytest.fixture
def decompositions(monkeypatch):
    """Count the matrices numpy eigh/eigvalsh decompose, by matrix size.

    A stacked call on (k, n, n) counts k matrices of size n.
    """
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            shape = np.shape(a)
            sizes.extend([shape[-1]] * int(np.prod(shape[:-2])))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes


@pytest.fixture
def m_builds(monkeypatch):
    """Count the M operators StackAnalysis.m builds, one per state built."""
    calls = []
    original = StackAnalysis.m

    def counted(self, *args, **kwargs):
        m = original(self, *args, **kwargs)
        calls.extend([self] * len(m))
        return m

    monkeypatch.setattr(StackAnalysis, "m", counted)
    return calls


@pytest.mark.parametrize("corpus", ["hs-random", "markov"])
def test_scan_sample_decomposition_budget(corpus, decompositions, m_builds):
    samples = 3
    scan(ScanConfig(dims=(3, 3, 3), samples=samples, seed=31, corpus=corpus))
    full = sum(1 for n in decompositions if n == 27)
    assert full <= FULL_DIM_DECOMPOSITIONS_PER_SAMPLE * samples
    assert len(decompositions) <= DECOMPOSITIONS_PER_SAMPLE * samples
    assert len(m_builds) == samples


def test_scan_sample_makes_exactly_the_budget(decompositions):
    samples = 3
    scan(ScanConfig(dims=(3, 3, 3), samples=samples, seed=31))
    assert sum(1 for n in decompositions if n == 27) == FULL_DIM_DECOMPOSITIONS_PER_SAMPLE * samples
    assert len(decompositions) == DECOMPOSITIONS_PER_SAMPLE * samples


@pytest.mark.parametrize("tag", sorted(restricted_states()))
def test_a_support_restricted_sample_makes_ten_decompositions(tag, decompositions):
    st = restricted_states()[tag]
    fresh = TripartiteState(st.mat, st.dims)
    decompositions.clear()
    evaluate_sample(fresh, 0)
    assert fresh.analysis.support_restricted
    assert len(decompositions) == RESTRICTED_DECOMPOSITIONS_PER_SAMPLE
    assert decompositions.count(st.dim) == FULL_DIM_DECOMPOSITIONS_PER_SAMPLE


@pytest.mark.parametrize("corpus", CORPORA)
def test_a_small_scan_call_has_a_fixed_cost(corpus, monkeypatch):
    # One 2,2,2 call of 4 samples is one stack: one numpy.linalg call per
    # kind of decomposition, no Hermitian deviation norm and no dims check
    # per draw: the config's dims were checked when it was made. Of the nine
    # operands require_hermitian checks, the hs-random exponent h differs
    # from h^dag in the sign of a zero (d holds two -0.0 words) and passes
    # by the max-entry bound; the others are exactly Hermitian.
    cfg = ScanConfig(dims=(2, 2, 2), samples=4, seed=31, corpus=corpus)
    calls = []
    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original):

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
    norms = []

    def counted_norm(m):
        norms.append(np.shape(m))
        return hs_norm(m)

    monkeypatch.setattr(linalg, "hs_norm", counted_norm)
    checks = []
    tripartite_dims = states._tripartite_dims

    def counted_dims(dims, *args):
        checks.append(dims)
        return tripartite_dims(dims, *args)

    for module in (states, sampling):
        monkeypatch.setattr(module, "_tripartite_dims", counted_dims)
    scan(cfg)
    assert sorted(calls) == ["eigh"] * 5 + ["eigvalsh"] * 4
    assert norms == []
    assert checks == []


@pytest.mark.parametrize("command, full_dim", [("info", 6), ("classify", 3)])
def test_a_public_state_decomposes_rho_once(command, full_dim, tmp_path, decompositions, capsys):
    # Reading the state validates it from the eigh its analysis keeps. info
    # adds the exponent and the four trace norms; classify the two trace
    # norms it reads.
    path = tmp_path / "state.json"
    write_state(random_tripartite((3, 3, 3), substream(31, 7)), path)
    decompositions.clear()
    assert main([command, str(path)]) == 0
    assert sum(1 for n in decompositions if n == 27) == full_dim


def test_partial_trace_reads_the_analysis_marginals(decompositions):
    st = random_tripartite((2, 3, 2), substream(31, 8))
    st.analysis.marginals
    decompositions.clear()
    assert partial_trace(st, "AB") is st.analysis.marginals[0]
    assert decompositions == []
    for keep, marginal in zip(MARGINALS, st.analysis.marginals):
        assert partial_trace(st, keep) is marginal
    assert decompositions == []
    # A, C and AC are no marginal of the analysis and validate their own.
    for keep in ("A", "C", "AC"):
        partial_trace(st, keep)
    assert decompositions == [2, 2, 4]


def test_partial_trace_before_the_analysis_validates_the_marginal_alone(decompositions):
    # Until the analysis holds its marginals, partial_trace validates the one
    # it is asked for: no other marginal and not rho, which need not be a
    # density matrix for rho_B to be one.
    st = tripartite(random_density(12, substream(31, 9)).mat, (2, 3, 2))
    decompositions.clear()
    partial_trace(st, "B")
    assert decompositions == [3]
    assert "marginals" not in vars(st.analysis.stack)
    not_psd = TripartiteState(np.diag([1.1, -0.1]), (2, 1, 1))
    np.testing.assert_array_equal(partial_trace(not_psd, "B").mat, [[1.0]])
    assert "analysis" not in vars(not_psd)


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 3, 2), (3, 1, 3), (2, 3, 2)])
def test_partial_trace_is_bitwise_the_marginal_validated_alone(dims):
    states = [random_tripartite(dims, substream(34, i)) for i in range(5)]
    states = _analysed(np.array([s.mat for s in states]), dims)
    for st in states:
        for keep in MARGINALS:
            got = partial_trace(st, keep)
            alone = validate_density(_traced_out(st.mat, dims, keep))
            assert got.mat.tobytes() == alone.mat.tobytes()
            assert got.eig.eigenvalues.tobytes() == alone.eig.eigenvalues.tobytes()
            assert got.eig.eigenvectors.tobytes() == alone.eig.eigenvectors.tobytes()
            assert (got.eig.cutoff, got.support_rank) == (alone.eig.cutoff, alone.support_rank)


def test_analysis_is_cached_on_the_state():
    # The analysis is kept; the operators it builds on demand are not.
    st = random_tripartite((2, 2, 2), substream(32, 0))
    a = st.analysis
    assert a is st.analysis
    assert a.m is not a.m
    assert a.sigma_star is not a.sigma_star
    assert a.sigma_star.tobytes() == a.sigma_star.tobytes()


def test_cached_operators_are_read_only():
    st = random_tripartite((2, 2, 2), substream(32, 1))
    for op in (st.analysis.m, st.analysis.sigma_star):
        with pytest.raises(ValueError):
            op[0, 0] = 0.0


def _states():
    out = [random_tripartite(d, substream(33, i)) for i, d in enumerate([(2, 2, 2), (1, 3, 2), (2, 3, 1)])]
    return out + list(restricted_states().values()) + [sub_cutoff_classical()]


def _root_forms(state):
    # Tr[sqrt(rho) sqrt(sigma*)] and ||sqrt(rho) - sqrt(sigma*)||_2^2 from
    # the sqrt of rho and of sigma*, each with its own support cutoff.
    root_rho = psd_eig(state.mat, "sqrt").sqrt()
    root_sigma = psd_eig(state.analysis.sigma_star, "sqrt").sqrt()
    return np.trace(root_rho @ root_sigma).real, hs_norm(root_rho - root_sigma) ** 2


@pytest.mark.parametrize("state", _states())
def test_commutator_norm_is_the_trace_norm_of_the_commutator_of_m(state):
    a = state.analysis
    m = a.m
    m_dag = dagger(m)
    assert a.commutator_norm == trace_norm(m @ m_dag - m_dag @ m)


@pytest.mark.parametrize("state", _states())
def test_overlap_and_thm1_keep_the_support_cutoff(state):
    # The sums over W must equal the sqrt forms: eigenvalues of sigma*
    # at or below the support cutoff count as zero, also when they come
    # from exp(h) rather than from a decomposition of sigma* itself.
    overlap, thm1 = _root_forms(state)
    assert state.analysis.overlap == pytest.approx(overlap, rel=0, abs=1e-13)
    assert state.analysis.thm1 == pytest.approx(thm1, rel=0, abs=1e-13)


def test_sub_cutoff_eigenvalue_is_dropped():
    # sigma*[000] ~ 3e-18 is below sigma*'s support cutoff. Its square root,
    # ~2e-9 against sqrt(rho[000]) ~ 2e-5, would move the overlap by 4e-14
    # and thm1 by 8e-14; the classical state's W is a permutation, so both
    # match the sqrt forms to roundoff.
    st = sub_cutoff_classical()
    a = st.analysis
    assert 0.0 < a.sigma_star[0, 0].real < 1e-17
    overlap, thm1 = _root_forms(st)
    assert abs(a.overlap - overlap) <= 1e-16
    assert abs(a.thm1 - thm1) <= 1e-16
    kept = np.sqrt(np.diag(a.sigma_star).real)
    root_rho = np.sqrt(np.diag(st.mat).real)
    assert abs(a.overlap - root_rho @ kept) > 3e-14
    assert abs(a.thm1 - np.sum((root_rho - kept) ** 2)) > 6e-14


def test_a_zero_overlap_has_an_infinite_bound():
    # -2 log overlap, where math.log(0.0) would raise.
    assert analysis_module._overlap_bound(0.0) == float("inf")


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (4, 4, 4)])
@pytest.mark.parametrize("corpus", ["hs-random", "classical-random", "near-markov"])
def test_the_chain_is_the_nussbaum_szkola_pair(corpus, dims):
    # For full-rank rho and sigma* = exp(h), P_ij = lambda_i W_ij and
    # Q_ij = mu_j W_ij: cmi = D(P||Q), the overlap is their Bhattacharyya
    # coefficient and thm1 their squared Hellinger distance. Measured on
    # these states: 2.8e-15, 2.3e-15 and 5.0e-16; against scipy's sqrtm,
    # log_overlap 1.5e-14 and thm1 1.0e-15.
    cfg = ScanConfig(dims=dims, samples=3, seed=5, corpus=corpus)
    for i in range(cfg.samples):
        st = corpus_state(cfg, i)
        a = st.analysis
        assert a.rho.support_rank == st.dim and not a.support_restricted
        p, q = nussbaum_szkola(st.mat, a.sigma_star)
        on = p > 0.0  # a classical state's W is a permutation
        assert abs(np.sum(p[on] * np.log(p[on] / q[on])) - a.cmi) <= 1e-13
        assert abs(np.sum(np.sqrt(p * q)) - a.overlap) <= 1e-13
        assert abs(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2) - a.thm1) <= 1e-13
        log_overlap, thm1 = sqrtm_chain(st.mat, a.sigma_star)
        assert abs(log_overlap + 2.0 * np.log(a.overlap)) <= 1e-13
        assert abs(thm1 - a.thm1) <= 1e-13


def _lieb_operands(analysis, dims):
    """rho_AB (x) I, I (x) rho_B (x) I and I (x) rho_BC at full dimension."""
    rho_ab, rho_bc, rho_b = analysis.marginals
    return tuple(embed(m.mat, on, dims) for m, on in ((rho_ab, "AB"), (rho_b, "B"), (rho_bc, "BC")))


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 2, 3), (3, 1, 2), (2, 3, 2)])
def test_lieb_rhs_in_rho_b_eigenbasis_matches_direct_form(dims):
    st = random_tripartite(dims, substream(34, sum(dims)))
    r, s, t = _lieb_operands(st.analysis, dims)
    direct = lieb_triple_rhs(r, s, t)
    # In the basis I (x) Q_B (x) I of the analysis, the middle operand is diagonal.
    _, _, psd_b = (m.eig for m in st.analysis.marginals)
    u = embed(psd_b.eigenvectors, "B", dims)
    w = embed(np.diag(psd_b.eigenvalues), "B", dims)
    in_eigenbasis = lieb_triple_rhs(dagger(u) @ r @ u, w, dagger(u) @ t @ u)
    assert in_eigenbasis == pytest.approx(direct, abs=1e-12)
    # The integral's trace collapses to Tr rho_B, so Tr sigma* <= 1 is all
    # that Lieb's inequality asserts here (row trace-exp-at-most-one).
    assert direct == pytest.approx(1.0, abs=1e-12)


def test_state_and_analysis_form_no_reference_cycle():
    # A cycle would keep each analysed state's operators alive until the
    # cyclic collector runs; scans would then grow in memory.
    st = random_tripartite((2, 2, 2), substream(35, 0))
    st.analysis.sigma_star
    st.analysis.m
    ref = weakref.ref(st)
    del st
    assert ref() is None
    # A corpus draw reads its rho and support rank from its analysis.
    drawn = corpus_state(ScanConfig(dims=(2, 2, 2), samples=1, seed=35), 0)
    assert drawn.rho.is_full_rank()
    ref = weakref.ref(drawn)
    del drawn
    assert ref() is None


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 3)])
@pytest.mark.parametrize("corpus", CORPORA)
def test_scan_rows_do_not_depend_on_the_grouping(corpus, dims):
    cfg = ScanConfig(dims=dims, samples=5, seed=36, corpus=corpus)
    assert STACK_BUDGET // int(np.prod(dims)) ** 2 >= cfg.samples  # one stack
    alone = [evaluate_sample(corpus_state(cfg, i), i) for i in range(cfg.samples)]
    assert scan(cfg) == alone


def _mixed_stacks():
    # Each stack holds a full-rank state and states that take the
    # support-restricted branch of sigma* or drop a sub-cutoff eigenvalue.
    special = list(restricted_states().values()) + [sub_cutoff_classical()]
    by_dims = {}
    for st in special:
        by_dims.setdefault(st.dims, []).append(st)
    return [
        [random_tripartite(dims, substream(37, sum(dims)))] + states
        for dims, states in by_dims.items()
    ]


@pytest.mark.parametrize("states", _mixed_stacks(), ids=lambda states: str(states[0].dims))
def test_mixed_stack_matches_states_analysed_alone(states, applies):
    stacked = _analysed(np.array([st.mat for st in states]), states[0].dims)
    assert len({id(st.analysis.stack) for st in stacked}) == 1
    # sigma* of every row, full-rank and restricted, is rebuilt from its
    # decomposition in one stacked rebuild.
    stack = stacked[0].analysis.stack
    full = stack.support_restricted.count(False)
    assert 0 < full < len(stack)
    applies.clear()
    stack.sigma_star()
    assert applies == [(len(stack), stack.mat.shape[-1])]
    for together, alone in zip(stacked, states):
        assert record(together, "hs-random") == record(alone, "hs-random")
        for name in ("sigma_star", "m", "m_mdag", "mdag_m"):
            want = getattr(alone.analysis, name)
            np.testing.assert_array_equal(getattr(together.analysis, name), want)
        assert together.analysis.support_restricted == alone.analysis.support_restricted


# Dims of the drift set: every corpus, 11 consecutive samples of seed 5.
DRIFT_DIMS = ((1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 1, 3), (2, 2, 2), (2, 3, 2), (3, 3, 3))


def _drift_groups():
    # The drift set's states, one group per dims and corpus, and the golden
    # states one by one.
    groups = []
    for dims in DRIFT_DIMS:
        for corpus in CORPORA:
            cfg = ScanConfig(dims=dims, samples=11, seed=5, corpus=corpus)
            groups.append([corpus_state(cfg, i) for i in range(cfg.samples)])
    return groups + [[state] for _, state, _ in golden_cases()]


def test_support_ranks_from_eigh_agree_with_validate_density():
    # The ranks the stacked analysis reads for rho and its marginals are
    # those of each matrix validated alone: stacking does not change a
    # support rank. partial_trace returns the analysis' marginals, so the
    # marginal ranks are compared with validate_density's in
    # test_drift_set_marginals_are_bitwise_the_marginals_validated_alone.
    for states in _drift_groups():
        for st in _analysed(np.array([s.mat for s in states]), states[0].dims):
            assert st.analysis.rho.support_rank == validate_density(st.mat).support_rank
            for keep, marginal in zip(MARGINALS, st.analysis.marginals):
                assert marginal.support_rank == partial_trace(st, keep).support_rank


def test_drift_set_marginals_are_bitwise_the_marginals_validated_alone():
    # Over every corpus, the rank-deficient markov and classical ones too,
    # the marginals the stacked analysis keeps are those validate_density
    # makes of each partial trace alone: the same decomposition, cutoff and
    # support rank.
    for states in _drift_groups():
        for st in _analysed(np.array([s.mat for s in states]), states[0].dims):
            for keep, got in zip(MARGINALS, st.analysis.marginals):
                alone = validate_density(_traced_out(st.mat, st.dims, keep))
                assert got.support_rank == alone.support_rank
                assert got.eig.cutoff == alone.eig.cutoff
                assert got.mat.tobytes() == alone.mat.tobytes()
                assert got.eig.eigenvalues.tobytes() == alone.eig.eigenvalues.tobytes()
                assert got.eig.eigenvectors.tobytes() == alone.eig.eigenvectors.tobytes()


def test_eigenvalue_between_zero_and_the_support_cutoff_is_kernel():
    # Eigenvalues 0.5, 0.5 - 1e-12 and 1e-12 in a random basis: the last is
    # positive but below the support cutoff 1e-10 * 0.5, so the support
    # rank is 2 wherever a rank is read.
    u = random_unitary(3, substream(38, 0))
    m = hermitian_part(u @ np.diag([0.5, 0.5 - 1e-12, 1e-12]) @ dagger(u))
    w = np.linalg.eigvalsh(m)
    assert 0.0 < w[0] < support_cutoff(w)
    assert validate_density(m).support_rank == 2
    # At dims 1,3,1 rho_AB, rho_BC and rho_B are rho itself.
    st = TripartiteState(validate_density(m).mat, (1, 3, 1))
    assert st.analysis.rho.support_rank == 2
    assert [marginal.support_rank for marginal in st.analysis.marginals] == [2, 2, 2]
    assert [partial_trace(st, keep).support_rank for keep in MARGINALS] == [2, 2, 2]
    rho = random_density(3, substream(38, 1))
    with pytest.raises(SingularMatrixError) as exc:
        ChannelAnalysis(rho, validate_density(m), identity_channel(3)).lhs
    assert str(exc.value) == "sigma must be full rank (support rank 2 of 3)"


# -- marginal operators at subsystem dimension ------------------------------


def _oracle_states():
    # The drift set's states, analysed in their corpus stacks, the golden
    # states one by one, and the mixed stacks of full-rank, support-restricted
    # and sub-cutoff states.
    groups = [
        _analysed(np.array([st.mat for st in states]), states[0].dims)
        for states in _drift_groups() + _mixed_stacks()
    ]
    return [st for states in groups for st in states]


def test_m_matches_the_three_embed_form():
    for st in _oracle_states():
        m = st.analysis.m
        want = m_three_embeds(st.analysis)
        assert m.shape == want.shape
        assert np.max(np.abs(m - want)) <= 1e-14 * max(1.0, hs_norm(want)), st.dims


def _singular_rho_b_states():
    # rho_B with an exact zero eigenvalue (classical, p_B(1) = 0) and with a
    # roundoff-level one (a pure state on B in a random basis).
    p = np.zeros((2, 3, 2))
    p[:, 0, :] = [[0.1, 0.2], [0.3, 0.1]]
    p[:, 2, :] = [[0.05, 0.05], [0.1, 0.1]]
    rng = substream(39, 0)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    rho_a, rho_c = random_density(2, rng).mat, random_density(2, rng).mat
    product = np.kron(np.kron(rho_a, np.outer(psi, psi.conj())), rho_c)
    return [classical_state(ClassicalJoint(p)), tripartite(product, (2, 3, 2))]


@pytest.mark.parametrize("state", _singular_rho_b_states(), ids=["classical", "pure-b"])
def test_singular_rho_b_raises_as_the_full_dimension_form(state):
    # The support rank of the analysis and the Lieb value's own cutoff at
    # full dimension agree that rho_B is singular.
    assert state.analysis.marginals[2].support_rank < 3
    message = r"^middle operand is singular \(min eigenvalue "
    with pytest.raises(SingularMatrixError, match=message):
        lieb_triple_rhs(*_lieb_operands(state.analysis, state.dims))


@pytest.fixture
def full_dim_embeds(monkeypatch):
    """Record the full-dimension embed calls of the analysis module."""
    calls = []
    original = analysis_module.embed

    def recorded(m, acts_on, dims):
        out = original(m, acts_on, dims)
        if out.shape[-1] == int(np.prod(dims)):
            calls.append(acts_on)
        return out

    monkeypatch.setattr(analysis_module, "embed", recorded)
    return calls


@pytest.mark.parametrize("corpus", ["hs-random", "markov", "near-markov"])
def test_a_scan_stack_embeds_only_the_logs_of_h(corpus, full_dim_embeds):
    scan(ScanConfig(dims=(2, 2, 2), samples=4, seed=40, corpus=corpus))
    assert sorted(full_dim_embeds) == ["AB", "B", "BC"]


def test_m_embeds_nothing(full_dim_embeds):
    st = random_tripartite((2, 3, 2), substream(40, 0))
    st.analysis.embedded_logs
    full_dim_embeds.clear()
    st.analysis.m
    assert full_dim_embeds == []


# -- operators on demand and the working set --------------------------------


def _operators(st):
    # Every operator the analysis builds on demand, and its kept M M^dag and
    # M^dag M validated as density matrices (None where that raises).
    a = st.analysis
    ops = {
        "sigma_star": a.sigma_star,
        "m": a.m,
        "m_mdag": a.m_mdag,
        "mdag_m": a.mdag_m,
    }
    ops.update({f"log_{keep}": log for keep, log in zip(MARGINALS, a.embedded_logs)})
    for name, product in (("via_ab", a.m_mdag), ("via_bc", a.mdag_m)):
        try:
            ops[name] = validate_density(product).mat
        except ValidationError:
            ops[name] = None
    return ops


def test_on_demand_operators_are_read_only_and_do_not_depend_on_the_stack():
    # On the drift set in its corpus stacks, the golden states, and the
    # mixed stacks of support-restricted and sub-cutoff states: two reads
    # give the same bits, and so does the state analysed alone.
    for st in _oracle_states():
        first, second = _operators(st), _operators(st)
        alone = _operators(TripartiteState(st.mat, st.dims))
        for name, op in first.items():
            if op is None:
                assert second[name] is None and alone[name] is None, name
                continue
            assert not op.flags.writeable, name
            assert op.tobytes() == second[name].tobytes() == alone[name].tobytes(), name


# sigma* against P exp(P h P) P composed with mat_exp or scipy's expm:
# over the restricted states, the mixed stacks and the low-rank sweep
# below, entries differed by at most 3.2e-16 (the rank-3 rho at 3,3,3,
# whose marginals are full rank and P = I; 1.7e-16 on restricted rows),
# so 1e-15 leaves a margin of 3x.
RESTRICTED_SIGMA_ATOL = 1e-15


def _intersection(st):
    # (w, q) of the sum of the embedded support projectors of rho_AB and
    # rho_BC, which marks their intersection as its eigenvalue-2
    # eigenspace, and h, composed from numpy.
    a = st.analysis
    psd_ab, psd_bc, _ = (m.eig for m in a.marginals)
    both = embed(psd_ab.projector(), "AB", st.dims) + embed(psd_bc.projector(), "BC", st.dims)
    w, q = np.linalg.eigh(hermitian_part(both))
    log_ab, log_bc, log_b = a.embedded_logs
    return w > 2.0 - INTERSECTION_TOL, q, log_ab + log_bc - log_b


def _p_exp_php_p(st, expm):
    on, q, h = _intersection(st)
    proj = hermitian_part(q[:, on] @ dagger(q[:, on]))
    return hermitian_part(proj @ expm(hermitian_part(proj @ h @ proj)) @ proj)


def test_support_restricted_sigma_star_is_p_exp_php_p():
    # A restricted row's sigma* is bitwise V exp(V^dag h V) V^dag, for V
    # the orthonormal columns of the intersection P of the embedded
    # supports, rebuilt from eigenvalues (0, ..., 0, e^w) on the columns
    # (V_perp, V U) for (w, U) the decomposition of V^dag h V; alone and
    # in a mixed stack. That is P exp(P h P) P, to RESTRICTED_SIGMA_ATOL.
    alone = list(restricted_states().values())
    stacked = []
    for states in _mixed_stacks():
        stacked.append(_analysed(np.array([st.mat for st in states]), states[0].dims))
    restricted = [st for st in alone + sum(stacked, []) if st.analysis.support_restricted]
    assert len(restricted) == 2 * len(alone)
    for st in restricted:
        on, q, h = _intersection(st)
        v = q[:, on]
        w, u = np.linalg.eigh(hermitian_part(dagger(v) @ h @ v))
        vecs = np.concatenate([q[:, ~on], v @ u], axis=1)
        vals = np.concatenate([np.zeros(np.count_nonzero(~on)), np.exp(w)])
        want = hermitian_part((vecs * vals) @ dagger(vecs))
        assert st.analysis.sigma_star.tobytes() == want.tobytes()
        cross = _p_exp_php_p(st, mat_exp)
        assert np.abs(st.analysis.sigma_star - cross).max() <= RESTRICTED_SIGMA_ATOL


@pytest.mark.parametrize("dims", [(3, 3, 3), (4, 4, 4)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_low_rank_states_hold_the_proven_rows(dims, rank):
    # rho = G G^dag / Tr for a Gaussian n x rank G: singular marginals for
    # every rank here but 3 at 3,3,3. Every proven row asserted always
    # holds at the default tol, and sigma* is P exp(P h P) P by scipy.
    for i in range(2):
        st = _low_rank(dims, rank, i)
        assert st.analysis.support_restricted == (rank * dims[2] < dims[0] * dims[1])
        for name, slack in proven_checks(st.analysis, None):
            assert slack >= -DEFAULT_TOL, (name, slack)
        cross = _p_exp_php_p(st, scipy.linalg.expm)
        assert np.abs(st.analysis.sigma_star - cross).max() <= RESTRICTED_SIGMA_ATOL


def test_the_rotated_bound_pays_for_no_overlap_and_no_m():
    # rotated-quarter reads cmi, the embedded logs and ||rho - sigma*||_1.
    st = random_tripartite((3, 3, 3), substream(44, 0))
    rotated_slacks(st.analysis, substream(44, 0, 1), 3)
    assert "_sigma_values" in vars(st.analysis.stack)
    assert {"_chain_values", "_m_products"}.isdisjoint(vars(st.analysis.stack))


def _full_dim_arrays(value, shape):
    # The arrays of shape `shape` that a cached value holds, looking into
    # tuples, dicts and the decomposition and report dataclasses.
    if isinstance(value, np.ndarray):
        return [value] if value.shape == shape else []
    if isinstance(value, (tuple, list)):
        items = value
    elif isinstance(value, dict):
        items = value.values()
    elif dataclasses.is_dataclass(value):
        items = vars(value).values()
    else:
        return []
    return [a for item in items for a in _full_dim_arrays(item, shape)]


# What a stack keeps at full dimension: rho, rho's decomposition, sigma*'s
# decomposition (for sigma* and, with rho's, the overlap, thm1 and
# ruskai), and M M^dag and M^dag M (for the trace norms classify reads).
# Every other full-dimension operator, h among them, is built on demand.
KEPT_FULL_DIM = {"mat", "rho_psd", "_sigma", "_m_products"}


def test_a_stack_keeps_only_its_decompositions_and_m_products():
    cfg = ScanConfig(dims=(3, 3, 3), samples=4, seed=43)
    states = _analysed(np.array([corpus_state(cfg, i).mat for i in range(cfg.samples)]), cfg.dims)
    for i, st in enumerate(states):
        evaluate_sample(st, i)
        proven_checks(st.analysis, cfg.corpus)
        _operators(st)
    stack = states[0].analysis.stack
    held = {name for name, value in vars(stack).items() if _full_dim_arrays(value, (4, 27, 27))}
    assert held == KEPT_FULL_DIM


@pytest.mark.parametrize("states", _mixed_stacks(), ids=lambda states: str(states[0].dims))
def test_a_mixed_stack_keeps_no_sigma_star(states):
    # A restricted row's sigma* is rebuilt from its decomposition like
    # any other: the stack keeps what a full-rank stack keeps and no
    # matrix of one state.
    stacked = _analysed(np.array([st.mat for st in states]), states[0].dims)
    for i, st in enumerate(stacked):
        evaluate_sample(st, i)
        _operators(st)
    stack = stacked[0].analysis.stack
    held = {name for name, value in vars(stack).items() if _full_dim_arrays(value, stack.mat.shape)}
    assert held == KEPT_FULL_DIM
    one = stack.mat.shape[1:]
    assert [name for name, value in vars(stack).items() if _full_dim_arrays(value, one)] == []


def _scalar_stacks():
    # A full-rank 2,2,2 stack of 4 and a stack that mixes full-rank and
    # support-restricted rows.
    full = [random_tripartite((2, 2, 2), substream(45, i)) for i in range(4)]
    return [full, _mixed_stacks()[0]]


def _read_rows_and_checks(states):
    # The stack of `states` after every row and every proven check is read.
    stacked = _analysed(np.array([st.mat for st in states]), states[0].dims)
    for i, st in enumerate(stacked):
        evaluate_sample(st, i)
        for corpus in (None, *CORPORA):
            proven_checks(st.analysis, corpus)
    return stacked


@pytest.mark.parametrize("states", _scalar_stacks(), ids=["full-rank", "mixed"])
def test_a_stack_keeps_each_scalar_once(states):
    # Each scalar is its stack's list of Python floats; the only (k,) arrays
    # left are decomposition data: the support cutoffs of rho, the
    # marginals and sigma*, and sigma*'s restricted mask.
    stack = _read_rows_and_checks(states)[0].analysis.stack
    sigma, restricted = stack._sigma
    kept = [e.cutoff for e in (stack.rho_psd, *stack.marginal_psd, sigma)] + [restricted]
    held = [a for value in vars(stack).values() for a in _full_dim_arrays(value, (len(stack),))]
    assert sorted(map(id, held)) == sorted(map(id, kept))


# The StateAnalysis scalars, each read from its stack's list by _scalar.
SCALARS = [
    name
    for name, attr in vars(StateAnalysis).items()
    if isinstance(attr, property) and attr.fget.__qualname__.startswith("_scalar.")
]


@pytest.mark.parametrize("states", _scalar_stacks(), ids=["full-rank", "mixed"])
def test_each_state_scalar_is_its_stack_list_entry(states):
    assert len(SCALARS) == 12
    stacked = _read_rows_and_checks(states)
    stack = stacked[0].analysis.stack
    for name in SCALARS:
        column = getattr(stack, name)
        assert type(column) is list and len(column) == len(stack), name
        kind = bool if name == "support_restricted" else float
        assert all(type(x) is kind for x in column), name
        assert all(getattr(st.analysis, name) is x for st, x in zip(stacked, column)), name
        doc = getattr(StackAnalysis, name).__doc__
        assert doc and getattr(StateAnalysis, name).__doc__ == doc, name
    report = stack.entropies
    for i, st in enumerate(stacked):
        assert vars(st.analysis.entropies) == {k: col[i] for k, col in vars(report).items()}


# The views a StateAnalysis makes of its stack's data in a form of its
# own, documented where they are defined. Every other public attribute is
# read from the stack's attribute of the same name, and documented there.
STATE_VIEWS = {"rho", "marginals", "entropies", "embedded_logs"}


def test_each_state_attribute_is_documented_once():
    public = {name for name in vars(StateAnalysis) if not name.startswith("_")}
    assert STATE_VIEWS <= public
    for name in public - STATE_VIEWS:
        doc = getattr(StackAnalysis, name).__doc__
        assert doc and getattr(StateAnalysis, name).__doc__ == doc, name
    for name in STATE_VIEWS:
        assert getattr(StateAnalysis, name).__doc__, name


# Traced with tracemalloc (numpy 2.4, one BLAS thread), 5,5,5 scan samples
# of every corpus at seeds 3-6 peaked at most 7.22 full-dimension operands
# (125 x 125 complex, 250 KB each) above the memory before their draw, and
# held 5.20-5.21 after evaluate_sample: rho and the four other operands of
# KEPT_FULL_DIM, plus the marginals' small data. When the analysis kept
# every operator it built, these were 15.8 and 12.2.
SCAN_SAMPLE_PEAK_OPERANDS = 8
SCAN_SAMPLE_HELD_OPERANDS = 5.5


def test_a_5_5_5_scan_sample_builds_one_full_dimension_matrix_function(applies):
    # The sigma* rebuild for Tr sigma* and ||rho - sigma*||_1. The overlap,
    # thm1 and ruskai are sums over W = |Q^dag V|^2 and build none.
    cfg = ScanConfig(dims=(5, 5, 5), samples=1, seed=3)
    state = corpus_state(cfg, 0)
    applies.clear()
    evaluate_sample(state, 0)
    assert [call for call in applies if call[1] == 125] == [(1, 125)]


def test_a_5_5_5_scan_sample_working_set():
    cfg = ScanConfig(dims=(5, 5, 5), samples=1, seed=3)
    evaluate_sample(corpus_state(cfg, 0), 0)  # numpy's first-call allocations
    operand = 125 * 125 * np.dtype(np.complex128).itemsize
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        state = corpus_state(cfg, 0)
        evaluate_sample(state, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert 5 <= (held - before) / operand <= SCAN_SAMPLE_HELD_OPERANDS
    assert (peak - before) / operand <= SCAN_SAMPLE_PEAK_OPERANDS


# -- rho's eigh on the worker thread ------------------------------------------


def on_both_paths(monkeypatch, compute):
    """[compute() with every stack's rho decomposed on the worker thread,
    compute() with every one decomposed inline]."""
    flags = []
    ahead = analysis_module._eigh_ahead

    def recorded(h):
        got = ahead(h)
        flags.append(got[1])
        return got

    monkeypatch.setattr(analysis_module, "_eigh_ahead", recorded)
    out = []
    for work, on_worker in ((0, True), (math.inf, False)):
        monkeypatch.setattr(linalg, "EIGH_AHEAD_WORK", work)
        flags.clear()
        out.append(compute())
        assert flags and all(flag is on_worker for flag in flags)
    return out


def raised(read):
    """(type, message) of the exception read() raises."""
    with pytest.raises(Exception) as info:
        read()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("dims, samples", [((2, 2, 2), 6), ((3, 3, 3), 22), ((5, 5, 5), 2)])
def test_rows_are_bitwise_the_same_on_the_worker_and_inline(monkeypatch, corpus, dims, samples):
    cfg = ScanConfig(dims=dims, samples=samples, seed=11, corpus=corpus)
    on_worker, inline = on_both_paths(monkeypatch, lambda: repr(scan(cfg)))
    assert on_worker == inline


def test_a_rotated_quarter_report_is_the_same_on_the_worker_and_inline(monkeypatch, tmp_path):
    def report():
        out = tmp_path / "q.json"
        cfg = ScanConfig(dims=(3, 3, 3), samples=22, seed=5, out=str(out))
        results = run_conjecture(cfg, "rotated-quarter", unitary_samples=2)
        return repr(results), out.read_bytes()

    on_worker, inline = on_both_paths(monkeypatch, report)
    assert on_worker == inline


def _not_psd_5_5_5(least: float) -> TripartiteState:
    # Hermitian and of unit trace, with rho's least eigenvalue `least`.
    p = np.full(125, (1.0 - least) / 124)
    p[0] = least
    return TripartiteState(np.diag(p).astype(complex), (5, 5, 5))


# At -0.5 rho_B is not PSD either (its least eigenvalue is -0.21), so the
# marginals built ahead raise; at -1e-3 they are PSD, and sigma*'s chain
# built ahead holds.
@pytest.mark.parametrize("least", [-0.5, -1e-3])
def test_a_non_psd_state_raises_rhos_error_on_the_worker_and_inline(monkeypatch, least):
    def errors():
        a = _not_psd_5_5_5(least).analysis
        return [raised(lambda: a.cmi), raised(lambda: a.sigma_star), raised(lambda: a.cmi)]

    on_worker, inline = on_both_paths(monkeypatch, errors)
    assert on_worker == inline
    assert inline == [inline[0]] * 3
    assert inline[0][0] is NotPSDError
    assert inline[0][1].startswith(f"minimum eigenvalue {least:.3e} is below")


def test_an_error_of_sigma_star_surfaces_where_it_does_inline(monkeypatch):
    # Built ahead on the worker path and dropped, it raises again when
    # sigma* is read, and not when the marginals are.
    def fail(h):
        raise FloatingPointError("exp of the exponent")

    monkeypatch.setattr(analysis_module, "_exp_eigen", fail)

    def reads():
        a = corpus_state(ScanConfig(dims=(5, 5, 5), samples=1, seed=3), 0).analysis
        return a.cmi, raised(lambda: a.sigma_star_trace)

    on_worker, inline = on_both_paths(monkeypatch, reads)
    assert on_worker == inline
    assert inline[1] == (FloatingPointError, "exp of the exponent")


def test_reading_rho_alone_makes_no_eigh_of_h(monkeypatch, decompositions):
    monkeypatch.setattr(linalg, "EIGH_AHEAD_WORK", 0)
    state = TripartiteState(random_tripartite((5, 5, 5), substream(7, 0)).mat, (5, 5, 5))
    decompositions.clear()
    state.analysis.rho
    assert state.analysis.stack._rho_ahead
    assert decompositions == [125]
    assert "marginals" not in vars(state.analysis.stack)


def test_rho_not_started_on_the_worker_is_decomposed_by_the_caller(monkeypatch):
    # While the worker is held by another task, as when the host does not
    # schedule its core, the caller cancels rho's pending eigh and makes it
    # itself instead of waiting. Rows, and the errors of a non-PSD state
    # read twice, are those of the inline path.
    cfg = ScanConfig(dims=(5, 5, 5), samples=2, seed=3)

    def results():
        a = _not_psd_5_5_5(-1e-3).analysis
        return repr(scan(cfg)), [raised(lambda: a.cmi), raised(lambda: a.cmi)]

    _, inline = on_both_paths(monkeypatch, results)
    monkeypatch.setattr(linalg, "EIGH_AHEAD_WORK", 0)
    scan(ScanConfig(dims=(2, 2, 2), samples=1, seed=3))  # the worker exists
    release = threading.Event()
    blocker = linalg._worker.submit(release.wait, 60)
    try:
        a = _not_psd_5_5_5(-1e-3).analysis
        assert results() == inline
        assert raised(lambda: a.cmi) == inline[1][0]
        assert blocker.running()
    finally:
        release.set()
    assert blocker.result(60)
    linalg._worker.submit(int).result(60)  # the worker has drained its queue
    assert raised(lambda: a.cmi) == inline[1][0]  # its cancelled request is not read


def _scan_in_child(cfg, conn):
    # Sends the row and whether an eigh of linalg ran off the main thread.
    eigh, off_main = linalg._eigh_symmetrized, []

    def recorded(h):
        off_main.append(threading.current_thread() is not threading.main_thread())
        return eigh(h)

    linalg._eigh_symmetrized = recorded
    conn.send((repr(scan(cfg)), any(off_main)))
    conn.close()


# Forking a process that runs a thread warns on Python 3.12 and later.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_scans_with_its_own_worker():
    cfg = ScanConfig(dims=(5, 5, 5), samples=1, seed=3)
    parent = repr(scan(cfg))  # the parent's worker thread now runs
    assert linalg._worker is not None
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_scan_in_child, args=(cfg, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child's scan did not return"
        assert receive.recv() == (parent, True)
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
