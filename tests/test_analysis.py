"""The shared per-state spectral analysis: reuse, decomposition counts and
the numerical contracts of sqrt(sigma*), M and the Lieb value of its marginals."""

import weakref

import numpy as np
import pytest

from qcmi import analysis as analysis_module
from qcmi.analysis import MARGINALS, ChannelAnalysis, StackAnalysis, analyse_together
from qcmi.bounds import sigma_star
from qcmi.channels import identity_channel
from qcmi.errors import SingularMatrixError
from qcmi.harness import CORPORA, STACK_BUDGET, ScanConfig, corpus_state, evaluate_sample, scan
from qcmi.linalg import dagger, hermitian_part, hs_norm, mat_sqrt, support_cutoff
from qcmi.recovery import m_operator
from qcmi.sampling import random_density, random_tripartite, random_unitary, substream
from qcmi.states import (
    ClassicalJoint,
    TripartiteState,
    classical_state,
    embed,
    partial_trace,
    tripartite,
    validate_density,
)
from qcmi.trace_inequalities import lieb_triple_rhs
from oracles import m_three_embeds
from test_golden import cases as golden_cases
from test_golden import record, restricted_states, sub_cutoff_classical

# One scan sample at full dimension d decomposes rho (which also validates
# it), the exponent h, and the four trace-norm spectra rho - sigma*,
# rho - M M^dag, rho - M^dag M and [M, M^dag]; with the three marginals,
# each decomposed once for its validation and its functions, that makes
# nine. A support-restricted sample would add decompositions of its own.
FULL_DIM_DECOMPOSITIONS_PER_SAMPLE = 6
DECOMPOSITIONS_PER_SAMPLE = 9


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
    """Count the M operators the body that forms M builds, one per stacked state."""
    calls = []
    prop = StackAnalysis.__dict__["m"]
    original = prop.func

    def counted(self):
        calls.extend([self] * len(self))
        return original(self)

    monkeypatch.setattr(prop, "func", counted)
    return calls


@pytest.mark.parametrize("corpus", ["hs-random", "markov"])
def test_scan_sample_decomposition_budget(corpus, decompositions, m_builds):
    samples = 3
    scan(ScanConfig(dims=(3, 3, 3), samples=samples, seed=31, corpus=corpus))
    full = sum(1 for n in decompositions if n == 27)
    assert full <= FULL_DIM_DECOMPOSITIONS_PER_SAMPLE * samples
    assert len(decompositions) <= DECOMPOSITIONS_PER_SAMPLE * samples
    assert len(m_builds) == samples


def test_analysis_is_cached_on_the_state():
    st = random_tripartite((2, 2, 2), substream(32, 0))
    assert st.analysis is st.analysis
    assert m_operator(st) is m_operator(st)
    assert sigma_star(st) is sigma_star(st)


def test_cached_operators_are_read_only():
    st = random_tripartite((2, 2, 2), substream(32, 1))
    for op in (m_operator(st), sigma_star(st)):
        with pytest.raises(ValueError):
            op[0, 0] = 0.0


def _states():
    out = [random_tripartite(d, substream(33, i)) for i, d in enumerate([(2, 2, 2), (1, 3, 2), (2, 3, 1)])]
    return out + list(restricted_states().values()) + [sub_cutoff_classical()]


@pytest.mark.parametrize("state", _states())
def test_sqrt_sigma_star_keeps_the_support_cutoff(state):
    # sqrt(sigma*) must equal mat_sqrt(sigma*): eigenvalues of sigma* at
    # or below the support cutoff count as zero, also when they come
    # from exp(h) rather than from a decomposition of sigma* itself.
    a = state.analysis
    np.testing.assert_allclose(a.sqrt_sigma_star, mat_sqrt(a.sigma_star), rtol=0, atol=1e-13)


def test_sub_cutoff_eigenvalue_is_dropped():
    a = sub_cutoff_classical().analysis
    assert 0.0 < a.sigma_star[0, 0].real < 1e-17
    assert a.sqrt_sigma_star[0, 0] == 0.0


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
    _, _, psd_b = st.analysis.marginal_psd
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
    sigma_star(st)
    m_operator(st)
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
def test_mixed_stack_matches_states_analysed_alone(states):
    stacked = [TripartiteState(rho=st.rho, dims=st.dims) for st in states]
    analyse_together(stacked)
    assert len({id(st.analysis.stack) for st in stacked}) == 1
    for together, alone in zip(stacked, states):
        assert record(together, "hs-random") == record(alone, "hs-random")
        for name in ("sigma_star", "sqrt_sigma_star", "m", "m_mdag", "mdag_m"):
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
    # The analysis reads the ranks of rho and its marginals from eigh, where
    # validate_density and partial_trace use eigvalsh. The two eigenvalues
    # of a matrix differ in the last bits, so an eigenvalue within ulps of
    # the support cutoff could count differently; none does here.
    for states in _drift_groups():
        analyse_together(states)
        for st in states:
            assert st.analysis.rho_rank == validate_density(st.mat).support_rank
            for keep, marginal in zip(MARGINALS, st.analysis.marginals):
                assert marginal.support_rank == partial_trace(st, keep).support_rank


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
    st = TripartiteState(rho=validate_density(m), dims=(1, 3, 1))
    assert st.analysis.rho_rank == 2
    assert [marginal.support_rank for marginal in st.analysis.marginals] == [2, 2, 2]
    assert [partial_trace(st, keep).support_rank for keep in MARGINALS] == [2, 2, 2]
    rho = random_density(3, substream(38, 1))
    with pytest.raises(SingularMatrixError) as exc:
        ChannelAnalysis(rho.mat, m, identity_channel(3)).lhs
    assert str(exc.value) == "sigma must be full rank (support rank 2 of 3)"


# -- marginal operators at subsystem dimension ------------------------------


def _oracle_states():
    # The drift set's states, analysed in their corpus stacks, the golden
    # states one by one, and the mixed stacks of full-rank, support-restricted
    # and sub-cutoff states.
    groups = _drift_groups()
    for states in groups:
        analyse_together(states)
    for states in _mixed_stacks():
        stacked = [TripartiteState(rho=st.rho, dims=st.dims) for st in states]
        analyse_together(stacked)
        groups.append(stacked)
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
