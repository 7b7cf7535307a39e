"""The shared per-state spectral analysis: reuse, decomposition counts and
the numerical contracts of the overlap, thm1, M and the Lieb value of its
marginals."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from qcmi import analysis as analysis_module
from qcmi.analysis import MARGINALS, ChannelAnalysis, StackAnalysis, analyse_together
from qcmi.channels import identity_channel
from qcmi.cli import main
from qcmi.errors import SingularMatrixError, ValidationError
from qcmi.harness import CORPORA, STACK_BUDGET, ScanConfig, corpus_state, evaluate_sample, scan
from qcmi.inequalities import proven_checks, rotated_slacks
from qcmi.linalg import (
    dagger,
    hermitian_part,
    hs_norm,
    mat_exp,
    mat_sqrt,
    support_cutoff,
)
from qcmi.recovery import recover_via_ab, recover_via_bc
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
from qcmi.tolerances import INTERSECTION_TOL
from qcmi.trace_inequalities import lieb_triple_rhs
from oracles import m_three_embeds, nussbaum_szkola, sqrtm_chain
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
    analyse_together(states)
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
    # mat_sqrt of rho and of sigma*, each with its own support cutoff.
    root_rho, root_sigma = mat_sqrt(state.mat), mat_sqrt(state.analysis.sigma_star)
    return np.trace(root_rho @ root_sigma).real, hs_norm(root_rho - root_sigma) ** 2


@pytest.mark.parametrize("state", _states())
def test_overlap_and_thm1_keep_the_support_cutoff(state):
    # The sums over W must equal the mat_sqrt forms: eigenvalues of sigma*
    # at or below the support cutoff count as zero, also when they come
    # from exp(h) rather than from a decomposition of sigma* itself.
    overlap, thm1 = _root_forms(state)
    assert state.analysis.overlap == pytest.approx(overlap, rel=0, abs=1e-13)
    assert state.analysis.thm1 == pytest.approx(thm1, rel=0, abs=1e-13)


def test_sub_cutoff_eigenvalue_is_dropped():
    # sigma*[000] ~ 3e-18 is below sigma*'s support cutoff. Its square root,
    # ~2e-9 against sqrt(rho[000]) ~ 2e-5, would move the overlap by 4e-14
    # and thm1 by 8e-14; the classical state's W is a permutation, so both
    # match the mat_sqrt forms to roundoff.
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
    stacked = [TripartiteState(st.mat, st.dims) for st in states]
    analyse_together(stacked)
    assert len({id(st.analysis.stack) for st in stacked}) == 1
    # sigma* is rebuilt from exp(h)'s decomposition for the full-rank rows
    # only; the restricted rows copy the sigma* they keep.
    stack = stacked[0].analysis.stack
    full = int(np.count_nonzero(~stack.support_restricted))
    assert 0 < full < len(stack)
    applies.clear()
    stack.sigma_star()
    assert applies == [(full, stack.mat.shape[-1])]
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
        analyse_together(states)
        for st in states:
            assert st.analysis.rho.support_rank == validate_density(st.mat).support_rank
            for keep, marginal in zip(MARGINALS, st.analysis.marginals):
                assert marginal.support_rank == partial_trace(st, keep).support_rank


def test_drift_set_marginals_are_bitwise_the_marginals_validated_alone():
    # Over every corpus, the rank-deficient markov and classical ones too,
    # the marginals the stacked analysis keeps are those validate_density
    # makes of each partial trace alone: the same decomposition, cutoff and
    # support rank.
    for states in _drift_groups():
        analyse_together(states)
        for st in states:
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
    groups = _drift_groups()
    for states in groups:
        analyse_together(states)
    for states in _mixed_stacks():
        stacked = [TripartiteState(st.mat, st.dims) for st in states]
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


# -- operators on demand and the working set --------------------------------


def _operators(st):
    # Every operator the analysis builds on demand, and the recoveries that
    # validate its kept M M^dag and M^dag M (None where that raises).
    a = st.analysis
    ops = {
        "sigma_star": a.sigma_star,
        "m": a.m,
        "m_mdag": a.m_mdag,
        "mdag_m": a.mdag_m,
    }
    ops.update({f"log_{keep}": log for keep, log in zip(MARGINALS, a.embedded_logs)})
    for name, recover in (("via_ab", recover_via_ab), ("via_bc", recover_via_bc)):
        try:
            ops[name] = recover(st).mat
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


def test_support_restricted_sigma_star_is_p_exp_php_p():
    # A restricted row's sigma* is bitwise P exp(P h P) P, for P the
    # intersection of the embedded supports, alone and in a mixed stack;
    # not a rebuild from the decomposition that its sqrt reads.
    alone = list(restricted_states().values())
    stacked = []
    for states in _mixed_stacks():
        stacked.append([TripartiteState(st.mat, st.dims) for st in states])
        analyse_together(stacked[-1])
    restricted = [st for st in alone + sum(stacked, []) if st.analysis.support_restricted]
    assert len(restricted) == 2 * len(alone)
    for st in restricted:
        a = st.analysis
        psd_ab, psd_bc, _ = (m.eig for m in a.marginals)
        both = embed(psd_ab.projector(), "AB", st.dims) + embed(psd_bc.projector(), "BC", st.dims)
        w, v = np.linalg.eigh(hermitian_part(both))
        cols = v[:, w > 2.0 - INTERSECTION_TOL]
        proj = hermitian_part(cols @ dagger(cols))
        log_ab, log_bc, log_b = a.embedded_logs
        compressed = hermitian_part(proj @ (log_ab + log_bc - log_b) @ proj)
        want = hermitian_part(proj @ mat_exp(compressed) @ proj)
        assert a.sigma_star.tobytes() == want.tobytes()


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


# What a stack keeps at full dimension: rho, rho's decomposition, exp(h)'s
# decomposition (for sigma* and, with rho's, the overlap, thm1 and
# ruskai), and M M^dag and M^dag M (for the trace norms classify reads).
# Every other full-dimension operator, h among them, is built on demand.
KEPT_FULL_DIM = {"mat", "rho_psd", "_sigma", "_m_products"}


def test_a_stack_keeps_only_its_decompositions_and_m_products():
    cfg = ScanConfig(dims=(3, 3, 3), samples=4, seed=43)
    states = [corpus_state(cfg, i) for i in range(cfg.samples)]
    analyse_together(states)
    for i, st in enumerate(states):
        evaluate_sample(st, i)
        proven_checks(st.analysis, cfg.corpus)
        _operators(st)
    stack = states[0].analysis.stack
    held = {name for name, value in vars(stack).items() if _full_dim_arrays(value, (4, 27, 27))}
    assert held == KEPT_FULL_DIM


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
