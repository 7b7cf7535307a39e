"""The shared per-state spectral analysis: reuse, decomposition counts and
the numerical contracts of sqrt(sigma*) and the Lieb triple."""

import weakref

import numpy as np
import pytest

from qcmi.analysis import MARGINALS, StackAnalysis, analyse_together
from qcmi.bounds import sigma_star
from qcmi.errors import SingularMatrixError
from qcmi.harness import CORPORA, STACK_BUDGET, ScanConfig, corpus_state, evaluate_sample, scan
from qcmi.linalg import mat_sqrt
from qcmi.recovery import m_operator
from qcmi.sampling import random_tripartite, substream
from qcmi.states import TripartiteState, embed, partial_trace, validate_density
from qcmi.trace_inequalities import lieb_triple_rhs
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


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 2, 3), (3, 1, 2), (2, 3, 2)])
def test_lieb_rhs_in_rho_b_eigenbasis_matches_direct_form(dims):
    st = random_tripartite(dims, substream(34, sum(dims)))
    rho_ab, rho_bc, rho_b = st.analysis.marginals
    direct = lieb_triple_rhs(
        embed(rho_ab.mat, "AB", dims), embed(rho_b.mat, "B", dims), embed(rho_bc.mat, "BC", dims)
    )
    assert st.analysis.lieb_rhs == pytest.approx(direct, abs=1e-12)
    # The integral's trace collapses to Tr rho_B.
    assert st.analysis.lieb_rhs == pytest.approx(1.0, abs=1e-12)


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
        assert _lieb_rhs_or_error(together) == _lieb_rhs_or_error(alone)


def _lieb_rhs_or_error(state):
    try:
        return state.analysis.lieb_rhs
    except SingularMatrixError as exc:  # rho_B is singular
        return str(exc)


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
