"""Metamorphic relations of a scan row: local unitaries, complex
conjugation, the A <-> C mirror and tensor products.

Each relation holds exactly in exact arithmetic. The bounds come from the
samples below (seed 5, every corpus). Over local unitaries and the mirror,
every float but ruskai moved by at most 1.1e-14 (log_overlap_bound on a
2,2,2 sample), so ATOL = 1e-13 leaves a margin of 8x. ruskai =
||log rho - h||_2 moves with the logs of the least eigenvalues: by at most
1.06 eps times the largest condition number of rho and its marginals
(1.3e-11 absolute, on markov samples whose ruskai is itself roundoff), so
RUSKAI_ULPS = 16 leaves a margin of 15x. Tensor products moved cmi,
log_overlap, Tr sigma* and the overlap by at most 4.0e-15.

No corpus reaches the support-restricted sigma*, so the relations also
run on low-rank states rho = G G^dag / Tr (G Gaussian, n x k, k = 1 to 3),
20 of whose 36 rows are restricted. There every float but ruskai moved by
at most 1.0e-14 and conjugation was bitwise. A singular rho has no
condition number, so ruskai takes an absolute bound: it moved by at most
9.0e-13 (a rank-3 rho at 3,3,3, whose marginals are full rank) and by at
most 2.3e-14 on restricted rows, so LOW_RANK_RUSKAI_ATOL = 4e-12 leaves a
margin of 4x. Tensor products with a low-rank factor moved the sums by at
most 7.3e-15 and the products by at most 3.0e-15.

The scan chain is also the channel bound of one family: for phi = Tr_A
and sigma = rho_AB (x) tau_C with tau_C full rank, the tau_C terms cancel
in exact arithmetic, so ChannelAnalysis gives lhs = cmi, rhs =
log_overlap_bound, trace_exp = Tr sigma* and petz_gap = gap_m, whatever
tau_C is. In floating point they cancel only to the rounding of the logs,
which grows with the condition number of the channel's inputs and
outputs: over 120 full-rank hs-random states at each of the cross-oracle
dims (seeds 5-7), with tau_C maximally mixed or drawn, lhs, rhs and
trace_exp moved by at most 0.28 eps times the largest condition number of
rho, sigma, phi(rho) and phi(sigma) (at most 2.5e-13 absolute), and
petz_gap by at most 0.044 eps times it. So CROSS_ULPS leaves a margin of
7x and more.
"""

import math

import numpy as np
import pytest

from qcmi.analysis import ChannelAnalysis, _analysed
from qcmi.channels import partial_trace_channel
from qcmi.harness import CORPORA, ScanConfig, corpus_state, evaluate_sample
from qcmi.linalg import dagger, hermitian_part
from qcmi.sampling import random_density, random_unitary, substream
from qcmi.states import TripartiteState, validate_density

ATOL = 1e-13
RUSKAI_ULPS = 16
LOW_RANK_RUSKAI_ATOL = 4e-12
DIMS = ((2, 2, 2), (2, 3, 2), (3, 3, 3), (4, 4, 4))
SAMPLES = 2
LOW_RANK_DIMS = ((2, 2, 2), (2, 3, 2), (3, 3, 3))
LOW_RANKS = (1, 2, 3)
LOW_RANK_SAMPLES = 4
# ChannelAnalysis value: (the scan row's field it equals, bound in eps x condition number).
CROSS_ULPS = {
    "lhs": ("cmi", 2.0),
    "rhs": ("log_overlap_bound", 2.0),
    "trace_exp": ("sigma_star_trace", 2.0),
    "petz_gap": ("recovery_gap_M", 0.5),
}
CROSS_DIMS = ((2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4))
CROSS_SAMPLES = 8


def _cases(dims_list=DIMS, samples=SAMPLES):
    # (dims, corpus, index) of the samples a relation is checked on.
    return [
        (dims, corpus, i) for dims in dims_list for corpus in CORPORA for i in range(samples)
    ]


def _low_rank_cases():
    # (dims, rank, index) of the low-rank states a relation is checked on.
    return [
        (dims, k, i) for dims in LOW_RANK_DIMS for k in LOW_RANKS for i in range(LOW_RANK_SAMPLES)
    ]


def _case_id(case) -> str:
    dims, source, i = case
    source = f"rank{source}" if isinstance(source, int) else source
    return f"{','.join(map(str, dims))}-{source}-{i}"


def _low_rank(dims, k, i) -> TripartiteState:
    # rho = G G^dag / Tr for a complex Gaussian n x k matrix G.
    n = math.prod(dims)
    rng = substream(5, *dims, k, i)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    m = g @ dagger(g)
    return TripartiteState(hermitian_part(m / np.trace(m).real), dims)


def _drawn(case) -> TripartiteState:
    dims, source, i = case
    if isinstance(source, int):
        return _low_rank(dims, source, i)
    return corpus_state(ScanConfig(dims=dims, samples=SAMPLES, seed=5, corpus=source), i)


def _row(state) -> dict:
    return vars(evaluate_sample(state, 0))


def _condition(state) -> float:
    # The largest lambda_max / lambda_min of rho and its marginals.
    a = state.analysis
    spectra = [m.eig.eigenvalues for m in (a.rho, *a.marginals)]
    return max(w[-1] / w[0] if w[0] > 0.0 else math.inf for w in spectra)


def _ruskai_tol(case, state) -> float:
    # _condition is infinite or meaningless on a singular rho, so a
    # low-rank state's ruskai takes the absolute bound.
    if isinstance(case[1], int):
        return LOW_RANK_RUSKAI_ATOL
    return RUSKAI_ULPS * np.finfo(float).eps * _condition(state)


def _assert_rows_match(ruskai_tol: float, got: dict, want: dict) -> None:
    assert got["label"] == want["label"]
    assert got["support_restricted"] == want["support_restricted"]
    for name, value in want.items():
        if isinstance(value, float):
            tol = ruskai_tol if name == "ruskai_residual" else ATOL
            assert abs(got[name] - value) <= tol, (name, got[name], value)


def _locally_rotated(state, rng) -> TripartiteState:
    u_a, u_b, u_c = (random_unitary(d, rng) for d in state.dims)
    u = np.kron(np.kron(u_a, u_b), u_c)
    return TripartiteState(hermitian_part(u @ state.mat @ dagger(u)), state.dims)


def _mirrored(state) -> TripartiteState:
    # rho on C (x) B (x) A.
    d_a, d_b, d_c = state.dims
    m = state.mat.reshape(d_a, d_b, d_c, d_a, d_b, d_c).transpose(2, 1, 0, 5, 4, 3)
    return TripartiteState(m.reshape(state.dim, state.dim), (d_c, d_b, d_a))


def _tensor(s, t) -> TripartiteState:
    # s (x) t on (A_s A_t) (x) (B_s B_t) (x) (C_s C_t).
    (a, b, c), (x, y, z) = s.dims, t.dims
    m = np.kron(s.mat, t.mat).reshape(a, b, c, x, y, z, a, b, c, x, y, z)
    m = m.transpose(0, 3, 1, 4, 2, 5, 6, 9, 7, 10, 8, 11)
    return TripartiteState(m.reshape(s.dim * t.dim, s.dim * t.dim), (a * x, b * y, c * z))


@pytest.mark.parametrize("case", _low_rank_cases(), ids=_case_id)
def test_low_rank_states_reach_the_support_restricted_path(case):
    # A rank-k rho has rank at most k d_C on AB and k d_A on BC, so rho_AB
    # or rho_BC is singular, and sigma* support-restricted, exactly when
    # one of these is below its dimension.
    (d_a, d_b, d_c), k, _ = case
    restricted = k * d_c < d_a * d_b or k * d_a < d_b * d_c
    assert _row(_drawn(case))["support_restricted"] == restricted


@pytest.mark.parametrize(
    "case", _cases() + [((5, 5, 5), "hs-random", 0)] + _low_rank_cases(), ids=_case_id
)
def test_local_unitaries_leave_the_row_unchanged(case):
    state = _drawn(case)
    rng = substream(5, *state.dims, state.dim)
    _assert_rows_match(_ruskai_tol(case, state), _row(_locally_rotated(state, rng)), _row(state))


@pytest.mark.parametrize("case", _cases() + _low_rank_cases(), ids=_case_id)
def test_complex_conjugation_leaves_the_row_bitwise_unchanged(case):
    # LAPACK and BLAS make the conjugate of every complex operation on
    # conjugated input, so every decomposition is conjugated exactly and
    # every real value is the same.
    state = _drawn(case)
    conjugated = TripartiteState(state.mat.conj(), state.dims)
    assert _row(conjugated) == _row(state)


@pytest.mark.parametrize("case", _cases(DIMS + ((2, 3, 4),)) + _low_rank_cases(), ids=_case_id)
def test_the_mirror_swaps_the_two_recovery_gaps(case):
    # On C (x) B (x) A, M becomes the swap of M^dag: M M^dag and M^dag M
    # trade places, and cmi, sigma* and the chain are symmetric.
    state = _drawn(case)
    got = _row(_mirrored(state))
    want = _row(state)
    want["recovery_gap_M"], want["recovery_gap_Mprime"] = (
        want["recovery_gap_Mprime"],
        want["recovery_gap_M"],
    )
    want["dA"], want["dC"] = want["dC"], want["dA"]
    _assert_rows_match(_ruskai_tol(case, state), got, want)


def _assert_tensor_relations(s, t) -> None:
    product = _tensor(s, t)
    assert product.dims == (4, 4, 4)
    rs, rt, rp = (evaluate_sample(st, 0) for st in (s, t, product))
    # sigma* of the product is the product of the sigma*s, restricted if
    # either factor's is.
    assert rp.support_restricted == (rs.support_restricted or rt.support_restricted)
    assert abs(rp.cmi - (rs.cmi + rt.cmi)) <= ATOL
    assert abs(rp.log_overlap_bound - (rs.log_overlap_bound + rt.log_overlap_bound)) <= ATOL
    assert abs(rp.sigma_star_trace - rs.sigma_star_trace * rt.sigma_star_trace) <= ATOL
    overlap = s.analysis.overlap * t.analysis.overlap
    assert abs(product.analysis.overlap - overlap) <= ATOL


@pytest.mark.parametrize("corpus", CORPORA)
def test_tensor_products_add_cmi_and_log_overlap(corpus):
    cfg = ScanConfig(dims=(2, 2, 2), samples=4, seed=5, corpus=corpus)
    for i in range(0, cfg.samples, 2):
        _assert_tensor_relations(corpus_state(cfg, i), corpus_state(cfg, i + 1))


@pytest.mark.parametrize("k", LOW_RANKS)
def test_tensor_products_with_a_low_rank_factor(k):
    cfg = ScanConfig(dims=(2, 2, 2), samples=LOW_RANK_SAMPLES, seed=5)
    for i in range(cfg.samples):
        _assert_tensor_relations(_low_rank(cfg.dims, k, i), corpus_state(cfg, i))


def _condition_number(*densities) -> float:
    # The largest lambda_max / lambda_min of full-rank density matrices.
    return max(m.eig.eigenvalues[-1] / m.eig.eigenvalues[0] for m in densities)


@pytest.mark.parametrize("dims", CROSS_DIMS, ids=lambda d: ",".join(map(str, d)))
def test_channel_analysis_of_the_partial_trace_is_the_scan_chain(dims):
    # The state side is analysed as one stack, the channel side one matrix
    # at a time.
    cfg = ScanConfig(dims=dims, samples=CROSS_SAMPLES, seed=5)
    states = _analysed(np.array([corpus_state(cfg, i).mat for i in range(cfg.samples)]), dims)
    phi = partial_trace_channel(dims)
    d_c = dims[2]
    for i, state in enumerate(states):
        assert state.rho.is_full_rank()
        row = vars(evaluate_sample(state, i))
        rho_ab = state.analysis.marginals[0].mat
        for tau in (np.eye(d_c) / d_c, random_density(d_c, substream(5, *dims, i)).mat):
            sigma = validate_density(np.kron(rho_ab, tau))
            a = ChannelAnalysis(state.rho, sigma, phi)
            outputs = (validate_density(phi.apply(m.mat)) for m in (state.rho, sigma))
            eps_cond = np.finfo(float).eps * _condition_number(state.rho, sigma, *outputs)
            for name, (field, ulps) in CROSS_ULPS.items():
                got, want = getattr(a, name), row[field]
                assert abs(got - want) <= ulps * eps_cond, (name, i, got, want)
