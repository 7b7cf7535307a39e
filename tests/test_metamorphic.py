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
"""

import math

import numpy as np
import pytest

from qcmi.harness import CORPORA, ScanConfig, corpus_state, evaluate_sample
from qcmi.linalg import dagger, hermitian_part
from qcmi.sampling import random_unitary, substream
from qcmi.states import TripartiteState

ATOL = 1e-13
RUSKAI_ULPS = 16
DIMS = ((2, 2, 2), (3, 3, 3), (4, 4, 4))
SAMPLES = 2


def _cases(dims_list=DIMS, samples=SAMPLES):
    # (dims, corpus, index) of the samples a relation is checked on.
    return [
        (dims, corpus, i) for dims in dims_list for corpus in CORPORA for i in range(samples)
    ]


def _case_id(case) -> str:
    dims, corpus, i = case
    return f"{','.join(map(str, dims))}-{corpus}-{i}"


def _drawn(case) -> TripartiteState:
    dims, corpus, i = case
    return corpus_state(ScanConfig(dims=dims, samples=SAMPLES, seed=5, corpus=corpus), i)


def _row(state) -> dict:
    return vars(evaluate_sample(state, 0))


def _condition(state) -> float:
    # The largest lambda_max / lambda_min of rho and its marginals.
    a = state.analysis
    spectra = [a.rho_psd.eigenvalues] + [m.eig.eigenvalues for m in a.marginals]
    return max(w[-1] / w[0] if w[0] > 0.0 else math.inf for w in spectra)


def _assert_rows_match(state, got: dict, want: dict) -> None:
    assert got["label"] == want["label"]
    assert got["support_restricted"] == want["support_restricted"]
    ruskai_tol = RUSKAI_ULPS * np.finfo(float).eps * _condition(state)
    for name, value in want.items():
        if isinstance(value, float):
            tol = ruskai_tol if name == "ruskai_residual" else ATOL
            assert abs(got[name] - value) <= tol, (state.dims, name, got[name], value)


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


@pytest.mark.parametrize("case", _cases() + [((5, 5, 5), "hs-random", 0)], ids=_case_id)
def test_local_unitaries_leave_the_row_unchanged(case):
    state = _drawn(case)
    rng = substream(5, *state.dims, state.dim)
    _assert_rows_match(state, _row(_locally_rotated(state, rng)), _row(state))


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_complex_conjugation_leaves_the_row_bitwise_unchanged(case):
    # LAPACK and BLAS make the conjugate of every complex operation on
    # conjugated input, so every decomposition is conjugated exactly and
    # every real value is the same.
    state = _drawn(case)
    conjugated = TripartiteState(state.mat.conj(), state.dims)
    assert _row(conjugated) == _row(state)


@pytest.mark.parametrize("case", _cases(DIMS + ((2, 3, 4),)), ids=_case_id)
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
    _assert_rows_match(state, got, want)


@pytest.mark.parametrize("corpus", CORPORA)
def test_tensor_products_add_cmi_and_log_overlap(corpus):
    cfg = ScanConfig(dims=(2, 2, 2), samples=4, seed=5, corpus=corpus)
    for i in range(0, cfg.samples, 2):
        s, t = corpus_state(cfg, i), corpus_state(cfg, i + 1)
        product = _tensor(s, t)
        assert product.dims == (4, 4, 4)
        rs, rt, rp = (evaluate_sample(st, 0) for st in (s, t, product))
        assert abs(rp.cmi - (rs.cmi + rt.cmi)) <= ATOL
        assert abs(rp.log_overlap_bound - (rs.log_overlap_bound + rt.log_overlap_bound)) <= ATOL
        assert abs(rp.sigma_star_trace - rs.sigma_star_trace * rt.sigma_star_trace) <= ATOL
        overlap = s.analysis.overlap * t.analysis.overlap
        assert abs(product.analysis.overlap - overlap) <= ATOL
