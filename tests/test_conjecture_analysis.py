"""The conjecture runs' shared spectral data: equality with the
per-matrix compositions in tests/oracles.py (bitwise but for the channel
bound's rhs), the rhs against a 40-digit evaluation, and decomposition
budgets."""

import math

import numpy as np
import pytest

from oracles import (
    channel_exp_operator_alone,
    channel_exponent_alone,
    channel_gap_bound_alone,
    channel_rhs_mpmath,
    channel_sample_alone,
    petz_dual_alone,
    random_unitary_alone,
    rotated_slacks_loop,
)
from qcmi.analysis import ChannelAnalysis
from qcmi.channels import KrausChannel, identity_channel, petz_dual, random_channel
from qcmi.errors import QcmiError, ValidationError
from qcmi.harness import CORPORA, ScanConfig, corpus_state, run_conjecture
from qcmi.inequalities import rotated_slacks
from qcmi.linalg import PsdEigen
from qcmi.sampling import random_density, random_unitary, substream
from qcmi.states import validate_density

# One channel sample decomposes rho, sigma, phi(rho) and phi(sigma) (each
# once for its validation and its functions) and the exponent of the exp
# operator (which serves the operator and its square root), and takes one
# spectrum for the Petz recovery gap.
DECOMPOSITIONS_PER_CHANNEL_SAMPLE = 6
# Its matrix functions: log sigma, log phi(rho) and log phi(sigma), each
# built once for lhs and the exponent; the exp operator, for Tr X; and
# sqrt(sigma) and phi(sigma)^(-1/2) for the Petz map. sigma and phi(sigma)
# are full rank, so rel_entropy builds no support projector.
BUILDS_PER_CHANNEL_SAMPLE = 6

# The analysis takes rhs's overlap as a sum over the transfer matrix of
# rho's and the exponent's eigenvectors; the composition multiplies
# sqrt(rho) by sqrt(X) from a decomposition of X. Over 400 random triples
# (dims 2 to 64, 1 to 4 Kraus operators) the two differed by at most
# 1.9e-14, on a triple where the composition was 3.0e-14 relative off a
# 40-digit evaluation and the analysis 1.5e-15; RHS_ATOL leaves a margin
# of 2x. On the triples below they differ by at most 1.6e-15.
RHS_ATOL = 4e-14
# Against channel_rhs_mpmath at dims 3 and 8 the analysis' rhs was off by
# at most 2.4e-15; RHS_MPMATH_ATOL leaves a margin of 4x.
RHS_MPMATH_ATOL = 1e-14

ROTATED_DIMS = ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 3, 3))
UNITARY_SAMPLES = (0, 1, 4, 10)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count numpy's eigh, eigvalsh and qr calls, and the matrices they take.

    Returns {name: [calls, matrices]}; a stacked call on (k, n, n) counts
    one call and k matrices.
    """
    counts = {}
    for name in ("eigh", "eigvalsh", "qr"):
        original = getattr(np.linalg, name)
        counts[name] = [0, 0]

        def counted(a, *args, _original=original, _count=counts[name], **kwargs):
            _count[0] += 1
            _count[1] += int(np.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _outcome(fn, *args):
    # The value, or the error's type and message; repr tells -0.0 from 0.0.
    try:
        return repr(fn(*args))
    except QcmiError as exc:
        return type(exc).__name__, str(exc)


def test_random_unitary_is_the_single_draw():
    for dim in (1, 2, 8, 27):
        got = random_unitary(dim, substream(50, dim))
        np.testing.assert_array_equal(got, random_unitary_alone(dim, substream(50, dim)))


@pytest.mark.parametrize("dims", ROTATED_DIMS)
@pytest.mark.parametrize("corpus", CORPORA)
def test_rotated_slacks_match_the_loop(corpus, dims):
    cfg = ScanConfig(dims=dims, samples=3, seed=51, corpus=corpus)
    for i in range(cfg.samples):
        state = corpus_state(cfg, i)
        for k in UNITARY_SAMPLES:
            got = _outcome(rotated_slacks, state.analysis, substream(cfg.seed, i, 1), k)
            want = _outcome(rotated_slacks_loop, state, substream(cfg.seed, i, 1), k)
            assert got == want


def test_rotated_slacks_make_one_call_of_each_kind(linalg_calls):
    state = corpus_state(ScanConfig(dims=(3, 3, 3), samples=1, seed=52), 0)
    rotated_slacks(state.analysis, substream(52, 0, 1), 1)  # the state's own analysis
    for count in linalg_calls.values():
        count[:] = [0, 0]
    rotated_slacks(state.analysis, substream(52, 0, 1), 10)
    # One stacked QR of the 30 unitaries; one exponential and one trace norm
    # for each of the 10 triples.
    assert linalg_calls == {"eigh": [1, 10], "eigvalsh": [1, 10], "qr": [1, 30]}


def _triples():
    # (rho, sigma, phi) at dims 3, 8 and 27 with 1-4 Kraus operators.
    for dim in (3, 8, 27):
        for kraus in (1, 2, 3, 4):
            rng = substream(53, dim, kraus)
            rho = random_density(dim, rng)
            sigma = random_density(dim, rng)
            yield rho, sigma, random_channel(dim, dim, kraus, rng)


def _triple_id(triple) -> str:
    rho, _, phi = triple
    return f"d{rho.dim}-k{len(phi.kraus)}"


@pytest.mark.parametrize("triple", list(_triples()), ids=_triple_id)
def test_channel_analysis_matches_the_composition(triple):
    rho, sigma, phi = triple
    a = ChannelAnalysis(rho, sigma, phi)
    got = (a.lhs, a.rhs, a.trace_exp, a.petz_gap)
    lhs, rhs, trace_exp, petz_gap = channel_sample_alone(rho, sigma, phi)
    assert repr((a.lhs, a.trace_exp, a.petz_gap)) == repr((lhs, trace_exp, petz_gap))
    assert abs(a.rhs - rhs) <= RHS_ATOL
    ex = channel_exp_operator_alone(rho, sigma, phi)
    np.testing.assert_array_equal(a.exp_operator, ex)
    for ours, theirs in zip(a.petz.kraus, petz_dual_alone(phi, sigma).kraus):
        np.testing.assert_array_equal(ours, theirs)
    # A new analysis of the same triple reads the same values, and
    # petz_dual the same map.
    again = ChannelAnalysis(rho, sigma, phi)
    assert repr((again.lhs, again.rhs)) == repr(got[:2])
    np.testing.assert_array_equal(again.exp_operator, ex)
    for ours, theirs in zip(petz_dual(phi, sigma).kraus, a.petz.kraus):
        np.testing.assert_array_equal(ours, theirs)
    # The analysis' full-rank decisions are those of validate_density on
    # each matrix alone: how the analysis reaches a matrix does not change
    # its support rank.
    outputs = (phi.apply(rho.mat), phi.apply(sigma.mat))
    for dm, m in zip((a.rho, a.sigma) + a._outputs, (rho.mat, sigma.mat) + outputs):
        assert dm.is_full_rank() == validate_density(m).is_full_rank()


@pytest.mark.parametrize("triple", [t for t in _triples() if t[0].dim < 27], ids=_triple_id)
def test_channel_rhs_matches_a_40_digit_evaluation(triple):
    rho, sigma, phi = triple
    want = channel_rhs_mpmath(rho.mat, channel_exponent_alone(rho, sigma, phi))
    assert abs(ChannelAnalysis(rho, sigma, phi).rhs - want) <= RHS_MPMATH_ATOL


def _channel_drawn(cfg, i):
    # The channel conjecture's draw for sample i, validated on construction.
    rng = substream(cfg.seed, i)
    kraus = 1 + int(rng.integers(4))
    dim = math.prod(cfg.dims)
    rho = random_density(dim, rng)
    sigma = random_density(dim, rng)
    return rho, sigma, random_channel(dim, dim, kraus, rng)


@pytest.mark.parametrize("dims", [(1, 1, 3), (2, 2, 2), (3, 3, 3)])
def test_channel_conjecture_matches_the_composition(dims):
    cfg = ScanConfig(dims=dims, samples=4, seed=54)
    want = {"channel-traceexp": (math.inf, 0), "channel-petz-pinsker": (math.inf, 0)}
    for i in range(cfg.samples):
        lhs, rhs, trace_exp, petz_gap = channel_sample_alone(*_channel_drawn(cfg, i))
        slacks = {
            "channel-traceexp": 1.0 - trace_exp,
            "channel-petz-pinsker": lhs - 0.25 * petz_gap * petz_gap,
        }
        for name, slack in slacks.items():
            if slack < want[name][0]:
                want[name] = (slack, i)
    got = {r.conjecture_id: (r.min_slack, r.argmin_sample) for r in run_conjecture(cfg, "channel")}
    assert repr(got) == repr(want)


def _replacement_channel(dim):
    # Every input goes to |0><0|: the output of any state is singular.
    ops = []
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[0, i] = 1.0
        ops.append(k)
    return KrausChannel(kraus=tuple(ops))


def _singular_cases():
    rng = substream(55, 0)
    full, other = random_density(2, rng), random_density(2, rng)
    pure = validate_density(np.diag([1.0, 0.0]))
    return {
        "rho": (pure, full, identity_channel(2)),
        "sigma": (full, pure, identity_channel(2)),
        "outputs": (full, other, _replacement_channel(2)),
    }


def _gap_bound(rho, sigma, phi):
    a = ChannelAnalysis(rho, sigma, phi)
    return a.lhs, a.rhs


@pytest.mark.parametrize("case", ["rho", "sigma", "outputs"])
def test_singular_triples_raise_the_composition_errors(case):
    rho, sigma, phi = _singular_cases()[case]
    assert _outcome(_gap_bound, rho, sigma, phi) == _outcome(
        channel_gap_bound_alone, rho, sigma, phi
    )
    assert _outcome(lambda: ChannelAnalysis(rho, sigma, phi).exp_operator) == _outcome(
        channel_exp_operator_alone, rho, sigma, phi
    )
    assert _outcome(lambda: petz_dual(phi, sigma).kraus[0].tobytes()) == _outcome(
        lambda: petz_dual_alone(phi, sigma).kraus[0].tobytes()
    )


def test_channel_sample_decomposition_budget(linalg_calls):
    samples = 3
    run_conjecture(ScanConfig(dims=(3, 3, 3), samples=samples, seed=56), "channel")
    decompositions = linalg_calls["eigh"][1] + linalg_calls["eigvalsh"][1]
    assert decompositions <= DECOMPOSITIONS_PER_CHANNEL_SAMPLE * samples


def test_channel_sample_build_budget(applies, monkeypatch):
    shapes, projectors = [], []
    qr, projector = np.linalg.qr, PsdEigen.projector

    def recorded_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def recorded_projector(self):
        projectors.append(self)
        return projector(self)

    monkeypatch.setattr(np.linalg, "qr", recorded_qr)
    monkeypatch.setattr(PsdEigen, "projector", recorded_projector)
    samples = 8
    run_conjecture(ScanConfig(dims=(3, 3, 3), samples=samples, seed=57), "channel")
    assert applies == [(1, 27)] * (BUILDS_PER_CHANNEL_SAMPLE * samples)
    assert projectors == []
    # One QR per sample, of the d_in = 27 columns the channel keeps, over
    # samples with each of the Kraus counts 1-4.
    assert sorted(set(shapes)) == [(27 * k, 27) for k in (1, 2, 3, 4)]
    assert len(shapes) == samples


@pytest.mark.xfail(
    strict=True,
    raises=ValidationError,
    reason="ROADMAP 2(c): the Petz map of this valid triple fails its completeness check "
    "(deviation 1.153e-08; sigma's smallest eigenvalue is 5.0e-10)",
)
def test_the_petz_map_of_an_ill_conditioned_triple_is_a_channel():
    run_conjecture(ScanConfig(dims=(3, 3, 3), samples=1, seed=486743973), "channel")
