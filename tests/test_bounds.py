import math

import numpy as np
import pytest

from qcmi.analysis import ChannelAnalysis
from qcmi.bounds import bound_report, fidelity_lower_bound
from qcmi.channels import depolarizing_channel, identity_channel, random_channel
from qcmi.errors import SingularMatrixError
from qcmi.inequalities import proven_checks
from qcmi.linalg import hs_norm, mat_log, trace_norm
from qcmi.sampling import (
    random_density,
    random_markov_state,
    random_tripartite,
    substream,
)
from qcmi.states import ClassicalJoint, classical_state, embed, partial_trace, tripartite, validate_density
from qcmi.trace_inequalities import lieb_triple_rhs

LN2 = math.log(2)


def parity_state():
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return classical_state(ClassicalJoint(p))


def product_state(rng):
    mats = [random_density(2, rng).mat for _ in range(3)]
    return tripartite(np.kron(np.kron(mats[0], mats[1]), mats[2]), (2, 2, 2))


class TestSigmaStar:
    def test_product_state_reproduces_itself(self):
        st = product_state(substream(40, 0))
        np.testing.assert_allclose(st.analysis.sigma_star, st.mat, atol=1e-10)

    def test_parity_state_is_maximally_mixed(self):
        np.testing.assert_allclose(parity_state().analysis.sigma_star, np.eye(8) / 8, atol=1e-12)

    def test_markov_state_reproduces_itself(self):
        for i in range(5):
            st = random_markov_state((2, 3, 2), substream(40, 1, i))
            assert hs_norm(st.analysis.sigma_star - st.mat) <= 1e-8

    def test_support_restriction_flagged(self):
        # a state whose AB marginal is singular takes the projected branch
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = 0.5
        p[0, 0, 1] = 0.5
        st = classical_state(ClassicalJoint(p))
        rep = bound_report(st)
        assert rep.support_restricted
        assert rep.sigma_star_trace <= 1.0 + 1e-9


class TestTraceExp:
    def test_product_state(self):
        assert bound_report(product_state(substream(41, 0))).sigma_star_trace == pytest.approx(1.0, abs=1e-10)

    def test_parity_state(self):
        assert bound_report(parity_state()).sigma_star_trace == pytest.approx(1.0, abs=1e-10)

    def test_at_most_one_and_below_lieb_rhs(self):
        rng = substream(41, 1)
        dims = (2, 2, 2)
        for _ in range(50):
            st = random_tripartite(dims, rng)
            value = bound_report(st).sigma_star_trace
            assert 0.0 < value <= 1.0 + 1e-9
            r = embed(partial_trace(st, "AB").mat, "AB", dims)
            s = embed(partial_trace(st, "B").mat, "B", dims)
            t = embed(partial_trace(st, "BC").mat, "BC", dims)
            assert value <= lieb_triple_rhs(r, s, t) + 1e-9


class TestLogOverlapBound:
    def test_markov_state(self):
        st = random_markov_state((2, 2, 2), substream(42, 0))
        assert abs(bound_report(st).log_overlap_bound) <= 1e-7

    def test_product_state(self):
        assert abs(bound_report(product_state(substream(42, 1))).log_overlap_bound) <= 1e-9

    def test_parity_state_frozen_value(self):
        assert bound_report(parity_state()).log_overlap_bound == pytest.approx(LN2, abs=1e-9)


class TestBoundReport:
    def test_markov_state_all_zero(self):
        st = random_markov_state((2, 3, 2), substream(43, 0))
        rep = bound_report(st)
        assert abs(rep.cmi) <= 1e-9
        assert abs(rep.thm1_bound) <= 1e-8
        assert abs(rep.corollary_bound) <= 1e-8
        assert abs(rep.log_overlap_bound) <= 1e-7

    def test_parity_state_frozen_values(self):
        rep = bound_report(parity_state())
        assert rep.cmi == pytest.approx(LN2, abs=1e-9)
        assert rep.thm1_bound == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        assert rep.corollary_bound == pytest.approx(0.25, abs=1e-9)
        assert rep.log_overlap_bound == pytest.approx(LN2, abs=1e-9)
        assert rep.sigma_star_trace == pytest.approx(1.0, abs=1e-9)

    def test_chain_ordering_on_random_corpus(self):
        rng = substream(43, 1)
        for _ in range(100):
            rep = bound_report(random_tripartite((2, 2, 2), rng))
            assert rep.cmi >= rep.log_overlap_bound - 1e-8
            assert rep.log_overlap_bound >= rep.thm1_bound - 1e-8
            assert rep.thm1_bound >= rep.corollary_bound - 1e-8
            assert rep.slack_thm1 >= -1e-8
            assert rep.slack_corollary >= -1e-8

    def test_equality_case_detects_markov(self):
        # cmi ~ 0 forces the theorem bound to ~ 0
        st = random_markov_state((2, 2, 2), substream(43, 2))
        rep = bound_report(st)
        assert rep.cmi <= 1e-10
        assert rep.thm1_bound <= 1e-8


class TestChannelGapBound:
    def test_identity_channel_collapses(self):
        rng = substream(44, 0)
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        a = ChannelAnalysis(rho, sigma, identity_channel(2))
        assert a.lhs == pytest.approx(0.0, abs=1e-9)
        assert a.rhs == pytest.approx(0.0, abs=1e-9)

    def test_depolarizing_frozen_values(self):
        rho = validate_density(np.diag([0.75, 0.25]))
        sigma = validate_density(np.diag([0.25, 0.75]))
        a = ChannelAnalysis(rho, sigma, depolarizing_channel(2))
        assert a.lhs == pytest.approx(0.5 * math.log(3), abs=1e-9)
        assert a.rhs == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)

    def test_depolarizing_exponent_collapses_to_log_sigma(self):
        rho = validate_density(np.diag([0.75, 0.25]))
        sigma = validate_density(np.diag([0.25, 0.75]))
        ex = ChannelAnalysis(rho, sigma, depolarizing_channel(2)).exp_operator
        np.testing.assert_allclose(mat_log(ex), mat_log(sigma.mat), atol=1e-10)

    def test_monotonicity_and_bound_on_random_triples(self):
        rng = substream(44, 1)
        for i in range(60):
            dim = 2 + i % 3
            rho = random_density(dim, rng)
            sigma = random_density(dim, rng)
            phi = random_channel(dim, dim, 1 + i % 4, rng)
            a = ChannelAnalysis(rho, sigma, phi)
            assert a.lhs >= -1e-9
            assert a.lhs >= a.rhs - 1e-8

    def test_singular_input_rejected(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        sigma = random_density(2, substream(44, 2))
        with pytest.raises(SingularMatrixError):
            ChannelAnalysis(rho, sigma, identity_channel(2))


class TestFidelityLowerBound:
    def test_equality_at_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = validate_density(np.eye(d) / d)
            f, bound = fidelity_lower_bound(rho, rho)
            assert f == pytest.approx(1.0, abs=1e-9)
            assert bound == pytest.approx(1.0, abs=1e-9)

    def test_anti_aligned_diagonal_pair(self):
        rho = validate_density(np.diag([0.75, 0.25]))
        sigma = validate_density(np.diag([0.25, 0.75]))
        f, bound = fidelity_lower_bound(rho, sigma)
        assert f == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert f >= bound - 1e-9

    def test_holds_on_random_pairs(self):
        rng = substream(45, 0)
        for i in range(100):
            dim = 2 + i % 3
            rho = random_density(dim, rng)
            sigma = random_density(dim, rng)
            f, bound = fidelity_lower_bound(rho, sigma)
            assert f >= bound - 1e-9

    def test_requires_full_rank(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            fidelity_lower_bound(rho, rho)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2(a): each marginal drops its eigenvalues below the support cutoff "
    "independently of rho, so this near-pure state reads log-overlap-below-cmi "
    "-3.85e-10, a false violation at tol 1e-10",
)
def test_a_near_pure_state_holds_the_log_overlap_bound_at_a_fine_tol():
    # A rank-1 3,3,3 state plus Hilbert-Schmidt noise of weight 1e-10.
    rng = substream(11, 177)
    g = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    psi = g / np.linalg.norm(g)
    eps = 1e-10
    mat = (1 - eps) * np.outer(psi, psi.conj()) + eps * random_density(27, rng).mat
    checks = dict(proven_checks(tripartite(mat, (3, 3, 3)).analysis, None))
    assert checks["log-overlap-below-cmi"] >= -1e-10
