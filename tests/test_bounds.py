import math

import numpy as np
import pytest

from qcmi.analysis import ChannelAnalysis
from qcmi.bounds import fidelity_lower_bound
from qcmi.channels import random_channel
from qcmi.errors import SingularMatrixError
from qcmi.inequalities import proven_checks
from qcmi.linalg import hs_norm, psd_eig
from qcmi.sampling import (
    random_density,
    random_markov_state,
    random_tripartite,
    substream,
)
from qcmi.states import ClassicalJoint, classical_state, embed, partial_trace, tripartite, validate_density
from qcmi.trace_inequalities import lieb_triple_rhs
from oracles import depolarizing_channel, identity_channel, parity_state

LN2 = math.log(2)


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
        a = st.analysis
        assert a.support_restricted
        assert a.sigma_star_trace <= 1.0 + 1e-9


class TestTraceExp:
    def test_product_state(self):
        assert product_state(substream(41, 0)).analysis.sigma_star_trace == pytest.approx(1.0, abs=1e-10)

    def test_parity_state(self):
        assert parity_state().analysis.sigma_star_trace == pytest.approx(1.0, abs=1e-10)

    def test_at_most_one_and_below_lieb_rhs(self):
        rng = substream(41, 1)
        dims = (2, 2, 2)
        for _ in range(50):
            st = random_tripartite(dims, rng)
            value = st.analysis.sigma_star_trace
            assert 0.0 < value <= 1.0 + 1e-9
            r = embed(partial_trace(st, "AB").mat, "AB", dims)
            s = embed(partial_trace(st, "B").mat, "B", dims)
            t = embed(partial_trace(st, "BC").mat, "BC", dims)
            assert value <= lieb_triple_rhs(r, s, t) + 1e-9


class TestLogOverlapBound:
    def test_markov_state(self):
        st = random_markov_state((2, 2, 2), substream(42, 0))
        assert abs(st.analysis.log_overlap_bound) <= 1e-7

    def test_product_state(self):
        assert abs(product_state(substream(42, 1)).analysis.log_overlap_bound) <= 1e-9

    def test_parity_state_frozen_value(self):
        assert parity_state().analysis.log_overlap_bound == pytest.approx(LN2, abs=1e-9)


class TestBoundChain:
    def test_markov_state_all_zero(self):
        st = random_markov_state((2, 3, 2), substream(43, 0))
        a = st.analysis
        assert abs(a.cmi) <= 1e-9
        assert abs(a.thm1) <= 1e-8
        assert abs(a.corollary_bound) <= 1e-8
        assert abs(a.log_overlap_bound) <= 1e-7

    def test_parity_state_frozen_values(self):
        a = parity_state().analysis
        assert a.cmi == pytest.approx(LN2, abs=1e-9)
        assert a.thm1 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        assert a.corollary_bound == pytest.approx(0.25, abs=1e-9)
        assert a.log_overlap_bound == pytest.approx(LN2, abs=1e-9)
        assert a.sigma_star_trace == pytest.approx(1.0, abs=1e-9)

    def test_chain_ordering_on_random_corpus(self):
        rng = substream(43, 1)
        for _ in range(100):
            a = random_tripartite((2, 2, 2), rng).analysis
            assert a.cmi >= a.log_overlap_bound - 1e-8
            assert a.log_overlap_bound >= a.thm1 - 1e-8
            assert a.thm1 >= a.corollary_bound - 1e-8
            assert a.cmi - a.thm1 >= -1e-8
            assert a.cmi - a.corollary_bound >= -1e-8

    def test_equality_case_detects_markov(self):
        # cmi ~ 0 forces the theorem bound to ~ 0
        st = random_markov_state((2, 2, 2), substream(43, 2))
        a = st.analysis
        assert a.cmi <= 1e-10
        assert a.thm1 <= 1e-8


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
        np.testing.assert_allclose(psd_eig(ex, "log").log(), sigma.eig.log(), atol=1e-10)

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
