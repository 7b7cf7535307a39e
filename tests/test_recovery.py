import math

import numpy as np
import pytest

from qcmi.entropy import rel_entropy
from qcmi.errors import ConfigError, SingularMatrixError
from qcmi.linalg import hs_norm, trace_norm
from qcmi.recovery import classify, modular_residual
from qcmi.sampling import (
    random_density,
    random_markov_state,
    random_tripartite,
    substream,
)
from qcmi.states import ClassicalJoint, classical_state, tripartite, validate_density
from oracles import classical_marginal, dirichlet_joint


def parity_state():
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return classical_state(ClassicalJoint(p))


def product_state(rng):
    mats = [random_density(2, rng).mat for _ in range(3)]
    return tripartite(np.kron(np.kron(mats[0], mats[1]), mats[2]), (2, 2, 2))


def classical_recovery_table(p):
    """q_ijk = p_ij p_jk / p_j, the diagonal of every recovery object."""
    p_ab = classical_marginal(p, (0, 1))
    p_bc = classical_marginal(p, (1, 2))
    p_b = classical_marginal(p, (1,))
    q = np.zeros_like(p)
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            for k in range(p.shape[2]):
                if p_b[j] > 0:
                    q[i, j, k] = p_ab[i, j] * p_bc[j, k] / p_b[j]
    return q


class TestMOperator:
    def test_product_state_reconstructs(self):
        st = product_state(substream(50, 0))
        m = st.analysis.m
        np.testing.assert_allclose(m @ m.conj().T, st.mat, atol=1e-10)

    def test_diagonal_entries_on_classical_state(self):
        joint = dirichlet_joint((2, 2, 2), substream(50, 1))
        st = classical_state(joint)
        m = st.analysis.m
        expected = np.sqrt(classical_recovery_table(joint.p)).ravel()
        np.testing.assert_allclose(np.diag(m).real, expected, atol=1e-10)
        assert hs_norm(m - np.diag(np.diag(m))) <= 1e-10

    def test_markov_state_reconstructs(self):
        st = random_markov_state((2, 3, 2), substream(50, 2))
        m = st.analysis.m
        assert trace_norm(st.mat - m @ m.conj().T) <= 1e-8


def recovered_states(st):
    # M M^dag and M^dag M, each validated as a density matrix.
    a = st.analysis
    return validate_density(a.m_mdag), validate_density(a.mdag_m)


class TestRecoveryMaps:
    def test_outputs_are_states(self):
        rng = substream(51, 0)
        for _ in range(20):
            st = random_tripartite((2, 2, 2), rng)
            for rec in recovered_states(st):
                assert np.trace(rec.mat).real == pytest.approx(1.0, abs=1e-9)
                assert np.linalg.eigvalsh(rec.mat)[0] >= -1e-10

    def test_fixes_markov_states(self):
        for i in range(5):
            st = random_markov_state((2, 2, 2), substream(51, 1, i))
            for rec in recovered_states(st):
                assert trace_norm(st.mat - rec.mat) <= 1e-8

    def test_parity_state_recovers_uniform(self):
        for rec in recovered_states(parity_state()):
            np.testing.assert_allclose(rec.mat, np.eye(8) / 8, atol=1e-12)

    def test_classical_recovery_objects_coincide(self):
        # on diagonal states both maps and both Gram orderings agree with
        # the classical table p_ij p_jk / p_j
        for i in range(20):
            joint = dirichlet_joint((2, 2, 2), substream(51, 2, i))
            st = classical_state(joint)
            expected = np.diag(classical_recovery_table(joint.p).ravel())
            m = st.analysis.m
            np.testing.assert_allclose(m @ m.conj().T, expected, atol=1e-10)
            np.testing.assert_allclose(m.conj().T @ m, expected, atol=1e-10)
            for rec in recovered_states(st):
                np.testing.assert_allclose(rec.mat, expected, atol=1e-10)

    def test_classical_cmi_equals_rel_entropy_to_recovery(self):
        for i in range(20):
            joint = dirichlet_joint((2, 2, 2), substream(51, 3, i))
            st = classical_state(joint)
            recovered, _ = recovered_states(st)
            value = st.analysis.cmi
            assert value == pytest.approx(rel_entropy(st.rho, recovered), abs=1e-9)
            assert value >= 0.5 * trace_norm(st.mat - recovered.mat) ** 2 - 1e-9


class TestResiduals:
    def test_ruskai_zero_on_markov(self):
        st = random_markov_state((2, 3, 2), substream(52, 0))
        assert st.analysis.ruskai <= 1e-7

    def test_ruskai_zero_on_product(self):
        assert product_state(substream(52, 1)).analysis.ruskai <= 1e-9

    def test_ruskai_large_on_generic_state(self):
        st = random_tripartite((2, 2, 2), substream(52, 2))
        assert st.analysis.ruskai > 1e-3

    def test_modular_zero_on_markov(self):
        st = random_markov_state((2, 2, 2), substream(52, 4))
        assert modular_residual(st) <= 1e-7

    def test_modular_zero_on_product(self):
        assert modular_residual(product_state(substream(52, 5))) <= 1e-9

    def test_modular_requires_full_rank(self):
        with pytest.raises(SingularMatrixError):
            modular_residual(parity_state())

    def test_zhang_gaps(self):
        markov = random_markov_state((2, 2, 2), substream(52, 6))
        a = markov.analysis
        assert a.gap_m <= 1e-8 and a.gap_mprime <= 1e-8
        a = parity_state().analysis
        assert a.gap_m == pytest.approx(1.0, abs=1e-9)
        assert a.gap_mprime == pytest.approx(1.0, abs=1e-9)


class TestClassify:
    def test_markov_is_d1(self):
        st = random_markov_state((2, 3, 2), substream(53, 0))
        assert classify(st).label == "D1"

    def test_product_is_d1(self):
        assert classify(product_state(substream(53, 1))).label == "D1"

    def test_parity_is_d2(self):
        label = classify(parity_state())
        assert label.label == "D2"
        assert label.commutator_norm <= 1e-8
        assert label.reconstruction_gap == pytest.approx(1.0, abs=1e-9)

    def test_generic_state_is_d3(self):
        st = random_tripartite((2, 2, 2), substream(53, 2))
        label = classify(st)
        assert label.label == "D3"
        assert label.commutator_norm > 1e-8

    def test_tolerance_knob(self):
        st = random_tripartite((2, 2, 2), substream(53, 3))
        # a huge tolerance collapses everything into D1
        assert classify(st, tol=10.0).label == "D1"

    @pytest.mark.parametrize(
        "tol,message",
        [
            # Unchecked, -1 and nan would label a generic state D3 and D2.
            (-1, "tol must be positive, got -1"),
            (math.nan, "tol must be positive, got nan"),
            (0.0, "tol must be positive, got 0.0"),
            (math.inf, "tol must be finite, got inf"),
            (True, "tol must be a real number, got True"),
            ("1e-8", "tol must be a real number, got '1e-8'"),
        ],
        ids=["-1", "nan", "0.0", "inf", "True", "str"],
    )
    def test_rejects_tol_that_is_not_positive(self, tol, message):
        st = random_tripartite((2, 2, 2), substream(53, 2))
        with pytest.raises(ConfigError) as exc:
            classify(st, tol=tol)
        assert str(exc.value) == message

    def test_tol_is_kept_as_a_float(self):
        label = classify(product_state(substream(53, 1)), tol=np.float32(1e-8))
        assert type(label.tol) is float
