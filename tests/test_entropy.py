import math

import numpy as np
import pytest

from qcmi.entropy import classical_rel_entropy, fidelity, rel_entropy, vn_entropy
from qcmi.errors import DimensionMismatchError, NotDistributionError
from qcmi.linalg import trace_norm
from qcmi.sampling import random_density, random_tripartite, substream
from qcmi.states import ClassicalJoint, classical_state, tripartite, validate_density
from oracles import classical_cmi, dirichlet_joint, parity_state


class TestVnEntropy:
    def test_pure_state(self):
        assert vn_entropy(validate_density(np.diag([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            s = vn_entropy(validate_density(np.eye(d) / d))
            assert s == pytest.approx(math.log(d), abs=1e-12)

    def test_frozen_scalar_example(self):
        s = vn_entropy(validate_density(np.diag([0.75, 0.25])))
        assert s == pytest.approx(0.5623351446188083, abs=1e-12)


class TestRelEntropy:
    def test_equal_states(self):
        rho = random_density(3, substream(20, 0))
        assert rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_disjoint_support_is_infinite(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert rel_entropy(a, b) == math.inf

    def test_frozen_scalar_example(self):
        a = validate_density(np.diag([0.75, 0.25]))
        b = validate_density(np.diag([0.25, 0.75]))
        assert rel_entropy(a, b) == pytest.approx(0.5 * math.log(3), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = substream(20, 1)
        for _ in range(50):
            a = random_density(3, rng)
            b = random_density(3, rng)
            assert rel_entropy(a, b) >= -1e-9

    def test_pinsker_on_random_pairs(self):
        rng = substream(20, 2)
        for _ in range(50):
            a = random_density(3, rng)
            b = random_density(3, rng)
            gap = rel_entropy(a, b) - 0.5 * trace_norm(a.mat - b.mat) ** 2
            assert gap >= -1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rel_entropy(validate_density(np.eye(2) / 2), validate_density(np.eye(3) / 3))


class TestCmi:
    def test_product_state(self):
        rng = substream(21, 0)
        mats = [random_density(2, rng).mat for _ in range(3)]
        st = tripartite(np.kron(np.kron(mats[0], mats[1]), mats[2]), (2, 2, 2))
        assert st.analysis.cmi == pytest.approx(0.0, abs=1e-10)

    def test_classical_markov_distribution(self):
        # p_ijk = p_ij p_jk / p_j has vanishing conditional mutual information
        rng = substream(21, 1)
        p_ij = rng.dirichlet(np.ones(4)).reshape(2, 2)
        cond_k = rng.dirichlet(np.ones(2), size=2)
        p = np.einsum("ij,jk->ijk", p_ij, cond_k)
        st = classical_state(ClassicalJoint(p))
        assert st.analysis.cmi == pytest.approx(0.0, abs=1e-10)

    def test_parity_state_frozen_value(self):
        report = parity_state().analysis.entropies
        assert report.cmi == pytest.approx(math.log(2), abs=1e-12)
        assert report.s_b == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_classical_summation_oracle(self):
        for i in range(100):
            joint = dirichlet_joint((2, 2, 2), substream(21, 2, i))
            got = classical_state(joint).analysis.cmi
            assert got == pytest.approx(classical_cmi(joint.p), abs=1e-10)

    def test_ssa_on_random_corpus(self):
        rng = substream(21, 3)
        for _ in range(100):
            assert random_tripartite((2, 2, 2), rng).analysis.cmi >= -1e-9


class TestClassicalRelEntropy:
    def test_equal(self):
        assert classical_rel_entropy([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_infinite(self):
        assert classical_rel_entropy([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_frozen_scalar_example(self):
        got = classical_rel_entropy([0.75, 0.25], [0.25, 0.75])
        assert got == pytest.approx(0.5 * math.log(3), abs=1e-14)

    def test_rejects_non_distribution(self):
        with pytest.raises(NotDistributionError):
            classical_rel_entropy([0.9, 0.3], [0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            classical_rel_entropy([1.0], [0.5, 0.5])


class TestFidelity:
    def test_equal_states(self):
        rho = random_density(3, substream(22, 0))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        a = validate_density(np.diag([1.0, 0.0]))
        b = validate_density(np.diag([0.0, 1.0]))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_commuting_case_frozen_value(self):
        a = validate_density(np.eye(2) / 2)
        b = validate_density(np.diag([0.75, 0.25]))
        assert fidelity(a, b) == pytest.approx(0.9659258262890683, abs=1e-12)

    def test_symmetric(self):
        rng = substream(22, 1)
        for _ in range(20):
            a = random_density(3, rng)
            b = random_density(3, rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_rejects_states_of_different_dimensions(self):
        a, b = validate_density(np.eye(2) / 2), validate_density(np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError, match="^states have dimensions 2 and 3$"):
            fidelity(a, b)
