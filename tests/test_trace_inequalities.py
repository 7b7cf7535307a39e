import math

import numpy as np
import pytest
import scipy.linalg

from qcmi.errors import NotHermitianError, NotPSDError, SingularMatrixError
from qcmi.inequalities import INEQUALITIES
from qcmi.sampling import random_markov_state, random_tripartite, substream
from qcmi.states import tripartite
from qcmi.trace_inequalities import (
    audenaert_gap,
    gt_gap,
    lieb_triple_rhs,
    pb_gap,
)
from qcmi.linalg import mat_exp, mat_log
from oracles import eig2x2, lieb_rhs_quad, trace_exp_triple

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_psd(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def lieb_lhs(r, s, t):
    # Tr exp(log r - log s + log t) with support-restricted logs.
    return float(np.trace(mat_exp(mat_log(r) - mat_log(s) + mat_log(t))).real)


class TestPeierlsBogoliubov:
    def test_scalar_matrix_equality_case(self):
        h = random_hermitian(3, np.random.default_rng(1))
        assert pb_gap(h, 0.7 * np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_scalar_example(self):
        # H = 0, K = diag(1,-1): gap = cosh(1) - 1
        got = pb_gap(np.zeros((2, 2)), np.diag([1.0, -1.0]))
        assert got == pytest.approx(0.5430806348152437, abs=1e-12)

    def test_offdiagonal_perturbation_against_eigen_oracle(self):
        h = np.diag([1.0, 0.0]).astype(complex)
        k = PAULI_X
        lam = eig2x2(h + k)
        expected = (math.exp(lam[0]) + math.exp(lam[1])) / (math.e + 1.0) - 1.0
        got = pb_gap(h, k)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(20240602)
        for i in range(500):
            dim = 2 + i % 3
            assert pb_gap(random_hermitian(dim, rng), random_hermitian(dim, rng)) >= -1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            pb_gap(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestGoldenThompson:
    def test_commuting_diagonals(self):
        assert gt_gap(np.diag([1.0, 2.0]), np.diag([-1.0, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_pauli_pair_against_eigen_oracle(self):
        lam = eig2x2(PAULI_Z + PAULI_X)
        expected = 2.0 * math.cosh(1.0) ** 2 - (math.exp(lam[0]) + math.exp(lam[1]))
        got = gt_gap(PAULI_Z, PAULI_X)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 0.0

    def test_zero_second_argument(self):
        h = random_hermitian(4, np.random.default_rng(2))
        assert gt_gap(h, np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_random_and_zero_on_commuting(self):
        rng = np.random.default_rng(20240603)
        for i in range(500):
            dim = 2 + i % 3
            a = random_hermitian(dim, rng)
            b = random_hermitian(dim, rng)
            assert gt_gap(a, b) >= -1e-9
        # commuting pairs: polynomials in the same matrix, kept at modest
        # norm so the 1e-9 tolerance is not swamped by exp() magnitudes
        for _ in range(50):
            a = random_hermitian(3, rng, scale=0.4)
            b = a @ a - 0.3 * a
            assert abs(gt_gap(a, b)) <= 1e-9


class TestLiebTriple:
    def test_identity_triple(self):
        eye = np.eye(2)
        assert lieb_triple_rhs(eye, eye, eye) == pytest.approx(2.0, abs=1e-12)
        assert lieb_lhs(eye, eye, eye) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_reduction(self):
        r = np.diag([1.0, 0.0])
        s = np.diag([0.5, 0.5])
        t = np.diag([0.5, 0.5])
        # sum_i r_i t_i / s_i = 1
        assert lieb_triple_rhs(r, s, t) == pytest.approx(1.0, abs=1e-12)

    def test_rhs_matches_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            r = random_psd(2, rng)
            s = random_psd(2, rng) + 0.2 * np.eye(2)
            t = random_psd(2, rng)
            assert lieb_triple_rhs(r, s, t) == pytest.approx(lieb_rhs_quad(r, s, t), rel=1e-8)

    def test_rhs_dominates_lhs_on_random_triples(self):
        rng = np.random.default_rng(20240604)
        for i in range(200):
            dim = 2 + i % 3
            r = random_psd(dim, rng) + 0.05 * np.eye(dim)
            s = random_psd(dim, rng) + 0.05 * np.eye(dim)
            t = random_psd(dim, rng) + 0.05 * np.eye(dim)
            rhs = lieb_triple_rhs(r, s, t)
            lhs = lieb_lhs(r, s, t)
            assert rhs >= lhs - 1e-9
            assert lhs == pytest.approx(trace_exp_triple(r, s, t), rel=1e-8)

    def test_near_degenerate_middle_spectrum_is_stable(self):
        # weights switch to the 2/(s_i+s_j) form when eigenvalues nearly tie
        s = np.diag([0.5, 0.5 + 1e-14])
        r = random_psd(2, np.random.default_rng(8))
        t = random_psd(2, np.random.default_rng(9))
        got = lieb_triple_rhs(r, s, t)
        assert np.isfinite(got)
        assert got == pytest.approx(lieb_rhs_quad(r, s, t), rel=1e-6)

    def test_singular_middle_rejected(self):
        message = r"^middle operand is singular \(min eigenvalue 0\.000e\+00\)$"
        with pytest.raises(SingularMatrixError, match=message):
            lieb_triple_rhs(np.eye(2), np.diag([1.0, 0.0]), np.eye(2))


class TestAudenaert:
    def test_equal_arguments(self):
        m = random_psd(3, np.random.default_rng(11))
        assert audenaert_gap(m, m, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_supports(self):
        m = np.diag([1.0, 0.0])
        n = np.diag([0.0, 1.0])
        assert audenaert_gap(m, n, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_scalar_example(self):
        # M = diag(1,0), N = I/2, t = 1/2: gap = 1/sqrt(2) - 1/2
        got = audenaert_gap(np.diag([1.0, 0.0]), np.eye(2) / 2, 0.5)
        assert got == pytest.approx(1.0 / math.sqrt(2) - 0.5, abs=1e-12)

    def test_nonnegative_at_five_exponents(self):
        rng = np.random.default_rng(20240605)
        for i in range(200):
            dim = 2 + i % 3
            m = random_psd(dim, rng)
            n = random_psd(dim, rng)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert audenaert_gap(m, n, t) >= -1e-9

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            audenaert_gap(np.eye(2), np.eye(2), 1.5)

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSDError):
            audenaert_gap(np.diag([1.0, -1.0]), np.eye(2), 0.5)


def powers_stormer_slacks(state):
    # (upper, lower) slacks of the Powers-Stormer rows, which sandwich
    # thm1 = ||sqrt(rho) - sqrt(sigma*)||_2^2 between ||rho - sigma*||_1^2 / 4
    # (the corollary bound) and ||rho - sigma*||_1.
    return tuple(
        INEQUALITIES[name].slack(state.analysis, None)
        for name in ("powers-stormer-upper", "thm1-below-corollary-gap")
    )


class TestPowersStormer:
    def test_equal_arguments(self):
        # On a full-rank Markov state sigma* = rho, so both sides are tight at 0.
        st = random_markov_state((2, 2, 2), substream(13, 0))
        np.testing.assert_allclose(powers_stormer_slacks(st), (0.0, 0.0), atol=1e-10)

    def test_ghz_against_its_dephasing(self):
        # For GHZ, sigma* = (|000><000| + |111><111|) / 2: ||rho - sigma*||_1 = 1
        # and Tr[sqrt(rho) sqrt(sigma*)] = 1 / sqrt(2), so thm1 = 2 - sqrt(2).
        psi = np.zeros(8)
        psi[[0, 7]] = 1.0 / math.sqrt(2.0)
        st = tripartite(np.outer(psi, psi), (2, 2, 2))
        upper, lower = powers_stormer_slacks(st)
        assert upper == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
        assert lower == pytest.approx(1.75 - math.sqrt(2.0), abs=1e-9)

    def test_sandwich_on_random_states(self):
        for i in range(60):
            dims = ((2, 2, 2), (2, 3, 2), (3, 2, 2))[i % 3]
            st = random_tripartite(dims, substream(20240606, i))
            upper, lower = powers_stormer_slacks(st)
            assert upper >= -1e-9
            assert lower >= -1e-9
            # Against sigma*, thm1 and the trace distance built with scipy.
            a, b, c = dims
            rho = st.mat
            r = rho.reshape(a, b, c, a, b, c)
            rho_ab = np.einsum("ijkmnk->ijmn", r).reshape(a * b, a * b)
            rho_bc = np.einsum("ijkilm->jklm", r).reshape(b * c, b * c)
            rho_b = np.einsum("ijkilk->jl", r)
            log_sum = (
                np.kron(scipy.linalg.logm(rho_ab), np.eye(c))
                - np.kron(np.kron(np.eye(a), scipy.linalg.logm(rho_b)), np.eye(c))
                + np.kron(np.eye(a), scipy.linalg.logm(rho_bc))
            )
            sigma = scipy.linalg.expm((log_sum + log_sum.conj().T) / 2)
            d1 = np.abs(np.linalg.eigvalsh(rho - sigma)).sum()
            thm1 = np.linalg.norm(scipy.linalg.sqrtm(rho) - scipy.linalg.sqrtm(sigma)) ** 2
            assert upper == pytest.approx(d1 - thm1, abs=1e-8)
            assert lower == pytest.approx(thm1 - d1 * d1 / 4, abs=1e-8)
