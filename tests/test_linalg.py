import numpy as np
import pytest
import scipy.linalg

from qcmi import linalg
from qcmi.errors import NotFiniteError, NotHermitianError, NotPSDError
from qcmi.linalg import (
    _eigh,
    dagger,
    hermitian_part,
    hs_norm,
    mat_exp,
    psd_eig,
    require_hermitian,
    support_cutoff,
    trace_norm,
)
from oracles import eig2x2, random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestEigh:
    def test_identity(self):
        e = _eigh(np.eye(2))
        np.testing.assert_allclose(e.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        e = _eigh(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(e.eigenvalues, [1.0, 3.0])
        # eigenvectors are the permuted standard basis
        np.testing.assert_allclose(np.abs(e.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_pauli_x_against_closed_form(self):
        e = _eigh(PAULI_X)
        np.testing.assert_allclose(e.eigenvalues, eig2x2(PAULI_X), atol=1e-14)

    def test_reconstruction_and_unitarity_residuals(self):
        # 500 random Hermitian matrices across dims 2..6
        rng = np.random.default_rng(20240601)
        for i in range(500):
            dim = 2 + i % 5
            m = random_hermitian(dim, rng)
            e = _eigh(m)
            q = e.eigenvectors
            rebuilt = (q * e.eigenvalues) @ q.conj().T
            scale = max(1.0, hs_norm(m))
            assert hs_norm(rebuilt - m) <= 1e-10 * scale
            assert hs_norm(q.conj().T @ q - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(e.eigenvalues) >= 0)

    def test_deterministic_for_fixed_input(self):
        m = random_hermitian(4, np.random.default_rng(7))
        e1 = _eigh(m)
        e2 = _eigh(m.copy())
        np.testing.assert_array_equal(e1.eigenvalues, e2.eigenvalues)
        np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            _eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _sqrt(m):
    return psd_eig(m, "sqrt").sqrt()


def _log(m):
    return psd_eig(m, "log").log()


class TestMatrixFunctions:
    def test_exp_of_zero_is_identity(self):
        np.testing.assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_log_support_convention(self):
        # kernel eigenvalues map to 0, not -inf
        got = _log(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(got, np.diag([-np.log(2), -np.log(2), 0.0]), atol=1e-14)

    def test_log_exp_roundtrip_on_support(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert hs_norm(mat_exp(_log(rho)) - rho) <= 1e-9

    def test_matches_scipy_on_full_rank(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T + 0.1 * np.eye(3)
        np.testing.assert_allclose(_log(rho), scipy.linalg.logm(rho), atol=1e-10)
        np.testing.assert_allclose(_sqrt(rho), scipy.linalg.sqrtm(rho), atol=1e-10)
        np.testing.assert_allclose(mat_exp(rho), scipy.linalg.expm(rho), atol=1e-8)

    def test_negative_power_is_support_pseudoinverse(self):
        m = np.diag([4.0, 0.0])
        np.testing.assert_allclose(psd_eig(m, "power").power(-0.5), np.diag([0.5, 0.0]), atol=1e-14)

    def test_cpower_unitary_on_support(self):
        rho = np.diag([0.5, 0.25, 0.25])
        u = psd_eig(rho, "cpower").cpower(1.0)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        expected = np.diag(np.exp(1j * np.log(np.array([0.5, 0.25, 0.25]))))
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_cpower_zero_on_kernel(self):
        u = psd_eig(np.diag([1.0, 0.0]), "cpower").cpower(0.7)
        np.testing.assert_allclose(u, np.diag([1.0, 0.0]), atol=1e-14)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotPSDError):
            _sqrt(np.diag([1.0, -0.5]))


class TestNorms:
    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([0.25, -0.25])) == pytest.approx(0.5, abs=1e-14)

    def test_trace_norm_zero(self):
        assert trace_norm(np.zeros((2, 2))) == 0.0

    def test_hs_norm_values(self):
        assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-14)
        assert hs_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)
        assert hs_norm(PAULI_X) == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_trace_norm_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSupport:
    def test_projector_and_rank(self):
        m = np.diag([0.7, 0.3, 0.0])
        np.testing.assert_allclose(psd_eig(m, "test").projector(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert psd_eig(m, "test").rank == 2
        assert psd_eig(np.eye(4) / 4, "test").rank == 4


class TestStacks:
    """A stack (k, n, n) gives every matrix bitwise its result alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 27])
    def test_stacked_results_match_single_matrices(self, n):
        rng = np.random.default_rng(40 + n)
        herm = np.stack([random_hermitian(n, rng) for _ in range(4)])
        psd = herm @ herm
        psd[1] = np.zeros((n, n))  # a singular member
        pe = psd_eig(psd, "test")
        cases = [
            (herm, hs_norm(herm), hs_norm),
            (herm, trace_norm(herm), trace_norm),
            (herm, require_hermitian(herm), require_hermitian),
            (herm, mat_exp(herm), mat_exp),
            (psd, pe.rank, lambda m: psd_eig(m, "test").rank),
            (psd, pe.sqrt(), lambda m: psd_eig(m, "test").sqrt()),
            (psd, pe.log(), lambda m: psd_eig(m, "test").log()),
            (psd, pe.power(-0.5), lambda m: psd_eig(m, "test").power(-0.5)),
            (psd, pe.projector(), lambda m: psd_eig(m, "test").projector()),
        ]
        for operands, stacked, single in cases:
            for k, m in enumerate(operands):
                np.testing.assert_array_equal(stacked[k], single(m))

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 27, 64, 125])
    def test_one_matrix_takes_the_stack_path_to_a_python_float(self, n):
        # One code path serves one matrix and a stack; the norm of one
        # matrix is bitwise numpy.linalg.norm's, for complex and real input.
        rng = np.random.default_rng(50 + n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for m in (g, g.real):
            norm = hs_norm(m)
            assert type(norm) is float and norm == float(np.linalg.norm(m))
        herm = hermitian_part(g)
        w = np.linalg.eigvalsh(herm)
        for value in (trace_norm(herm), support_cutoff(w), support_cutoff(np.zeros(n))):
            assert type(value) is float

    def test_first_failing_matrix_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([1.0, -0.25])])
        with pytest.raises(NotPSDError, match="-5.000e-01"):
            psd_eig(stack, "test")
        stack = np.stack([np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NotHermitianError):
            require_hermitian(stack)


class TestHermitianPart:
    """hermitian_part works in one new array, bitwise (m + m^dag) / 2."""

    def _cases(self):
        rng = np.random.default_rng(45)
        g = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        signed_zeros = np.array([[0.0, -0.0j], [-0.0 + 0.0j, -0.0 - 0.0j]])
        return [
            g,  # a stack
            g[1],
            g[1].T,  # not C-ordered
            g.real,
            signed_zeros,
            np.array([[1.0, np.inf], [np.nan, 2.0 + 1j]]),
        ]

    def test_bitwise_the_expression(self):
        for m in self._cases():
            with np.errstate(invalid="ignore"):
                want = (m + dagger(m)) / 2.0
                got = hermitian_part(m)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not np.shares_memory(got, m)


class TestRequireHermitian:
    """require_hermitian gives bitwise hermitian_part(m), checking an exactly
    Hermitian m without a deviation norm and any other m by its deviation."""

    def _cases(self):
        rng = np.random.default_rng(46)
        stack = np.stack([random_hermitian(5, rng) for _ in range(3)])
        near = stack + 1e-15 * rng.standard_normal(stack.shape)
        return [
            stack,
            stack[1],
            stack.real,
            # -0.0 imaginary parts on the diagonal, and signed zeros that
            # equal their conjugate transposes' entries in value.
            np.array([[complex(0.25, -0.0), -0.0 + 0.5j], [-0.0 - 0.5j, complex(0.75, -0.0)]]),
            np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, 0.0), complex(-0.0, -0.0)]]),
            np.diag([1.0, -0.0, 2.0]),
            near,  # not exactly Hermitian, by far less than the tolerance
            np.array([[1.0, 3e-9], [0.0, 1.0]]),  # by less than the tolerance
            np.array([[1.0, 1e-8], [0.0, 1.0]]),  # above it, within it relative to ||m||_2
        ]

    def test_bitwise_hermitian_part(self):
        for m in self._cases():
            got = require_hermitian(m)
            assert got.tobytes() == hermitian_part(np.asarray(m, dtype=complex)).tobytes()
            assert got.flags.c_contiguous and not np.shares_memory(got, m)

    @pytest.fixture
    def norms(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return hs_norm(m)

        monkeypatch.setattr(linalg, "hs_norm", counted)
        return calls

    def test_exactly_hermitian_input_computes_no_deviation_norm(self, norms):
        for m in self._cases()[:6]:
            require_hermitian(m)
        assert norms == []

    def test_a_deviation_far_below_the_tolerance_is_not_computed(self, norms):
        # A matrix's largest deviating entry bounds its norm.
        require_hermitian(self._cases()[6])
        assert norms == []

    def test_a_deviation_near_the_tolerance_is_computed(self, norms):
        require_hermitian(np.array([[1.0, 3e-9], [0.0, 1.0]]))
        assert norms == [(2, 2)]
        require_hermitian(np.array([[1.0, 1e-8], [0.0, 1.0]]))
        assert norms == [(2, 2), (2, 2), (2, 2)]  # and the norm of m

    @pytest.mark.parametrize(
        "m, message",
        [
            ([[0.0, 1.0], [0.0, 0.0]], "matrix deviates from Hermitian by 1.414e+00"),
            ([[1.0, 2e-8], [0.0, 1.0]], "matrix deviates from Hermitian by 2.828e-08"),
            (np.diag([1.0 + 1e-3j, 1.0]), "matrix deviates from Hermitian by 2.000e-03"),
            (
                np.stack([np.eye(2), np.eye(2), [[1.0, 2.0 + 1j], [2.0, 1.0]]]),
                "matrix deviates from Hermitian by 1.414e+00",
            ),
        ],
        ids=["upper", "near-tolerance", "imaginary-diagonal", "stack"],
    )
    def test_non_hermitian_input_raises(self, m, message):
        with pytest.raises(NotHermitianError) as exc:
            require_hermitian(m)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "m, message",
        [
            ([[0.5, np.inf], [np.inf, 0.5]], "matrix entry (0, 1) is (inf+0j)"),
            ([[0.5, -np.inf], [-np.inf, 0.5]], "matrix entry (0, 1) is (-inf+0j)"),
            ([[0.5, complex(np.inf, 1.0)], [complex(np.inf, -1.0), 0.5]], "matrix entry (0, 1) is (inf+1j)"),
            (np.diag([np.inf, 0.5]), "matrix entry (0, 0) is (inf+0j)"),
            ([[0.5, np.nan], [np.nan, 0.5]], "matrix entry (0, 1) is (nan+0j)"),
            (np.stack([np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]]), "matrix entry (1, 0, 1) is (inf+0j)"),
        ],
        ids=["inf", "-inf", "inf-complex", "inf-diagonal", "nan", "stack"],
    )
    def test_symmetric_non_finite_input_raises(self, m, message):
        # Symmetric entry by entry, but not finite.
        with pytest.raises(NotFiniteError) as exc:
            require_hermitian(m)
        assert str(exc.value) == message


class TestNonFinite:
    """A NaN never exceeds a tolerance, so every check is written to fail on one."""

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.diag([np.nan, 0.5]), "matrix entry (0, 0) is (nan+0j)"),
            ([[0.5, np.nan], [np.nan, 0.5]], "matrix entry (0, 1) is (nan+0j)"),
            # The deviation and the norm are both inf: inf > rtol * inf is false.
            ([[0.5, np.inf], [0.0, 0.5]], "matrix entry (0, 1) is (inf+0j)"),
            ([[0.5, 0.0], [-np.inf, 0.5]], "matrix entry (1, 0) is (-inf+0j)"),
            ([[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]], "matrix entry (0, 1) is infj"),
        ],
        ids=["nan-diagonal", "nan-off-diagonal", "inf", "-inf", "inf-imaginary-hermitian"],
    )
    def test_require_hermitian_names_the_entry(self, m, message):
        with pytest.raises(NotFiniteError) as exc:
            require_hermitian(m)
        assert str(exc.value) == message

    def test_stack_names_the_matrix_and_entry(self):
        stack = np.stack([np.eye(2), np.eye(2), np.diag([1.0, np.nan])])
        with pytest.raises(NotFiniteError, match=r"^matrix entry \(2, 1, 1\) is \(nan\+0j\)$"):
            require_hermitian(stack)
