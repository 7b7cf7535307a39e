import re

import numpy as np
import pytest

from qcmi import channels
from qcmi.channels import (
    KrausChannel,
    partial_trace_channel,
    petz_dual,
    random_channel,
)
from qcmi.errors import DimensionMismatchError, NotFiniteError, SingularMatrixError, ValidationError
from qcmi.linalg import dagger, hs_norm, psd_eig
from qcmi.sampling import random_density, random_tripartite, random_unitary, substream
from qcmi.states import partial_trace, validate_density
from oracles import (
    depolarizing_channel,
    identity_channel,
    petz_dual_alone,
    petz_dual_eigen_alone,
)


# At N = 108 the thin and the full factorization differed by at most
# 3.3e-16 per entry over these seeds (4.2e-16 over 200 others);
# ISOMETRY_ATOL leaves a margin of 3x.
ISOMETRY_SEEDS = 200
ISOMETRY_ATOL = 1e-15

# The Petz map from C's polar factor against sigma^1/2 K^dag phi(sigma)^-1/2
# with phi(sigma)^-1/2 from its eigenvalues: over 1600 triples (the
# STACKED_CHANNELS below, 100 seeds each) the entries differed by at most
# 4.6 eps times phi(sigma)'s condition number, and by at most 9.1e-15
# where that is at most WELL_CONDITIONED. PETZ_EIGEN_ATOL leaves a margin
# of 3x.
WELL_CONDITIONED = 100.0
PETZ_EIGEN_ATOL = 3e-14


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ValidationError):
            KrausChannel(kraus=(np.eye(2) * 0.5,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # A NaN deviation never exceeds the tolerance; the check fails on it.
        ops = (np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2))
        ops[1][0, 1] = bad
        with pytest.raises(NotFiniteError, match=rf"^Kraus operator entry \(1, 0, 1\) is \({bad}\+0j\)$"):
            KrausChannel(kraus=ops)

    def test_needs_at_least_one_operator(self):
        with pytest.raises(ValidationError):
            KrausChannel(kraus=())

    def test_inconsistent_shapes(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel(kraus=(np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("shape", [(), (2,), (1, 2, 2)])
    def test_operators_must_be_matrices(self, shape):
        message = f"Kraus operators must be matrices, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            KrausChannel(kraus=(np.ones(shape),))

    @pytest.mark.parametrize("given", ["tuple", "array"])
    def test_in_and_out_dims_of_a_rectangular_channel(self, given):
        # The rows of a 3 x 3 unitary split into two 2 x 3 operators, as a
        # tuple of matrices and as one (k, d_out, d_in) array.
        v = random_unitary(3, substream(30, 3))
        ops = np.stack([v[:2], np.vstack([v[2:], np.zeros((1, 3))])])
        phi = KrausChannel(kraus=tuple(ops) if given == "tuple" else ops)
        assert (phi.in_dim, phi.out_dim) == (3, 2)
        assert phi.kraus.shape == (2, 2, 3)
        assert phi.kraus.tobytes() == ops.astype(complex).tobytes()

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 3, 1)])
    def test_apply_rejects_a_wrong_shape(self, shape):
        phi = random_channel(3, 2, 2, substream(30, 4))
        message = f"channel input must be 3 dimensional, got shape {shape}"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            phi.apply(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 2, 1)])
    def test_dual_rejects_a_wrong_shape(self, shape):
        phi = random_channel(3, 2, 2, substream(30, 5))
        message = f"adjoint input must be 2 dimensional, got shape {shape}"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            phi.dual(np.zeros(shape))

    def test_apply_preserves_trace(self):
        rng = substream(30, 0)
        phi = random_channel(3, 2, 3, rng)
        rho = random_density(3, rng)
        out = phi.apply(rho.mat)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_dual_is_adjoint(self):
        # <phi(rho), x> = <rho, phi^dag(x)> in Hilbert-Schmidt inner product
        rng = substream(30, 1)
        phi = random_channel(3, 2, 2, rng)
        rho = random_density(3, rng).mat
        x = random_density(2, rng).mat
        lhs = np.trace(phi.apply(rho).conj().T @ x)
        rhs = np.trace(rho.conj().T @ phi.dual(x))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dual_is_unital(self):
        phi = random_channel(4, 4, 3, substream(30, 2))
        np.testing.assert_allclose(phi.dual(np.eye(4)), np.eye(4), atol=1e-10)


class TestStandardChannels:
    def test_identity(self):
        phi = identity_channel(3)
        rho = random_density(3, substream(31, 0)).mat
        np.testing.assert_allclose(phi.apply(rho), rho, atol=1e-14)

    def test_depolarizing_sends_everything_to_mixed(self):
        phi = depolarizing_channel(2)
        rho = random_density(2, substream(31, 1)).mat
        np.testing.assert_allclose(phi.apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_depolarizing_dual_is_trace_projector(self):
        phi = depolarizing_channel(2)
        x = np.diag([3.0, 1.0]).astype(complex)
        np.testing.assert_allclose(phi.dual(x), np.trace(x) / 2 * np.eye(2), atol=1e-12)

    def test_partial_trace_channel_matches_partial_trace(self):
        st = random_tripartite((2, 3, 2), substream(31, 2))
        phi = partial_trace_channel((2, 3, 2))
        np.testing.assert_allclose(phi.apply(st.mat), partial_trace(st, "BC").mat, atol=1e-12)


# partial_trace_channel with a dimension d in each place of its dims.
DIMENSION_CHANNELS = {
    "partial_trace_channel d_A": lambda d: partial_trace_channel((d, 2, 2)),
    "partial_trace_channel d_B": lambda d: partial_trace_channel((2, d, 2)),
    "partial_trace_channel d_C": lambda d: partial_trace_channel((2, 2, d)),
}


class TestChannelDimensions:
    """A dimension that is not a positive integer raises, as in the samplers."""

    @pytest.mark.parametrize("dim", [4.0, 2.9, 2.5, True, 0, -1])
    @pytest.mark.parametrize("name", sorted(DIMENSION_CHANNELS))
    def test_bad_dimension_raises(self, name, dim):
        with pytest.raises(DimensionMismatchError):
            DIMENSION_CHANNELS[name](dim)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)])
    def test_partial_trace_channel_needs_three_dims(self, dims):
        with pytest.raises(DimensionMismatchError):
            partial_trace_channel(dims)

    @pytest.mark.parametrize("name", sorted(DIMENSION_CHANNELS))
    def test_numpy_integer_dimensions_build_as_ints(self, name):
        given = DIMENSION_CHANNELS[name](np.int64(3))
        want = DIMENSION_CHANNELS[name](3)
        assert len(given.kraus) == len(want.kraus)
        for ours, theirs in zip(given.kraus, want.kraus):
            assert ours.tobytes() == theirs.tobytes()


class TestRandomChannel:
    def test_completeness_across_shapes(self):
        rng = substream(32, 0)
        for d_in, d_out, k in ((2, 2, 1), (2, 3, 2), (4, 2, 3), (3, 3, 4)):
            phi = random_channel(d_in, d_out, k, rng)
            total = sum(m.conj().T @ m for m in phi.kraus)
            assert hs_norm(total - np.eye(d_in)) <= 1e-10

    def test_isometry_requirement(self):
        with pytest.raises(DimensionMismatchError):
            random_channel(4, 1, 2, substream(32, 1))

    # (d_in, d_out, n_kraus) with N = d_out * n_kraus up to 81, where the
    # thin QR of the kept columns rounds as the full one does.
    @pytest.mark.parametrize(
        "shape", [(27, 27, 1), (27, 27, 2), (27, 27, 3), (3, 2, 3), (8, 3, 5), (1, 1, 1), (2, 81, 1)]
    )
    def test_isometry_is_the_haar_unitary_columns(self, shape):
        d_in, d_out, n_kraus = shape
        for i in range(5):
            rng, unitary_rng = substream(34, i), substream(34, i)
            got = _isometry(random_channel(d_in, d_out, n_kraus, rng))
            want = random_unitary(d_out * n_kraus, unitary_rng)[:, :d_in]
            assert got.tobytes() == want.tobytes()
            # The whole Ginibre matrix is drawn, so the stream goes on alike.
            assert rng.random() == unitary_rng.random()

    def test_isometry_at_108_is_within_rounding_of_the_unitary_columns(self):
        # At N = 108 LAPACK's blocked QR rounds the thin and the full
        # factorization differently.
        worst = 0.0
        for i in range(ISOMETRY_SEEDS):
            rng, unitary_rng = substream(35, i), substream(35, i)
            got = _isometry(random_channel(27, 27, 4, rng))
            want = random_unitary(108, unitary_rng)[:, :27]
            worst = max(worst, float(np.abs(got - want).max()))
            assert rng.random() == unitary_rng.random()
        assert worst <= ISOMETRY_ATOL


def _isometry(phi):
    # The isometry whose row blocks are phi's Kraus operators.
    return np.vstack(phi.kraus)


class TestPetzDual:
    def test_identity_channel_gives_identity(self):
        sigma = random_density(3, substream(33, 0))
        dual = petz_dual(identity_channel(3), sigma)
        rho = random_density(3, substream(33, 1)).mat
        np.testing.assert_allclose(dual.apply(rho), rho, atol=1e-10)

    def test_reference_state_is_fixed_point(self):
        rng = substream(33, 2)
        sigma = random_density(3, rng)
        phi = random_channel(3, 2, 2, rng)
        recovered = petz_dual(phi, sigma).apply(phi.apply(sigma.mat))
        np.testing.assert_allclose(recovered, sigma.mat, atol=1e-9)

    def test_composite_preserves_trace(self):
        rng = substream(33, 3)
        for _ in range(20):
            sigma = random_density(3, rng)
            phi = random_channel(3, 3, 2, rng)
            rho = random_density(3, rng)
            out = petz_dual(phi, sigma).apply(phi.apply(rho.mat))
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)

    def test_recovery_via_ab_is_petz_dual_of_trace_out_a(self):
        # the two-step map (trace out A, then Petz-recover with reference
        # rho_AB (x) rho_C) reproduces the direct reconstruction formula
        st = random_tripartite((2, 2, 2), substream(33, 4))
        rho_ab = partial_trace(st, "AB").mat
        rho_c = partial_trace(st, "C").mat
        sigma = validate_density(np.kron(rho_ab, rho_c))
        phi = partial_trace_channel((2, 2, 2))
        recovered = petz_dual(phi, sigma).apply(phi.apply(st.mat))
        np.testing.assert_allclose(recovered, validate_density(st.analysis.m_mdag).mat, atol=1e-8)

    def test_singular_reference_rejected(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            petz_dual(identity_channel(2), sigma)

    def test_dim_mismatch(self):
        sigma = random_density(2, substream(33, 5))
        with pytest.raises(DimensionMismatchError):
            petz_dual(identity_channel(3), sigma)

    def test_an_output_of_higher_rank_than_the_kraus_columns_is_singular(self):
        # An isometry from 2 into 4 dimensions: phi(sigma) has rank 2, and
        # C has 2 columns, so S**2 holds only 2 of phi(sigma)'s 4 eigenvalues.
        rng = substream(33, 6)
        phi = random_channel(2, 4, 1, rng)
        with pytest.raises(SingularMatrixError, match="^channel output of the reference state is singular$"):
            petz_dual(phi, random_density(2, rng))

    def test_the_map_is_complete_far_below_the_tolerance(self):
        # The polar factor V has V V^dag = I to rounding, however
        # ill-conditioned phi(sigma) is.
        for i in range(20):
            rng = substream(33, 7, i)
            phi = random_channel(8, 8, 1 + i % 4, rng)
            petz = petz_dual(phi, random_density(8, rng))
            dev = hs_norm((dagger(petz.kraus) @ petz.kraus).sum(axis=0) - np.eye(8))
            assert dev <= 1e-13


# Channels whose stacked products are checked against per-operator sums:
# 1-4 Kraus operators, d_out != d_in both ways, the partial trace and the
# depolarizing channel.
STACKED_CHANNELS = {
    **{f"random 3->3 k={k}": (lambda rng, k=k: random_channel(3, 3, k, rng)) for k in (1, 2, 3, 4)},
    **{f"random 8->8 k={k}": (lambda rng, k=k: random_channel(8, 8, k, rng)) for k in (1, 2, 3, 4)},
    "random 4->2 k=3": lambda rng: random_channel(4, 2, 3, rng),
    "random 2->3 k=2": lambda rng: random_channel(2, 3, 2, rng),
    "random 27->27 k=4": lambda rng: random_channel(27, 27, 4, rng),
    "partial trace 2,3,2": lambda rng: partial_trace_channel((2, 3, 2)),
    "partial trace 4,2,3": lambda rng: partial_trace_channel((4, 2, 3)),
    "depolarizing 2": lambda rng: depolarizing_channel(2),
    "depolarizing 3": lambda rng: depolarizing_channel(3),
    "identity 4": lambda rng: identity_channel(4),
}


def _complex_matrix(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestStackedProducts:
    """The stacked Kraus products are bitwise the per-operator sums in
    operator order, as sum() adds them."""

    @pytest.mark.parametrize("name", sorted(STACKED_CHANNELS))
    def test_apply_and_dual_are_the_per_operator_sums(self, name):
        rng = substream(36, 0)
        phi = STACKED_CHANNELS[name](rng)
        for _ in range(3):
            m_in, m_out = _complex_matrix(phi.in_dim, rng), _complex_matrix(phi.out_dim, rng)
            rho = random_density(phi.in_dim, rng).mat
            for m in (m_in, rho):
                want = sum(k @ m @ dagger(k) for k in phi.kraus)
                assert phi.apply(m).tobytes() == want.tobytes()
            want = sum(dagger(k) @ m_out @ k for k in phi.kraus)
            assert phi.dual(m_out).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(STACKED_CHANNELS))
    def test_completeness_sum_is_the_per_operator_sum(self, name, monkeypatch):
        phi = STACKED_CHANNELS[name](substream(36, 1))
        seen = []

        def recording_norm(m):
            seen.append(np.array(m))
            return hs_norm(m)

        monkeypatch.setattr(channels, "hs_norm", recording_norm)
        KrausChannel(kraus=tuple(phi.kraus))
        want = sum(dagger(k) @ k for k in phi.kraus) - np.eye(phi.in_dim)
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(STACKED_CHANNELS))
    def test_petz_kraus_array_is_the_per_operator_products(self, name):
        # C built operator by operator and its polar factor cut into blocks.
        rng = substream(36, 2)
        phi = STACKED_CHANNELS[name](rng)
        sigma = random_density(phi.in_dim, rng)
        got = petz_dual(phi, sigma).kraus
        assert got.shape == (len(phi.kraus), phi.in_dim, phi.out_dim)
        assert got.tobytes() == petz_dual_alone(phi, sigma).kraus.tobytes()

    @pytest.mark.parametrize("name", sorted(STACKED_CHANNELS))
    def test_petz_map_is_the_eigenvalue_formula_when_well_conditioned(self, name):
        compared = 0
        for seed in range(20):
            rng = substream(36, 4, seed)
            phi = STACKED_CHANNELS[name](rng)
            sigma = random_density(phi.in_dim, rng)
            w = psd_eig(phi.apply(sigma.mat), "test").eigenvalues
            if w[-1] > WELL_CONDITIONED * w[0]:
                continue
            got = petz_dual(phi, sigma).kraus
            want = petz_dual_eigen_alone(phi, sigma).kraus
            assert np.abs(got - want).max() <= PETZ_EIGEN_ATOL
            compared += 1
        assert compared >= 3

    @pytest.mark.parametrize("n_kraus", [1, 2, 3, 4, 5, 8])
    def test_one_dimensional_sums_are_the_per_operator_sums_to_rounding(self, n_kraus):
        # numpy sums a stack of 1x1 matrices pairwise from four terms on,
        # and in operator order below that, so there the result can differ
        # from sum() in the last bit.
        rng = substream(36, 3)
        phi = random_channel(1, 1, n_kraus, rng)
        m = _complex_matrix(1, rng)
        want = sum(k @ m @ dagger(k) for k in phi.kraus)
        if n_kraus < 4:
            assert phi.apply(m).tobytes() == want.tobytes()
        np.testing.assert_allclose(phi.apply(m), want, rtol=4 * np.finfo(float).eps, atol=0)
