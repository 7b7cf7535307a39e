import re

import numpy as np
import pytest

from qcmi.channels import random_channel
from qcmi.entropy import classical_rel_entropy
from qcmi.errors import (
    DimensionMismatchError,
    NotDistributionError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
)
from qcmi.linalg import hs_norm
from qcmi.states import (
    ClassicalJoint,
    _embed_layout,
    _markov_matrices,
    _traced_out,
    _validated,
    MarkovBlock,
    MarkovSpec,
    TripartiteState,
    classical_state,
    embed,
    markov_state,
    partial_trace,
    regularize,
    tripartite,
    validate_density,
)
from qcmi.sampling import (
    _markov_blocks,
    _markov_draw,
    random_density,
    random_tripartite,
    substream,
)
from oracles import classical_marginal, markov_matrix_isometry


def parity_joint():
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return ClassicalJoint(p)


def product_state(rng):
    parts = [random_density(2, rng).mat for _ in range(3)]
    return tripartite(np.kron(np.kron(parts[0], parts[1]), parts[2]), (2, 2, 2)), parts


class TestValidate:
    def test_maximally_mixed(self):
        d = validate_density(np.eye(2) / 2)
        assert d.support_rank == 2
        assert d.is_full_rank()

    def test_pure_state(self):
        d = validate_density(np.diag([1.0, 0.0]))
        assert d.support_rank == 1
        assert not d.is_full_rank()

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOneError):
            validate_density(np.diag([0.6, 0.5]))

    def test_rejects_nan_and_infinity(self):
        with pytest.raises(NotFiniteError, match=r"^matrix entry \(0, 0\) is \(nan\+0j\)$"):
            tripartite(np.diag([np.nan, 0.5]), (1, 1, 2))
        off = np.full((2, 2), np.nan)
        np.fill_diagonal(off, 0.5)
        with pytest.raises(NotFiniteError, match=r"^matrix entry \(0, 1\) is \(nan\+0j\)$"):
            validate_density(off)
        with pytest.raises(NotFiniteError, match=r"^matrix entry \(1, 1\) is \(inf\+0j\)$"):
            validate_density(np.diag([0.5, np.inf]))

    def test_eigenvalue_below_minus_the_support_cutoff_is_negative(self):
        # The one PSD rule: with largest eigenvalue 0.3 the support cutoff
        # is 3e-11, so -5e-11 is negative (the former floor -1e-10 let it
        # through), while -2e-11 is kernel.
        diag = np.array([-5e-11, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2 + 5e-11])
        message = "^minimum eigenvalue -5.000e-11 is below -3.0e-11$"
        with pytest.raises(NotPSDError, match=message):
            tripartite(np.diag(diag), (2, 2, 2))
        with pytest.raises(NotPSDError, match=message):
            validate_density(np.diag(diag))
        diag[0], diag[-1] = -2e-11, 0.2 + 2e-11
        st = tripartite(np.diag(diag), (2, 2, 2))
        assert st.rho.support_rank == 7
        assert st.analysis.cmi >= 0.0  # sqrt and log accept what validation accepts

    def test_the_constructor_holds_the_symmetrized_matrix(self):
        # An entry off by 1e-12j, within HERMITIAN_RTOL: the state holds
        # (m + m^dag) / 2, the matrix validate_density returns, and its
        # analysis reads that matrix.
        m = random_tripartite((2, 2, 2), substream(1, 0)).mat.copy()
        m[0, 1] += 1e-12j
        st = TripartiteState(m, (2, 2, 2))
        want = validate_density(m).mat
        assert st.mat.tobytes() == want.tobytes()
        assert st.rho.mat.tobytes() == want.tobytes()
        assert np.array_equal(st.rho.mat, st.rho.mat.conj().T)
        assert tripartite(m, (2, 2, 2)).mat.tobytes() == want.tobytes()
        a_b = st.analysis.marginals[2].mat
        assert a_b.tobytes() == validate_density(_traced_out(want, (2, 2, 2), "B")).mat.tobytes()

    def test_the_constructor_checks_hermiticity_and_finiteness(self):
        m = np.eye(8, dtype=complex) / 8
        m[0, 1] = 1e-3
        with pytest.raises(NotHermitianError, match="^matrix deviates from Hermitian by"):
            TripartiteState(m, (2, 2, 2))
        m[0, 1] = np.nan
        with pytest.raises(NotFiniteError, match=r"^matrix entry \(0, 1\) is \(nan\+0j\)$"):
            TripartiteState(m, (2, 2, 2))
        # Positivity and trace wait for the analysis.
        st = TripartiteState(np.eye(8) / 4, (2, 2, 2))
        with pytest.raises(TraceNotOneError):
            st.rho


class TestStackHelpers:
    """The array-level forms behind partial_trace and validate_density."""

    def test_stack_matches_states_one_by_one(self):
        dims = (2, 1, 3)
        states = [random_tripartite(dims, substream(41, i)) for i in range(3)]
        stack = np.stack([st.mat for st in states])
        for keep in ("AB", "BC", "B", "AC"):
            mats, e = _validated(_traced_out(stack, dims, keep))
            assert not mats.flags.writeable
            for k, st in enumerate(states):
                alone = partial_trace(st, keep)
                np.testing.assert_array_equal(mats[k], alone.mat)
                assert e.rank[k] == alone.support_rank

    def test_first_failing_matrix_raises(self):
        stack = np.stack([np.eye(2) / 2, np.diag([1.5, -0.5]), np.diag([2.0, -1.0])])
        with pytest.raises(NotPSDError, match="-5.000e-01"):
            _validated(stack)
        with pytest.raises(TraceNotOneError, match="trace is 2.0"):
            _validated(np.stack([np.eye(2) / 2, np.eye(2)]))

    def test_non_finite_matrix_of_a_stack_raises(self):
        stack = np.stack([np.eye(2) / 2, np.eye(2) / 2, np.diag([0.5, np.nan])])
        with pytest.raises(NotFiniteError, match=r"^matrix entry \(2, 1, 1\) is \(nan\+0j\)$"):
            _validated(stack)

    def test_public_forms_take_one_matrix(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.stack([np.eye(2) / 2] * 2))


class TestPartialTrace:
    def test_product_state_marginal(self):
        st, parts = product_state(substream(10, 0))
        np.testing.assert_allclose(partial_trace(st, "A").mat, parts[0], atol=1e-12)

    def test_keep_everything(self):
        st, _ = product_state(substream(10, 1))
        np.testing.assert_allclose(partial_trace(st, "ABC").mat, st.mat, atol=1e-14)

    def test_parity_middle_marginal_matches_classical_oracle(self):
        joint = parity_joint()
        st = classical_state(joint)
        expected = np.diag(classical_marginal(joint.p, (1,)))
        np.testing.assert_allclose(partial_trace(st, "B").mat, expected, atol=1e-14)
        np.testing.assert_allclose(partial_trace(st, "B").mat, np.eye(2) / 2, atol=1e-14)

    def test_all_marginals_match_classical_oracle(self):
        rng = substream(11, 0)
        p = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
        st = classical_state(ClassicalJoint(p))
        np.testing.assert_allclose(
            np.diag(partial_trace(st, "AB").mat).real,
            classical_marginal(p, (0, 1)).ravel(),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            np.diag(partial_trace(st, "BC").mat).real,
            classical_marginal(p, (1, 2)).ravel(),
            atol=1e-12,
        )

    def test_composition(self):
        st = random_tripartite((2, 3, 2), substream(12, 0))
        via_two_steps = partial_trace(
            tripartite(np.kron(np.eye(1), partial_trace(st, "BC").mat), (1, 3, 2)), "B"
        )
        direct = partial_trace(st, "B")
        np.testing.assert_allclose(via_two_steps.mat, direct.mat, atol=1e-12)

    def test_empty_keep_rejected(self):
        st = random_tripartite((2, 2, 2), substream(12, 1))
        with pytest.raises(DimensionMismatchError, match="at least one subsystem"):
            partial_trace(st, "")
        with pytest.raises(DimensionMismatchError, match=r"unknown subsystem label\(s\) \['D'\]"):
            partial_trace(st, "AD")


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        assert np.allclose(embed(np.eye(3), "B", (2, 3, 2)), np.eye(12))

    def test_trace_scales_by_complement(self):
        st = random_tripartite((2, 3, 2), substream(13, 0))
        rho_ab = partial_trace(st, "AB").mat
        assert np.trace(embed(rho_ab, "AB", (2, 3, 2))).real == pytest.approx(2.0, abs=1e-12)

    def test_embedded_operators_on_same_factor_commute_iff_factors_do(self):
        rng = substream(13, 1)
        a = random_density(3, rng).mat
        b = random_density(3, rng).mat
        ea = embed(a, "B", (2, 3, 2))
        eb = embed(b, "B", (2, 3, 2))
        assert hs_norm(ea @ eb - eb @ ea) == pytest.approx(
            2.0 * hs_norm(a @ b - b @ a), abs=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            embed(np.eye(3), "A", (2, 2, 2))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 3), (2, 1, 2), (3, 2, 1), (2, 3, 2)])
    @pytest.mark.parametrize("acts_on", ["A", "B", "C", "AB", "AC", "BC", "ABC"])
    def test_matches_kron_exactly(self, acts_on, dims):
        # m = sum of m[r, c] |r><c| over the basis of acts_on; each term
        # embeds as the Kronecker product of |r_s><c_s| on the subsystems
        # of acts_on and identities elsewhere.
        sub = [d for s, d in zip("ABC", dims) if s in acts_on]
        n = int(np.prod(sub))
        rng = substream(13, 2)
        stack = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        for m in stack:
            want = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
            for r, c in np.ndindex(n, n):
                rs = iter(np.unravel_index(r, sub))
                cs = iter(np.unravel_index(c, sub))
                factors = []
                for s, d in zip("ABC", dims):
                    if s in acts_on:
                        unit = np.zeros((d, d))
                        unit[next(rs), next(cs)] = 1.0
                        factors.append(unit)
                    else:
                        factors.append(np.eye(d))
                want += m[r, c] * np.kron(np.kron(factors[0], factors[1]), factors[2])
            np.testing.assert_array_equal(embed(m, acts_on, dims), want)
        # A stack embeds matrix by matrix.
        stacked = embed(stack, acts_on, dims)
        for k, m in enumerate(stack):
            np.testing.assert_array_equal(stacked[k], embed(m, acts_on, dims))

    def test_layouts_are_cached_read_only_and_bounded(self):
        layout = _embed_layout((2, 3, 2), "ba")
        assert layout[:2] == ("AB", (2, 3, 1))
        assert _embed_layout((2, 3, 2), "ba") is layout
        with pytest.raises(ValueError):
            layout[2][0, 0, 0, 0, 0, 0] = 2.0
        assert _embed_layout((2, 3, 2), "ABC")[2] is None
        assert _embed_layout.cache_info().maxsize is not None
        # Spellings and int types of one layout embed alike.
        m = random_density(6, substream(13, 3)).mat
        np.testing.assert_array_equal(embed(m, "ba", [np.int64(2), 3, 2]), embed(m, "AB", (2, 3, 2)))


class TestClassicalState:
    def test_uniform(self):
        p = np.full((2, 2, 2), 1.0 / 8.0)
        st = classical_state(ClassicalJoint(p))
        np.testing.assert_allclose(st.mat, np.eye(8) / 8, atol=1e-14)

    def test_parity_is_rank_four(self):
        st = classical_state(parity_joint())
        assert st.rho.support_rank == 4
        assert st.dims == (2, 2, 2)

    def test_point_mass(self):
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = 1.0
        st = classical_state(ClassicalJoint(p))
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(st.mat, expected, atol=1e-14)

    def test_rejects_a_joint_that_is_not_3d(self):
        with pytest.raises(DimensionMismatchError, match="^joint distribution must be 3-d, got 2-d$"):
            ClassicalJoint(np.full((2, 2), 0.25))

    def test_rejects_unnormalized(self):
        with pytest.raises(NotDistributionError):
            ClassicalJoint(np.full((2, 2, 2), 0.2))


def _weights(*weights):
    one = validate_density(np.eye(1))
    blocks = tuple(MarkovBlock(weight=w, d_left=1, d_right=1, rho_al=one, rho_rc=one) for w in weights)
    return MarkovSpec(d_a=1, d_c=1, blocks=blocks)


def _joint(*cells):
    return ClassicalJoint(np.reshape(cells, (len(cells), 1, 1)))


class TestProbabilityChecks:
    """ClassicalJoint, MarkovSpec and classical_rel_entropy share one check,
    each with its own tolerances: (1e-12, 1e-12), (0, 1e-9), (1e-12, 1e-9)."""

    def test_joint_tolerances(self):
        assert _joint(1.0 + 5e-13, -5e-13).p.min() == 0.0  # clipped
        with pytest.raises(NotDistributionError, match=r"^joint distribution: negative entry -2.000e-12$"):
            _joint(1.0 + 2e-12, -2e-12)
        _joint(0.5, 0.5 + 5e-13)
        with pytest.raises(NotDistributionError, match=r"^joint distribution: entries sum to 1.00000000000\d*, expected 1$"):
            _joint(0.5, 0.5 + 2e-12)

    def test_block_weight_tolerances(self):
        with pytest.raises(NotDistributionError, match=r"^block weights: negative entry -1.000e-300$"):
            _weights(1.0, -1e-300)
        _weights(1.0, 0.0)
        _weights(0.5, 0.5 + 5e-10)
        with pytest.raises(NotDistributionError, match=r"^block weights: entries sum to 1.00000000\d*, expected 1$"):
            _weights(0.5, 0.5 + 2e-9)

    def test_kl_tolerances(self):
        assert classical_rel_entropy([1.0 + 5e-13, -5e-13], [0.5, 0.5]) > 0.0
        with pytest.raises(NotDistributionError, match=r"^q: negative entry -2.000e-12$"):
            classical_rel_entropy([0.5, 0.5], [1.0 + 2e-12, -2e-12])
        classical_rel_entropy([0.5, 0.5 + 5e-10], [0.5, 0.5])
        with pytest.raises(NotDistributionError, match=r"^p: entries sum to 1.00000000\d*, expected 1$"):
            classical_rel_entropy([0.5, 0.5 + 2e-9], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_named(self, bad):
        with pytest.raises(NotFiniteError, match=rf"^joint distribution entry \(1, 0, 0\) is {bad}$"):
            _joint(0.5, bad)
        with pytest.raises(NotFiniteError, match=rf"^block weights entry 1 is {bad}$"):
            _weights(0.5, bad)
        with pytest.raises(NotFiniteError, match=rf"^p entry 0 is {bad}$"):
            classical_rel_entropy([bad, 1.0], [0.5, 0.5])


class TestMarkovState:
    def test_single_trivial_block_is_product(self):
        rng = substream(14, 0)
        rho_a = random_density(2, rng)
        rho_c = random_density(2, rng)
        spec = MarkovSpec(
            d_a=2, d_c=2,
            blocks=(MarkovBlock(weight=1.0, d_left=1, d_right=1, rho_al=rho_a, rho_rc=rho_c),),
        )
        st = markov_state(spec)
        assert st.dims == (2, 1, 2)
        np.testing.assert_allclose(st.mat, np.kron(rho_a.mat, rho_c.mat), atol=1e-12)
        assert st.analysis.cmi == pytest.approx(0.0, abs=1e-9)

    def test_single_block_full_left(self):
        rng = substream(14, 1)
        rho_ab = random_density(4, rng)
        rho_c = random_density(3, rng)
        spec = MarkovSpec(
            d_a=2, d_c=3,
            blocks=(MarkovBlock(weight=1.0, d_left=2, d_right=1, rho_al=rho_ab, rho_rc=rho_c),),
        )
        st = markov_state(spec)
        assert st.dims == (2, 2, 3)
        np.testing.assert_allclose(st.mat, np.kron(rho_ab.mat, rho_c.mat), atol=1e-12)
        assert st.analysis.cmi == pytest.approx(0.0, abs=1e-9)

    def test_two_block_classical_mixture(self):
        rng = substream(14, 2)
        blocks = tuple(
            MarkovBlock(
                weight=w, d_left=1, d_right=1,
                rho_al=random_density(2, rng), rho_rc=random_density(2, rng),
            )
            for w in (0.3, 0.7)
        )
        st = markov_state(MarkovSpec(d_a=2, d_c=2, blocks=blocks))
        assert st.dims == (2, 2, 2)
        assert st.analysis.cmi == pytest.approx(0.0, abs=1e-9)
        # block k occupies B-basis state |k>
        expected = sum(
            b.weight * np.kron(np.kron(b.rho_al.mat, np.diag(np.eye(2)[k])), b.rho_rc.mat)
            for k, b in enumerate(blocks)
        )
        np.testing.assert_allclose(st.mat, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "dims",
        [(1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 1, 3), (1, 5, 1), (2, 2, 2), (2, 3, 2),
         (3, 4, 1), (1, 4, 3), (2, 5, 3)],
    )
    def test_assembly_is_bitwise_the_isometry_sandwich(self, dims):
        # Every product is with an exact 1 or 0, so the broadcast Kronecker
        # product added into the sector's B range gives the same bits as
        # V (rho_AL (x) rho_RC) V^T for the 0/1 isometry V of each block.
        # The blocks of 40 draws, built as one group, and the states of all
        # of them assembled as one stack.
        d_a, d_b, d_c = dims
        specs = _markov_blocks(dims, [_markov_draw(dims, substream(15, i)) for i in range(40)])
        rng = substream(15, 99)
        # Fixed multi-block splits of B, largest sectors first and last.
        for shapes in ([(1, 1)] * d_b, [(d_b, 1)], [(1, d_b)], [(1, 1), (1, d_b - 1)]):
            if all(dl * dr > 0 for dl, dr in shapes):
                w = rng.dirichlet(np.ones(len(shapes)))
                specs.append([
                    (float(wk), dl, dr, random_density(d_a * dl, rng).mat,
                     random_density(dr * d_c, rng).mat)
                    for wk, (dl, dr) in zip(w, shapes)
                ])
        if d_b > 1:
            assert any(len(blocks) > 1 for blocks in specs)
        stacked = _markov_matrices(dims, specs)
        for got, blocks in zip(stacked, specs):
            want = markov_matrix_isometry(d_a, d_c, blocks)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_weights_must_normalize(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(NotDistributionError):
            MarkovSpec(
                d_a=2, d_c=2,
                blocks=(MarkovBlock(weight=0.5, d_left=1, d_right=1, rho_al=rho, rho_rc=rho),),
            )

    def test_block_dims_must_match(self):
        rho2 = validate_density(np.eye(2) / 2)
        rho3 = validate_density(np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            MarkovSpec(
                d_a=2, d_c=2,
                blocks=(MarkovBlock(weight=1.0, d_left=1, d_right=1, rho_al=rho3, rho_rc=rho2),),
            )
        rho1 = validate_density(np.eye(1))
        for d_left, rho_rc, message in [
            (0, rho1, "block 0: factor dimensions must be >= 1"),
            (1, rho2, "block 0: rho_rc has dimension 2, expected 1"),
        ]:
            block = MarkovBlock(weight=1.0, d_left=d_left, d_right=1, rho_al=rho1, rho_rc=rho_rc)
            with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
                MarkovSpec(d_a=1, d_c=1, blocks=(block,))

    def test_a_spec_needs_a_block(self):
        with pytest.raises(NotDistributionError, match="^a Markov spec needs at least one block$"):
            MarkovSpec(d_a=1, d_c=1, blocks=())


class TestIntegerDims:
    """Dimensions are integers: a bool or a float raises instead of
    truncating (2.9 to 2) or passing as 1 (True)."""

    BAD = (2.9, 2.0, True, False, "2")

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_tripartite_state_rejects(self, bad):
        with pytest.raises(DimensionMismatchError, match="dims entry must be an integer"):
            TripartiteState(np.eye(8) / 8, (bad, 2, 2))

    @pytest.mark.parametrize("name", ["d_left", "d_right"])
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_markov_block_rejects(self, name, bad):
        rho = validate_density(np.eye(2) / 2)
        kwargs = {"weight": 1.0, "d_left": 1, "d_right": 1, "rho_al": rho, "rho_rc": rho, name: bad}
        with pytest.raises(DimensionMismatchError, match=f"{name} must be an integer"):
            MarkovBlock(**kwargs)

    @pytest.mark.parametrize("name", ["d_a", "d_c"])
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_markov_spec_rejects(self, name, bad):
        rho = validate_density(np.eye(2) / 2)
        block = MarkovBlock(weight=1.0, d_left=1, d_right=1, rho_al=rho, rho_rc=rho)
        kwargs = {"d_a": 2, "d_c": 2, "blocks": (block,), name: bad}
        with pytest.raises(DimensionMismatchError, match=f"{name} must be an integer"):
            MarkovSpec(**kwargs)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: TripartiteState(np.eye(8) / 8, (2, 0, 4)), "dims entry must be >= 1, got 0"),
            (lambda: TripartiteState(np.eye(8) / 8, (2, 4)), "dims must be three positive integers, got (2, 4)"),
            (lambda: random_density(0, substream(39, 0)), "dim must be >= 1, got 0"),
            (lambda: random_channel(2, 2, -1, substream(39, 0)), "n_kraus must be >= 1, got -1"),
        ],
    )
    def test_a_dimension_below_one_names_the_bound(self, call, message):
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            call()

    def test_dims_must_multiply_to_the_matrix_dimension(self):
        message = "dims (2, 3, 1) imply dimension 6, matrix has dimension 4"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            TripartiteState(np.eye(4) / 4, (2, 3, 1))

    def test_numpy_integers_are_python_ints(self):
        st = TripartiteState(np.eye(8) / 8, (np.int64(2), np.int32(2), np.uint8(2)))
        assert st.dims == (2, 2, 2) and all(type(d) is int for d in st.dims)
        rho = validate_density(np.eye(2) / 2)
        block = MarkovBlock(1.0, np.int64(1), np.int16(1), rho, rho)
        assert (block.d_left, block.d_right) == (1, 1)
        assert type(block.d_left) is int and type(block.d_right) is int
        spec = MarkovSpec(d_a=np.int64(2), d_c=np.int64(2), blocks=(block,))
        assert spec.dims == (2, 1, 2) and all(type(d) is int for d in spec.dims)


class TestRegularize:
    def test_mixes_toward_identity(self):
        st = classical_state(parity_joint())
        reg = regularize(st)
        assert reg.rho.is_full_rank()
        assert hs_norm(reg.mat - st.mat) <= 2e-9

    def test_preserves_dims(self):
        st = random_tripartite((2, 3, 2), substream(15, 0))
        assert regularize(st).dims == (2, 3, 2)
