import numpy as np
import pytest

from qcmi.entropy import cmi
from qcmi.harness import CORPORA, NEAR_MARKOV_MIXES, ScanConfig, corpus_state
from qcmi.linalg import hs_norm
from qcmi.sampling import (
    near_markov_state,
    random_classical,
    random_classical_state,
    random_density,
    random_hermitian,
    random_markov_spec,
    random_markov_state,
    random_tripartite,
    random_unitary,
    substream,
)
from qcmi.states import validate_density


class TestSubstream:
    def test_same_key_same_stream(self):
        a = substream(123, 4).standard_normal(8)
        b = substream(123, 4).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_index_different_stream(self):
        a = substream(123, 4).standard_normal(8)
        b = substream(123, 5).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_subkey_forks_the_stream(self):
        a = substream(123, 4, 1).standard_normal(8)
        b = substream(123, 4).standard_normal(8)
        assert not np.array_equal(a, b)


class TestRandomDensity:
    def test_unit_trace_and_full_rank(self):
        rng = substream(0, 0)
        for _ in range(20):
            d = random_density(3, rng)
            assert np.trace(d.mat).real == pytest.approx(1.0, abs=1e-12)
            assert d.is_full_rank()

    def test_mean_is_maximally_mixed(self):
        rng = substream(0, 1)
        total = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            total += random_density(2, rng).mat
        assert hs_norm(total / n - np.eye(2) / 2) <= 0.05

    def test_seed_reproducibility(self):
        a = random_density(4, substream(77, 3)).mat
        b = random_density(4, substream(77, 3)).mat
        np.testing.assert_array_equal(a, b)


class TestRandomUnitary:
    def test_unitarity(self):
        rng = substream(1, 0)
        for dim in (1, 2, 3, 5):
            u = random_unitary(dim, rng)
            assert hs_norm(u.conj().T @ u - np.eye(dim)) <= 1e-10

    def test_scalar_case(self):
        u = random_unitary(1, substream(1, 1))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_eigenvalue_angles_roughly_uniform(self):
        # Haar-distributed eigenvalue arguments fill the circle evenly
        rng = substream(1, 2)
        angles = []
        for _ in range(10_000):
            angles.extend(np.angle(np.linalg.eigvals(random_unitary(2, rng))))
        counts, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
        expected = len(angles) / 8
        assert np.max(np.abs(counts - expected)) <= 0.08 * expected


class TestCorpusSamplers:
    def test_random_tripartite_shape(self):
        st = random_tripartite((2, 3, 2), substream(2, 0))
        assert st.dims == (2, 3, 2)
        assert st.mat.shape == (12, 12)

    def test_random_classical_is_distribution(self):
        joint = random_classical((2, 2, 2), substream(2, 1))
        assert joint.p.shape == (2, 2, 2)
        assert joint.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(joint.p >= 0)

    def test_random_classical_state_is_diagonal(self):
        st = random_classical_state((2, 2, 2), substream(2, 2))
        off = st.mat - np.diag(np.diag(st.mat))
        assert hs_norm(off) <= 1e-14

    def test_random_markov_spec_consistent(self):
        for i in range(10):
            spec = random_markov_spec((2, 4, 3), substream(3, i))
            assert spec.d_b == 4
            assert sum(b.weight for b in spec.blocks) == pytest.approx(1.0, abs=1e-9)

    def test_random_markov_state_has_zero_cmi(self):
        for i in range(5):
            st = random_markov_state((2, 3, 2), substream(4, i))
            assert st.dims == (2, 3, 2)
            assert abs(cmi(st).cmi) <= 1e-9

    def test_near_markov_interpolates(self):
        st = near_markov_state((2, 2, 2), substream(5, 0), mix=0.0)
        assert abs(cmi(st).cmi) <= 1e-9
        perturbed = near_markov_state((2, 2, 2), substream(5, 0), mix=0.2)
        assert cmi(perturbed).cmi > 1e-6

    def test_random_hermitian_is_hermitian(self):
        h = random_hermitian(4, substream(6, 0))
        assert hs_norm(h - h.conj().T) <= 1e-14


CONSTRUCTION_DIMS = ((1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 1, 3), (2, 2, 2), (3, 3, 3))


def _public_sample(cfg, i):
    # Sample i of the corpus from its public sampler, called directly.
    rng = substream(cfg.seed, i)
    if cfg.corpus == "hs-random":
        return random_tripartite(cfg.dims, rng)
    if cfg.corpus == "classical-random":
        return random_classical_state(cfg.dims, rng)
    if cfg.corpus == "markov":
        return random_markov_state(cfg.dims, rng)
    return near_markov_state(cfg.dims, rng, NEAR_MARKOV_MIXES[i % len(NEAR_MARKOV_MIXES)])


class TestCorpusDraws:
    """Corpus draws skip validation on construction; their analysis validates them."""

    @pytest.mark.parametrize("dims", CONSTRUCTION_DIMS)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_draw_is_bitwise_the_public_samplers_state(self, corpus, dims):
        cfg = ScanConfig(dims=dims, samples=4, seed=71, corpus=corpus)
        for i in range(cfg.samples):
            drawn, public = corpus_state(cfg, i), _public_sample(cfg, i)
            assert drawn.dims == public.dims
            assert drawn.mat.tobytes() == public.mat.tobytes()
            # The analysis computes from the matrix as drawn, so it must be
            # bitwise the symmetrized copy that validation makes.
            assert drawn.mat.tobytes() == validate_density(drawn.mat).mat.tobytes()
            assert not drawn.mat.flags.writeable
            assert drawn.rho.support_rank == public.rho.support_rank

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_draws_are_density_matrices_by_construction(self, corpus):
        for dims in CONSTRUCTION_DIMS:
            for seed in range(200):
                cfg = ScanConfig(dims=dims, samples=4, seed=seed, corpus=corpus)
                validate_density(corpus_state(cfg, seed % cfg.samples).mat)

    def test_drawing_decomposes_nothing(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, **kwargs: calls.append(args))
        for corpus in CORPORA:
            cfg = ScanConfig(dims=(2, 2, 2), samples=4, seed=73, corpus=corpus)
            corpus_state(cfg, 1)
            _public_sample(cfg, 1)
        assert calls == []
