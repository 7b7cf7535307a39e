import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qcmi.channels import random_channel
from qcmi.errors import DimensionMismatchError
from qcmi.harness import CORPORA, NEAR_MARKOV_MIXES, ScanConfig, corpus_state
from qcmi.linalg import hs_norm
from qcmi.sampling import (
    near_markov_state,
    random_classical,
    random_classical_state,
    random_density,
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
            assert abs(st.analysis.cmi) <= 1e-9

    def test_near_markov_interpolates(self):
        st = near_markov_state((2, 2, 2), substream(5, 0), mix=0.0)
        assert abs(st.analysis.cmi) <= 1e-9
        perturbed = near_markov_state((2, 2, 2), substream(5, 0), mix=0.2)
        assert perturbed.analysis.cmi > 1e-6


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


DRAW_PINS = json.loads(Path(__file__).with_name("draw_pins.json").read_text())["pins"]
PINNED_DIMS = ((2, 2, 2), (2, 3, 2), (5, 5, 5))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestDrawPins:
    """Each corpus sampler draws bitwise the matrix, and leaves its generator
    in the state, that it did at commit 1532dd0 (tests/draw_pins.json)."""

    def test_the_pins_cover_every_corpus_dims_and_seed(self):
        assert len(DRAW_PINS) == len(CORPORA) * len(PINNED_DIMS) * 20

    @pytest.mark.parametrize("dims", PINNED_DIMS)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_draws_match_the_pins(self, corpus, dims):
        samplers = {
            "hs-random": random_tripartite,
            "classical-random": random_classical_state,
            "markov": random_markov_state,
        }
        for seed in range(20):
            rng = substream(seed, 0)
            if corpus == "near-markov":
                mix = NEAR_MARKOV_MIXES[seed % len(NEAR_MARKOV_MIXES)]
                state = near_markov_state(dims, rng, mix)
            else:
                state = samplers[corpus](dims, rng)
            generator = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
            key = f"{corpus} {','.join(map(str, dims))} {seed}"
            assert [_sha256(state.mat.tobytes()), _sha256(generator)] == DRAW_PINS[key], key


# Every sampler of dims, called as a run would call it.
DIMS_SAMPLERS = {
    "random_tripartite": random_tripartite,
    "random_classical": random_classical,
    "random_classical_state": random_classical_state,
    "random_markov_spec": random_markov_spec,
    "random_markov_state": random_markov_state,
    "near_markov_state": lambda dims, rng: near_markov_state(dims, rng, 1e-2),
}


class TestSamplerDims:
    """Bad dims raise before any draw, so the generator is left where it was."""

    @pytest.mark.parametrize("dims", [(2.9, 2, 2), (True, 2, 2), (2, 2, 2.0), (2, 0, 2), (2, 2)])
    @pytest.mark.parametrize("name", sorted(DIMS_SAMPLERS))
    def test_bad_dims_raise_without_drawing(self, name, dims):
        rng = substream(74, 0)
        with pytest.raises(DimensionMismatchError):
            DIMS_SAMPLERS[name](dims, rng)
        assert rng.random() == substream(74, 0).random()

    @pytest.mark.parametrize("name", sorted(DIMS_SAMPLERS))
    def test_numpy_integer_dims_draw_as_ints(self, name):
        given = DIMS_SAMPLERS[name]((np.int64(2), 2, np.int32(1)), substream(75, 0))
        want = DIMS_SAMPLERS[name]((2, 2, 1), substream(75, 0))
        if hasattr(want, "mat"):
            assert given.dims == want.dims == (2, 2, 1)
            assert all(type(d) is int for d in given.dims)
            assert given.mat.tobytes() == want.mat.tobytes()
        else:
            assert repr(given) == repr(want)


# Every sampler of one dimension, the bad value in each of random_channel's
# three places.
DIMENSION_SAMPLERS = {
    "random_density": random_density,
    "random_unitary": random_unitary,
    "random_channel d_in": lambda d, rng: random_channel(d, 4, 1, rng),
    "random_channel d_out": lambda d, rng: random_channel(4, d, 4, rng),
    "random_channel n_kraus": lambda d, rng: random_channel(4, 4, d, rng),
}


class TestSamplerDimensions:
    """A dimension that is not a positive integer raises before any draw."""

    @pytest.mark.parametrize("dim", [4.0, 2.9, True, 0, -1])
    @pytest.mark.parametrize("name", sorted(DIMENSION_SAMPLERS))
    def test_bad_dimension_raises_without_drawing(self, name, dim):
        rng = substream(76, 0)
        with pytest.raises(DimensionMismatchError):
            DIMENSION_SAMPLERS[name](dim, rng)
        assert rng.random() == substream(76, 0).random()

    def test_channel_without_an_isometry_raises_without_drawing(self):
        rng = substream(76, 1)
        with pytest.raises(DimensionMismatchError, match="cannot build an isometry"):
            random_channel(5, 2, 2, rng)
        assert rng.random() == substream(76, 1).random()

    @pytest.mark.parametrize("name", sorted(DIMENSION_SAMPLERS))
    def test_numpy_integer_dimensions_draw_as_ints(self, name):
        given = DIMENSION_SAMPLERS[name](np.int64(3), substream(77, 0))
        want = DIMENSION_SAMPLERS[name](3, substream(77, 0))
        assert _drawn_bytes(given) == _drawn_bytes(want)


def _drawn_bytes(value) -> bytes:
    # What a sampler drew: a channel's Kraus operators, a state's matrix or an array.
    if hasattr(value, "kraus"):
        return b"".join(k.tobytes() for k in value.kraus)
    return getattr(value, "mat", value).tobytes()
