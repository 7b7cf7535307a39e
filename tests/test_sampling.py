import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcmi import harness
from qcmi.channels import random_channel
from qcmi.errors import DimensionMismatchError, NotDistributionError
from qcmi.harness import CORPORA, NEAR_MARKOV_MIXES, STACK_BUDGET, ScanConfig, corpus_state
from qcmi.linalg import hs_norm
from qcmi.sampling import (
    _haar_unitaries,
    near_markov_state,
    random_classical_state,
    random_density,
    random_markov_spec,
    random_markov_state,
    random_tripartite,
    random_unitary,
    substream,
)
from qcmi.states import classical_state, validate_density
from oracles import dirichlet_joint


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

    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 3, 2)])
    def test_random_classical_state_is_the_dirichlet_joint(self, dims):
        # The state is bitwise classical_state of one Dirichlet draw over
        # the joint's entries, a distribution.
        joint = dirichlet_joint(dims, substream(2, 1))
        assert joint.p.shape == dims
        assert joint.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(joint.p >= 0)
        want = classical_state(joint).mat
        assert random_classical_state(dims, substream(2, 1)).mat.tobytes() == want.tobytes()

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


def _public_sample(cfg, i, rng=None):
    # Sample i of the corpus from its public sampler, called directly, on
    # rng or else on substream(seed, i).
    rng = rng or substream(cfg.seed, i)
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


GROUP_DIMS = ((1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3))
# (first index, size) of each group, at seed 79. The last starts at an
# index not divisible by 4, so near-markov's mixes cycle inside it; the
# groups of 3 and 4 mix one-block and two-block Markov layouts wherever
# d_B >= 2 (test_the_groups_cycle_the_mixes_and_mix_markov_layouts).
GROUPS = ((0, 1), (0, 3), (0, 4), (3, 4))
GROUP_SEED = 79


def _generator_state(rng) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def _group(cfg, indices, monkeypatch):
    # The states of samples `indices` as a scan draws them, one substream
    # each, builds them as one group and analyses them as one stack, and
    # the state of each sample's generator after its draw.
    generators = []

    def recorded(*key):
        generators.append(substream(*key))
        return generators[-1]

    with monkeypatch.context() as patch:
        patch.setattr(harness, "substream", recorded)
        states = [state for state, _ in harness._evaluated(cfg, indices, lambda states, _: states)]
    return states, [_generator_state(rng) for rng in generators]


class TestGroupDraws:
    """A scan's group of samples is bitwise its samples drawn alone by the
    public samplers, and leaves each generator in the same state."""

    @staticmethod
    def _check(cfg, indices, monkeypatch):
        states, generators = _group(cfg, indices, monkeypatch)
        stack = states[0].analysis.stack
        assert len(states) == len(generators) == len(stack) == len(indices)
        for k, (i, state, generator) in enumerate(zip(indices, states, generators)):
            rng = substream(cfg.seed, i)
            alone = _public_sample(cfg, i, rng)
            assert state.mat.tobytes() == alone.mat.tobytes(), (cfg, i)
            assert generator == _generator_state(rng), (cfg, i)
            # The analysis reads the built stack itself, which the states view.
            assert state.analysis.stack is stack and state.analysis.index == k
            assert np.shares_memory(state.mat, stack.mat)
            assert not state.mat.flags.writeable

    @pytest.mark.parametrize("dims", GROUP_DIMS)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_each_sample_of_a_group_is_its_lone_draw(self, corpus, dims, monkeypatch):
        for start, size in GROUPS:
            cfg = ScanConfig(dims=dims, samples=start + size, seed=GROUP_SEED, corpus=corpus)
            self._check(cfg, range(start, start + size), monkeypatch)

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_a_full_2_2_2_group_is_its_lone_draws(self, corpus, monkeypatch):
        # A scan's group at 2,2,2, from index 1.
        size = STACK_BUDGET // 64
        assert size == 256
        cfg = ScanConfig(dims=(2, 2, 2), samples=size + 1, seed=GROUP_SEED, corpus=corpus)
        self._check(cfg, range(1, size + 1), monkeypatch)

    def test_the_groups_cycle_the_mixes_and_mix_markov_layouts(self):
        start, size = GROUPS[-1]
        cfg = ScanConfig(dims=(2, 2, 2), samples=8, seed=GROUP_SEED, corpus="near-markov")
        mixes = [harness._draw(cfg, i)[2] for i in range(start, start + size)]
        assert mixes == [1e-4, 1e-1, 1e-2, 1e-3]
        for dims in GROUP_DIMS:
            if dims[1] >= 2:
                cfg = ScanConfig(dims=dims, samples=8, seed=GROUP_SEED, corpus="markov")
                for start, size in GROUPS[1:]:
                    blocks = {len(harness._draw(cfg, i)[0]) for i in range(start, start + size)}
                    assert {1, 2} <= blocks, (dims, start)


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
    def test_draws_match_the_pins(self, corpus, dims, pin_platforms):
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
            pin = [_sha256(state.mat.tobytes()), _sha256(generator)]
            assert pin == DRAW_PINS[key], f"{key}: {pin_platforms}"


CHANNEL_DRAW_PINS = json.loads(
    Path(__file__).with_name("channel_draw_pins.json").read_text()
)["pins"]


def _pin(drawn: bytes, rng) -> list[str]:
    return [_sha256(drawn), _sha256(_generator_state(rng).encode())]


class TestChannelDrawPins:
    """The draws of the channel and rotated-quarter conjectures are bitwise,
    with their generators' states, those of commit fccd4c8
    (tests/channel_draw_pins.json)."""

    def test_the_pins_cover_every_draw_and_seed(self):
        assert len(CHANNEL_DRAW_PINS) == 5 * 20

    def test_random_density_and_random_unitary_match_the_pins(self, pin_platforms):
        for seed in range(20):
            for n in (8, 27):
                rng = substream(seed, 0)
                drawn = random_density(n, rng).mat.tobytes()
                key = f"random_density {n} {seed}"
                assert _pin(drawn, rng) == CHANNEL_DRAW_PINS[key], f"{key}: {pin_platforms}"
            rng = substream(seed, 0)
            drawn = random_unitary(27, rng).tobytes()
            key = f"random_unitary 27 {seed}"
            assert _pin(drawn, rng) == CHANNEL_DRAW_PINS[key], f"{key}: {pin_platforms}"

    def test_rotated_quarter_unitaries_match_the_pins(self, pin_platforms):
        # The unitary triples of a rotated-quarter sample at 3,3,3 with
        # --unitary-samples 10, drawn from its substream(seed, i, 1).
        for seed in range(20):
            rng = substream(seed, 0, 1)
            drawn = _haar_unitaries((10, 3), 27, rng).tobytes()
            key = f"rotated-quarter 27 {seed}"
            assert _pin(drawn, rng) == CHANNEL_DRAW_PINS[key], f"{key}: {pin_platforms}"

    def test_channel_triples_match_the_pins(self, monkeypatch, pin_platforms):
        generators = []
        monkeypatch.setattr(
            harness, "substream", lambda *key: generators.append(substream(*key)) or generators[-1]
        )
        counts = set()
        for seed in range(20):
            a = harness._channel(ScanConfig(dims=(3, 3, 3), samples=1, seed=seed), 0)
            counts.add(len(a.phi.kraus))
            drawn = a.rho.mat.tobytes() + a.sigma.mat.tobytes() + a.phi.kraus.tobytes()
            key = f"channel 27 {seed}"
            assert _pin(drawn, generators[-1]) == CHANNEL_DRAW_PINS[key], f"{key}: {pin_platforms}"
        assert counts == {1, 2, 3, 4}


# Every sampler of dims, called as a run would call it.
DIMS_SAMPLERS = {
    "random_tripartite": random_tripartite,
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


class TestNearMarkovMix:
    """A mix that is not a real number in [0, 1] is not a mixture weight: it
    raises before any draw, so the generator is left where it was."""

    @pytest.mark.parametrize(
        "mix", [1.5, -0.5, 2, -1e-300, math.nan, math.inf, True, "0.1", None, 0.5j]
    )
    def test_bad_mix_raises_without_drawing(self, mix):
        rng = substream(74, 0)
        with pytest.raises(NotDistributionError, match=r"mix must be a real number in \[0, 1\]"):
            near_markov_state((2, 2, 2), rng, mix)
        assert rng.random() == substream(74, 0).random()

    @pytest.mark.parametrize("mix", [0, 1, 0.0, 1.0, np.float64(1e-2), np.float32(0.5)])
    def test_real_mixes_in_the_unit_interval_draw_as_floats(self, mix):
        given = near_markov_state((2, 2, 2), substream(75, 0), mix)
        want = near_markov_state((2, 2, 2), substream(75, 0), float(mix))
        assert given.mat.tobytes() == want.mat.tobytes()
        given.analysis.cmi  # a density matrix


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
