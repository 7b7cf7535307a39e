"""Seeded random states, unitaries, and harness corpora.

Randomness contract: all draws use numpy's Generator over the PCG64 bit
generator. A run with seed s evaluates sample i on substream(s, i), which
is numpy's SeedSequence(entropy=s, spawn_key=(i,)). Substreams are
statistically independent, reproduce bitwise for a fixed seed, and do not
depend on evaluation order, so scans can be resumed or parallelized
without changing their output.

Group draws: each corpus sampler has two phases. Its draw makes one
sample's generator calls and nothing else: the Ginibre normals of each
Hilbert-Schmidt matrix, for a Markov state first its block layout and
Dirichlet weights and then its block factors' normals, and for a
near-markov state the noise's normals after the Markov draw. Its build
makes the matrices of a group of k samples' draws at once, an array of
shape (k, n, n): one Ginibre product G G^dag, trace normalisation and
Hermitian part per factor size over the whole group, the Markov sectors
filled sample by sample from those stacked factors, and the near-markov
mixture over the stack with each sample's weight. A scan draws the
samples of a group in index order, each on its own substream, and builds
the group once. The generator calls are the public sampler's, unchanged
in kind, arguments and order, and the stacked arithmetic acts on each
matrix as on that matrix alone, so state i of a group is bitwise its lone
draw and leaves its generator in the same state. The public samplers are
the build on a group of one. The table CORPORA defines the harness
corpora: it maps each corpus name to its (draw, build) pair.

The tripartite samplers return unvalidated TripartiteState values: their
matrices are density matrices by construction, and each state's analysis
validates it when a value is first read. Every sampler checks its
arguments before it draws, so a dimension that is not a positive integer
raises DimensionMismatchError, and a near-markov mix that is not a real
number in [0, 1] raises NotDistributionError, and either leaves the
generator where it was.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import NotDistributionError
from .linalg import _qr, dagger, hermitian_part
from .states import (
    DensityMatrix,
    MarkovBlock,
    MarkovSpec,
    TripartiteState,
    _classical_matrices,
    _integer,
    _markov_matrices,
    _state,
    _tripartite_dims,
    validate_density,
)


def substream(seed: int, index: int, *subkey: int) -> np.random.Generator:
    """Independent generator for sample `index` of a run seeded with `seed`.

    Extra integers extend the spawn key, giving further independent
    streams tied to the same sample (for example one for the state draw
    and one for auxiliary unitary draws).
    """
    key = (int(index),) + tuple([int(k) for k in subkey])
    # What numpy.random.default_rng makes of a SeedSequence, without its dispatch.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _hs_draw(dim: int, rng: np.random.Generator) -> np.ndarray:
    # The Ginibre normals of one Hilbert-Schmidt matrix: one standard_normal
    # call draws the real and then the imaginary parts.
    return rng.standard_normal((2, dim, dim))


def _hs_matrices(normals: np.ndarray) -> np.ndarray:
    # The Hilbert-Schmidt matrices G G^dag / Tr(G G^dag) of normals of shape
    # (k, 2, d, d), unvalidated: PSD with unit trace by construction, and
    # symmetrized as validate_density does.
    g = normals[:, 0] + 1j * normals[:, 1]
    m = g @ dagger(g)
    m /= m.trace(axis1=1, axis2=2).real[:, None, None]
    return hermitian_part(m)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt distributed density matrix: G G^dag normalized."""
    dim = _integer(dim, "dim", 1)
    return validate_density(_hs_matrices(_hs_draw(dim, rng)[np.newaxis])[0])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar distributed unitary.

    QR of a complex Gaussian matrix, with column phases fixed so the
    triangular factor has a positive real diagonal (which makes the
    distribution exactly Haar rather than QR-convention dependent).
    """
    return _haar_unitaries((), _integer(dim, "dim", 1), rng)


def _haar_unitaries(
    shape: tuple[int, ...], dim: int, rng: np.random.Generator, cols: int | None = None
) -> np.ndarray:
    # Haar unitaries of shape shape + (dim, dim), bitwise the ones that
    # consecutive random_unitary calls draw: one standard_normal call
    # yields their Ginibre matrices, real and imaginary parts in turn, and
    # one stacked QR factors them. Given cols, only the first cols columns
    # are factored, which gives the first cols columns of those unitaries,
    # a Haar isometry (Mezzadri 2007): the Householder reflectors of the
    # first columns do not read the later ones. The whole matrices are
    # still drawn, so the generator advances as for the unitaries.
    normal = rng.standard_normal(shape + (2, dim, dim))
    g = normal[..., 0, :, :cols] + 1j * normal[..., 1, :, :cols]
    del normal  # freed before the QR factors are allocated
    q, r = _qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _alone(build, dims: tuple[int, int, int], draw) -> TripartiteState:
    # The state of one sample's draw: the build on a group of one.
    return _state(build(dims, [draw])[0], dims)


def _tripartite_draw(dims: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    return _hs_draw(dims[0] * dims[1] * dims[2], rng)


def _tripartite_build(dims: tuple[int, int, int], draws) -> np.ndarray:
    return _hs_matrices(np.array(draws))


def random_tripartite(dims, rng: np.random.Generator) -> TripartiteState:
    dims = _tripartite_dims(dims)
    return _alone(_tripartite_build, dims, _tripartite_draw(dims, rng))


def _classical_draw(dims: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(dims[0] * dims[1] * dims[2]))


def _classical_build(dims: tuple[int, int, int], draws) -> np.ndarray:
    return _classical_matrices(np.array(draws))


def random_classical_state(dims, rng: np.random.Generator) -> TripartiteState:
    dims = _tripartite_dims(dims)
    return _alone(_classical_build, dims, _classical_draw(dims, rng))


def _markov_draw(dims: tuple[int, int, int], rng: np.random.Generator) -> tuple:
    # (shapes, weights, normals) of one Markov state: its block layout, a
    # list of (d_left, d_right), sampled greedily (while capacity remains,
    # a pair drawn uniformly among those that still fit), its flat
    # Dirichlet block weights as Python floats, and the normals of each
    # block's rho_al and rho_rc in turn.
    d_a, d_b, d_c = dims
    shapes: list[tuple[int, int]] = []
    remaining = d_b
    while remaining > 0:
        pairs = [
            (dl, dr)
            for dl in range(1, remaining + 1)
            for dr in range(1, remaining // dl + 1)
        ]
        shapes.append(pairs[int(rng.integers(len(pairs)))])
        remaining -= shapes[-1][0] * shapes[-1][1]
    weights = rng.dirichlet(np.ones(len(shapes))).tolist()
    normals = [(_hs_draw(d_a * dl, rng), _hs_draw(dr * d_c, rng)) for dl, dr in shapes]
    return shapes, weights, normals


def _markov_blocks(dims: tuple[int, int, int], draws) -> list[list[tuple]]:
    # The (weight, d_left, d_right, rho_al, rho_rc) blocks of each Markov
    # draw, unvalidated. Its factors are rows of one Hilbert-Schmidt stack
    # per factor size over the group, each stack in the order of the draws.
    d_a, _, d_c = dims
    by_size: dict[int, list[np.ndarray]] = {}
    for _, _, normals in draws:
        for pair in normals:
            for normal in pair:
                by_size.setdefault(normal.shape[-1], []).append(normal)
    factors = {size: iter(_hs_matrices(np.array(group))) for size, group in by_size.items()}
    return [
        [
            (w, dl, dr, next(factors[d_a * dl]), next(factors[dr * d_c]))
            for w, (dl, dr) in zip(weights, shapes)
        ]
        for shapes, weights, _ in draws
    ]


def _markov_build(dims: tuple[int, int, int], draws) -> np.ndarray:
    return _markov_matrices(dims, _markov_blocks(dims, draws))


def random_markov_spec(dims, rng: np.random.Generator) -> MarkovSpec:
    """Random block decomposition of B with Hilbert-Schmidt block factors.

    The decomposition is sampled greedily: while capacity remains, pick a
    (d_left, d_right) pair uniformly among those that still fit. Block
    weights are flat Dirichlet.
    """
    dims = _tripartite_dims(dims)
    (blocks,) = _markov_blocks(dims, [_markov_draw(dims, rng)])
    return MarkovSpec(d_a=dims[0], d_c=dims[2], blocks=tuple(MarkovBlock(*b) for b in blocks))


def random_markov_state(dims, rng: np.random.Generator) -> TripartiteState:
    dims = _tripartite_dims(dims)
    return _alone(_markov_build, dims, _markov_draw(dims, rng))


def _near_markov_draw(dims: tuple[int, int, int], rng: np.random.Generator, mix: float) -> tuple:
    # (Markov draw, noise normals, mix): the Markov state is drawn first.
    return _markov_draw(dims, rng), _tripartite_draw(dims, rng), mix


def _near_markov_build(dims: tuple[int, int, int], draws) -> np.ndarray:
    base = _markov_build(dims, [markov for markov, _, _ in draws])
    noise = _hs_matrices(np.array([normals for _, normals, _ in draws]))
    mix = np.array([mix for _, _, mix in draws])[:, None, None]
    return hermitian_part((1.0 - mix) * base + mix * noise)


def _require_mix(mix) -> float:
    # mix as a Python float; NotDistributionError unless it is a real
    # number in [0, 1], so that (1 - mix, mix) are mixture weights. A bool
    # is not a weight here, and NaN fails the comparison.
    if isinstance(mix, bool) or not isinstance(mix, numbers.Real) or not 0.0 <= mix <= 1.0:
        raise NotDistributionError(f"mix must be a real number in [0, 1], got {mix!r}")
    return float(mix)


def near_markov_state(dims, rng: np.random.Generator, mix: float) -> TripartiteState:
    """Convex mixture (1 - mix) * markov + mix * random, for small mix.

    The Markov state is random_markov_state's, drawn from rng first. mix
    must be a real number in [0, 1].
    """
    dims = _tripartite_dims(dims)
    mix = _require_mix(mix)
    return _alone(_near_markov_build, dims, _near_markov_draw(dims, rng, mix))


# Each harness corpus' (draw, build): draw(dims, rng) makes one sample's
# generator calls (near-markov's also takes the sample's mix), and
# build(dims, draws) the (k, n, n) matrices of k samples' draws at once.
CORPORA = {
    "hs-random": (_tripartite_draw, _tripartite_build),
    "classical-random": (_classical_draw, _classical_build),
    "markov": (_markov_draw, _markov_build),
    "near-markov": (_near_markov_draw, _near_markov_build),
}
