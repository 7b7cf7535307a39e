"""Seeded random states, unitaries, and harness corpora.

Randomness contract: all draws use numpy's Generator over the PCG64 bit
generator. A run with seed s evaluates sample i on substream(s, i), which
is numpy's SeedSequence(entropy=s, spawn_key=(i,)). Substreams are
statistically independent, reproduce bitwise for a fixed seed, and do not
depend on evaluation order, so scans can be resumed or parallelized
without changing their output.

The tripartite samplers return unvalidated TripartiteState values: their
matrices are density matrices by construction, and each state's analysis
validates it when a value is first read. Every sampler checks its
dimensions before it draws, so a dimension that is not a positive integer
raises DimensionMismatchError and leaves the generator where it was.
"""

from __future__ import annotations

import numpy as np

from .linalg import _qr, hermitian_part
from .states import (
    ClassicalJoint,
    DensityMatrix,
    MarkovBlock,
    MarkovSpec,
    TripartiteState,
    _classical_matrix,
    _markov_matrix,
    _integer,
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


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    # One standard_normal call draws the real and then the imaginary parts,
    # the values two consecutive calls draw.
    normal = rng.standard_normal((2, dim, dim))
    return normal[0] + 1j * normal[1]


def _hs_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    # random_density's matrix, unvalidated: PSD with unit trace by
    # construction, and symmetrized as validate_density does.
    g = _ginibre(dim, rng)
    m = g @ g.conj().T
    m /= m.trace().real
    return hermitian_part(m)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt distributed density matrix: G G^dag normalized."""
    return validate_density(_hs_matrix(_integer(dim, "dim", 1), rng))


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


def random_tripartite(dims, rng: np.random.Generator) -> TripartiteState:
    dims = _tripartite_dims(dims)
    return _state(_hs_matrix(dims[0] * dims[1] * dims[2], rng), dims)


def random_classical(dims, rng: np.random.Generator) -> ClassicalJoint:
    """Joint distribution drawn uniformly from the probability simplex."""
    dims = _tripartite_dims(dims)
    cells = dims[0] * dims[1] * dims[2]
    return ClassicalJoint(p=rng.dirichlet(np.ones(cells)).reshape(dims))


def random_markov_spec(dims, rng: np.random.Generator) -> MarkovSpec:
    """Random block decomposition of B with Hilbert-Schmidt block factors.

    The decomposition is sampled greedily: while capacity remains, pick a
    (d_left, d_right) pair uniformly among those that still fit. Block
    weights are flat Dirichlet.
    """
    dims = _tripartite_dims(dims)
    blocks = [MarkovBlock(*block) for block in _markov_blocks(dims, rng)]
    return MarkovSpec(d_a=dims[0], d_c=dims[2], blocks=tuple(blocks))


def _markov_blocks(dims, rng: np.random.Generator) -> list:
    # The (weight, d_left, d_right, rho_al, rho_rc) blocks of
    # random_markov_spec and random_markov_state, unvalidated, for dims
    # they have checked.
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
    weights = rng.dirichlet(np.ones(len(shapes)))
    return [
        (float(w), dl, dr, _hs_matrix(d_a * dl, rng), _hs_matrix(dr * d_c, rng))
        for w, (dl, dr) in zip(weights, shapes)
    ]


def _random_markov_matrix(dims: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    # random_markov_state's matrix, for dims it has checked.
    return _markov_matrix(dims[0], dims[2], _markov_blocks(dims, rng))


def random_markov_state(dims, rng: np.random.Generator) -> TripartiteState:
    dims = _tripartite_dims(dims)
    return _state(_random_markov_matrix(dims, rng), dims)


def random_classical_state(dims, rng: np.random.Generator) -> TripartiteState:
    joint = random_classical(dims, rng)
    return _state(_classical_matrix(joint), joint.dims)


def near_markov_state(dims, rng: np.random.Generator, mix: float) -> TripartiteState:
    """Convex mixture (1 - mix) * markov + mix * random, for small mix.

    The Markov state is random_markov_state's, drawn from rng first.
    """
    dims = _tripartite_dims(dims)
    base = _random_markov_matrix(dims, rng)
    noise = _hs_matrix(base.shape[0], rng)
    return _state(hermitian_part((1.0 - mix) * base + mix * noise), dims)
