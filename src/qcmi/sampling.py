"""Seeded random states, unitaries, and harness corpora.

Randomness contract: all draws use numpy's Generator over the PCG64 bit
generator. A run with seed s evaluates sample i on substream(s, i), which
is numpy's SeedSequence(entropy=s, spawn_key=(i,)). Substreams are
statistically independent, reproduce bitwise for a fixed seed, and do not
depend on evaluation order, so scans can be resumed or parallelized
without changing their output.

The tripartite samplers return unvalidated TripartiteState values: their
matrices are density matrices by construction, and each state's analysis
validates it when a value is first read.
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
    validate_density,
)


def substream(seed: int, index: int, *subkey: int) -> np.random.Generator:
    """Independent generator for sample `index` of a run seeded with `seed`.

    Extra integers extend the spawn key, giving further independent
    streams tied to the same sample (for example one for the state draw
    and one for auxiliary unitary draws).
    """
    key = (int(index),) + tuple(int(k) for k in subkey)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _hs_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    # random_density's matrix, unvalidated: PSD with unit trace by
    # construction, and symmetrized as validate_density does.
    g = _ginibre(dim, rng)
    m = g @ g.conj().T
    return hermitian_part(m / np.trace(m).real)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt distributed density matrix: G G^dag normalized."""
    return validate_density(_hs_matrix(dim, rng))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar distributed unitary.

    QR of a complex Gaussian matrix, with column phases fixed so the
    triangular factor has a positive real diagonal (which makes the
    distribution exactly Haar rather than QR-convention dependent).
    """
    return _haar_unitaries((), dim, rng)


def _haar_unitaries(shape: tuple[int, ...], dim: int, rng: np.random.Generator) -> np.ndarray:
    # Haar unitaries of shape shape + (dim, dim), bitwise the ones that
    # consecutive random_unitary calls draw: one standard_normal call
    # yields their Ginibre matrices, real and imaginary parts in turn, and
    # one stacked QR factors them.
    normal = rng.standard_normal(shape + (2, dim, dim))
    g = normal[..., 0, :, :] + 1j * normal[..., 1, :, :]
    del normal  # freed before the QR factors are allocated
    q, r = _qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix (g + g^dag) * scale / 2."""
    g = _ginibre(dim, rng)
    return scale * (g + g.conj().T) / 2.0


def random_tripartite(dims, rng: np.random.Generator) -> TripartiteState:
    dims = tuple(int(d) for d in dims)
    return TripartiteState(_hs_matrix(dims[0] * dims[1] * dims[2], rng), dims)


def random_classical(dims, rng: np.random.Generator) -> ClassicalJoint:
    """Joint distribution drawn uniformly from the probability simplex."""
    dims = tuple(int(d) for d in dims)
    cells = dims[0] * dims[1] * dims[2]
    return ClassicalJoint(p=rng.dirichlet(np.ones(cells)).reshape(dims))


def random_markov_spec(dims, rng: np.random.Generator) -> MarkovSpec:
    """Random block decomposition of B with Hilbert-Schmidt block factors.

    The decomposition is sampled greedily: while capacity remains, pick a
    (d_left, d_right) pair uniformly among those that still fit. Block
    weights are flat Dirichlet.
    """
    blocks = [MarkovBlock(*block) for block in _markov_blocks(dims, rng)]
    return MarkovSpec(d_a=int(dims[0]), d_c=int(dims[2]), blocks=tuple(blocks))


def _markov_blocks(dims, rng: np.random.Generator) -> list:
    # The (weight, d_left, d_right, rho_al, rho_rc) blocks of
    # random_markov_spec and random_markov_state, unvalidated.
    d_a, d_b, d_c = (int(d) for d in dims)
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


def random_markov_state(dims, rng: np.random.Generator) -> TripartiteState:
    d_a, d_c = int(dims[0]), int(dims[2])
    return TripartiteState(_markov_matrix(d_a, d_c, _markov_blocks(dims, rng)), dims)


def random_classical_state(dims, rng: np.random.Generator) -> TripartiteState:
    joint = random_classical(dims, rng)
    return TripartiteState(_classical_matrix(joint), joint.dims)


def near_markov_state(dims, rng: np.random.Generator, mix: float) -> TripartiteState:
    """Convex mixture (1 - mix) * markov + mix * random, for small mix."""
    base = random_markov_state(dims, rng)
    noise = _hs_matrix(base.dim, rng)
    return TripartiteState(hermitian_part((1.0 - mix) * base.mat + mix * noise), dims)
