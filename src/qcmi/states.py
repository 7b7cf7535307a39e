"""Density matrices on A (x) B (x) C and constructors for special families.

Index convention: the composite basis is row-major with C varying fastest,
so the flat index of |a, b, c> is (a * dB + b) * dC + c. This matches
numpy.kron applied as kron(A_part, kron(B_part, C_part)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDistributionError,
    NotPSDError,
    TraceNotOneError,
)
from .linalg import (
    HermitianEigen,
    _eigh_symmetrized,
    _first,
    as_matrices,
    as_matrix,
    hermitian_part,
    require_hermitian,
    support_cutoff,
)

if TYPE_CHECKING:
    from .analysis import StateAnalysis

SUBSYSTEMS = "ABC"

TRACE_ATOL = 1e-10
EIG_FLOOR = -1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix together with its numerical support rank."""

    mat: np.ndarray
    support_rank: int

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_full_rank(self) -> bool:
        return self.support_rank == self.dim


def _support_ranks(sym: np.ndarray, w: np.ndarray):
    # validate_density's checks after the Hermitian one, on symmetrized
    # matrices of shape (..., n, n) with ascending eigenvalues w: their
    # support ranks. The first matrix that fails raises.
    failed = w[..., 0] < EIG_FLOOR
    if np.count_nonzero(failed):
        found = _first(w[..., 0], failed)
        raise NotPSDError(f"minimum eigenvalue {found:.3e} is below {EIG_FLOOR}")
    tr = sym.trace(axis1=-2, axis2=-1).real
    failed = abs(tr - 1.0) > TRACE_ATOL
    if np.count_nonzero(failed):
        raise TraceNotOneError(f"trace is {_first(tr, failed)!r}, expected 1 within {TRACE_ATOL}")
    return np.count_nonzero(w > np.asarray(support_cutoff(w))[..., None], axis=-1)


def _validated(m) -> tuple[np.ndarray, HermitianEigen, np.ndarray]:
    # validate_density on matrices of shape (..., n, n), read from their
    # eigh, for callers that need the decompositions anyway: the read-only
    # symmetrized copies, their decompositions and support ranks.
    sym = require_hermitian(m)
    e = _eigh_symmetrized(sym)
    return _frozen(sym), e, _support_ranks(sym, e.eigenvalues)


def validate_density(m) -> DensityMatrix:
    """Check Hermiticity, positivity, and unit trace; record support rank.

    The returned matrix is the symmetrized copy of the input and is marked
    read-only.
    """
    sym = require_hermitian(as_matrix(m))
    rank = _support_ranks(sym, np.linalg.eigvalsh(sym))
    return DensityMatrix(mat=_frozen(sym), support_rank=int(rank))


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """A density matrix on A (x) B (x) C with explicit subsystem dimensions."""

    rho: DensityMatrix
    dims: tuple[int, int, int]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"dims must be three positive ints, got {dims}")
        if dims[0] * dims[1] * dims[2] != self.dim:
            raise DimensionMismatchError(
                f"dims {dims} imply dimension {dims[0] * dims[1] * dims[2]}, "
                f"matrix has dimension {self.dim}"
            )

    @property
    def mat(self) -> np.ndarray:
        return self.rho.mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def analysis(self) -> StateAnalysis:
        """The state's spectral analysis, built on first access and kept."""
        from .analysis import StackAnalysis, StateAnalysis

        return StateAnalysis(StackAnalysis([self]), 0)


class _DrawnState(TripartiteState):
    # tripartite(m, dims) without the checks, for a complex matrix m that is
    # a density matrix by construction and already symmetrized as
    # validate_density does (the corpus draws): the state's analysis runs
    # the checks, once, and rho with its support rank is read from there.

    def __init__(self, m: np.ndarray, dims):
        object.__setattr__(self, "_mat", _frozen(m))
        object.__setattr__(self, "dims", dims)
        self.__post_init__()

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @cached_property
    def rho(self) -> DensityMatrix:
        return DensityMatrix(mat=self._mat, support_rank=self.analysis.rho_rank)


def tripartite(m, dims) -> TripartiteState:
    """Validate a raw matrix as a tripartite state."""
    return TripartiteState(rho=validate_density(m), dims=tuple(dims))


def regularize(state: TripartiteState, eps: float = 1e-9) -> TripartiteState:
    """Mix with the maximally mixed state: (1 - eps) rho + eps I / dim.

    Never applied implicitly; callers opt in when they need a full-rank
    stand-in for a singular state.
    """
    d = state.dim
    mixed = (1.0 - eps) * state.mat + eps * np.eye(d) / d
    return tripartite(mixed, state.dims)


def _normalize_keep(keep) -> str:
    labels = "".join(dict.fromkeys(str(keep).upper()))
    if not labels:
        raise ValueError("keep must name at least one subsystem")
    bad = [s for s in labels if s not in SUBSYSTEMS]
    if bad:
        raise ValueError(f"unknown subsystem label(s) {bad}, expected letters from 'ABC'")
    return "".join(s for s in SUBSYSTEMS if s in labels)


def marginal_dims(dims, keep) -> tuple[int, ...]:
    keep = _normalize_keep(keep)
    return tuple(dims[SUBSYSTEMS.index(s)] for s in keep)


def tensor(a, b) -> np.ndarray:
    """Kronecker product in the package's row-major index convention."""
    return np.kron(as_matrix(a), as_matrix(b))


def _traced_out(mat: np.ndarray, dims, keep: str) -> np.ndarray:
    # The partial trace onto keep (normalized, not "ABC") of matrices of
    # shape (..., n, n) on A (x) B (x) C, unvalidated.
    tens = mat.reshape(*mat.shape[:-2], *dims, *dims)
    row = {"A": "a", "B": "b", "C": "c"}
    col = {"A": "x", "B": "y", "C": "z"}
    sub_in = "".join(row[s] for s in SUBSYSTEMS)
    sub_in += "".join(col[s] if s in keep else row[s] for s in SUBSYSTEMS)
    sub_out = "".join(row[s] for s in keep) + "".join(col[s] for s in keep)
    reduced = np.einsum(f"...{sub_in}->...{sub_out}", tens)
    d = math.prod(marginal_dims(dims, keep))
    return reduced.reshape(*mat.shape[:-2], d, d)


def partial_trace(state: TripartiteState, keep) -> DensityMatrix:
    """Trace out the subsystems not named in keep.

    keep is a string of subsystem labels, e.g. "AB" or "B". The result is
    validated, so marginals come back as DensityMatrix values.
    """
    keep = _normalize_keep(keep)
    if keep == SUBSYSTEMS:
        return state.rho
    return validate_density(_traced_out(state.mat, state.dims, keep))


def embed(m, acts_on, dims) -> np.ndarray:
    """Extend an operator on a subsystem subset by identity elsewhere.

    acts_on names the subsystems m lives on (in A, B, C order); dims are
    the full tripartite dimensions. embed(log_rho_AB, "AB", dims) is the
    operator log_rho_AB (x) I_C. m may be a stack (..., d, d), embedded
    matrix by matrix.

    The entries are products of entries of m with the 1s and 0s of the
    identities, so they equal those of numpy.kron exactly.
    """
    acts_on = _normalize_keep(acts_on)
    dims = tuple(int(d) for d in dims)
    a = as_matrices(m)
    # Axes (a, b, c, x, y, z): m spans the axes of acts_on, and each
    # identity the row and column axis of its own subsystem.
    shape = [d if s in acts_on else 1 for s, d in zip(SUBSYSTEMS, dims)]
    if a.shape[-1] != math.prod(shape):
        raise DimensionMismatchError(
            f"operator of dimension {a.shape[-1]} cannot act on {acts_on} "
            f"with dims {marginal_dims(dims, acts_on)}"
        )
    if acts_on == SUBSYSTEMS:
        return a
    ident = 1.0
    for i, s in enumerate(SUBSYSTEMS):
        if s not in acts_on:
            eye_shape = [1] * 6
            eye_shape[i] = eye_shape[i + 3] = dims[i]
            ident = ident * np.eye(dims[i]).reshape(eye_shape)
    stack = a.shape[:-2]
    full = a.reshape(*stack, *shape, *shape) * ident
    d = dims[0] * dims[1] * dims[2]
    return full.reshape(*stack, d, d)


@dataclass(frozen=True, eq=False)
class ClassicalJoint:
    """A joint distribution p(a, b, c) stored as a 3-d array."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 3:
            raise DimensionMismatchError(f"joint distribution must be 3-d, got {arr.ndim}-d")
        if float(arr.min()) < -1e-12:
            raise NotDistributionError(f"negative probability {arr.min():.3e}")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise NotDistributionError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "p", _frozen(np.clip(arr, 0.0, None)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.p.shape


def _classical_matrix(joint: ClassicalJoint) -> np.ndarray:
    # Real and diagonal, so bitwise its own Hermitian part.
    return np.diag(joint.p.ravel(order="C").astype(complex))


def classical_state(joint: ClassicalJoint) -> TripartiteState:
    """Embed a classical joint distribution as a diagonal tripartite state."""
    return tripartite(_classical_matrix(joint), joint.dims)


@dataclass(frozen=True, eq=False)
class MarkovBlock:
    """One block of a Markov state: weight and the two block factors.

    rho_al lives on A (x) L (dimension d_a * d_left, L fastest) and rho_rc
    on R (x) C (dimension d_right * d_c, C fastest).
    """

    weight: float
    d_left: int
    d_right: int
    rho_al: DensityMatrix
    rho_rc: DensityMatrix

    def __post_init__(self):
        for name in ("rho_al", "rho_rc"):
            value = getattr(self, name)
            if not isinstance(value, DensityMatrix):
                object.__setattr__(self, name, validate_density(value))


@dataclass(frozen=True, eq=False)
class MarkovSpec:
    """Block decomposition of B together with per-block factors."""

    d_a: int
    d_c: int
    blocks: tuple[MarkovBlock, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise NotDistributionError("a Markov spec needs at least one block")
        weights = [b.weight for b in self.blocks]
        if min(weights) < 0.0:
            raise NotDistributionError(f"negative block weight {min(weights)!r}")
        total = float(sum(weights))
        if abs(total - 1.0) > 1e-9:
            raise NotDistributionError(f"block weights sum to {total!r}, expected 1")
        for i, b in enumerate(self.blocks):
            if b.d_left < 1 or b.d_right < 1:
                raise DimensionMismatchError(f"block {i}: factor dimensions must be >= 1")
            if b.rho_al.dim != self.d_a * b.d_left:
                raise DimensionMismatchError(
                    f"block {i}: rho_al has dimension {b.rho_al.dim}, "
                    f"expected {self.d_a * b.d_left}"
                )
            if b.rho_rc.dim != b.d_right * self.d_c:
                raise DimensionMismatchError(
                    f"block {i}: rho_rc has dimension {b.rho_rc.dim}, "
                    f"expected {b.d_right * self.d_c}"
                )

    @property
    def d_b(self) -> int:
        return sum(b.d_left * b.d_right for b in self.blocks)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d_a, self.d_b, self.d_c)


def markov_state(spec: MarkovSpec) -> TripartiteState:
    """Assemble the direct-sum state sum_k w_k rho_AL_k (x) rho_RC_k.

    B decomposes as the direct sum of L_k (x) R_k sectors; the index of
    |l, r> inside sector k is offset_k + l * d_right_k + r. Each block is
    scattered into the A (x) B (x) C ordering through an explicit 0/1
    isometry, so the constructor is transparent about the index mapping.
    """
    blocks = [(b.weight, b.d_left, b.d_right, b.rho_al.mat, b.rho_rc.mat) for b in spec.blocks]
    return tripartite(_markov_matrix(spec.d_a, spec.d_c, blocks), spec.dims)


def _markov_matrix(d_a: int, d_c: int, blocks) -> np.ndarray:
    # markov_state's matrix from (weight, d_left, d_right, rho_al, rho_rc)
    # blocks, unvalidated.
    d_b = sum(dl * dr for _, dl, dr, _, _ in blocks)
    dim = d_a * d_b * d_c
    rho = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for weight, dl, dr, rho_al, rho_rc in blocks:
        block = np.kron(rho_al, rho_rc)
        n = d_a * dl * dr * d_c
        a_idx = np.arange(d_a)[:, None, None, None]
        l_idx = np.arange(dl)[None, :, None, None]
        r_idx = np.arange(dr)[None, None, :, None]
        c_idx = np.arange(d_c)[None, None, None, :]
        b_idx = offset + l_idx * dr + r_idx
        target = ((a_idx * d_b + b_idx) * d_c + c_idx).ravel()
        iso = np.zeros((dim, n))
        iso[target, np.arange(n)] = 1.0
        rho += weight * (iso @ block @ iso.T)
        offset += dl * dr
    return hermitian_part(rho)
