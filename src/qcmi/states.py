"""Density matrices on A (x) B (x) C and constructors for special families.

Index convention: the composite basis is row-major with C varying fastest,
so the flat index of |a, b, c> is (a * dB + b) * dC + c. This matches
numpy.kron applied as kron(A_part, kron(B_part, C_part)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDistributionError,
    NotPSDError,
    SingularMatrixError,
    TraceNotOneError,
)
from .linalg import (
    PsdEigen,
    _eigh_symmetrized,
    _first,
    _require_finite,
    _with_cutoff,
    as_matrices,
    as_matrix,
    hermitian_part,
    require_hermitian,
)
from .tolerances import (
    JOINT_SUM_TOL,
    PROBABILITY_NEGATIVE_TOL,
    REGULARIZE_EPS,
    TRACE_ATOL,
    WEIGHT_SUM_TOL,
)

if TYPE_CHECKING:
    from .analysis import StateAnalysis

SUBSYSTEMS = "ABC"
# The marginals a state's analysis validates and keeps.
MARGINALS = ("AB", "BC", "B")


def _frozen(a: np.ndarray) -> np.ndarray:
    # a made read-only, in place when it is C-ordered (else a C-ordered
    # copy): arrays handed out by reference cannot be edited by callers.
    out = np.ascontiguousarray(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix and its eigendecomposition.

    eig carries the support cutoff, so every support-restricted function
    of the matrix (log, sqrt, powers, projector) and its support rank are
    read from it without decomposing the matrix again.
    """

    mat: np.ndarray
    eig: PsdEigen

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def support_rank(self) -> int:
        return self.eig.rank

    def is_full_rank(self) -> bool:
        return self.support_rank == self.dim


def _integer(value, what: str, least: int | None = None, error=DimensionMismatchError) -> int:
    # value as a Python int; error unless it is an integer, numpy integers
    # included, and at least `least` when that is given. A bool is not an
    # integer here: True would pass as 1, and 2.9 would truncate to 2.
    # A plain int passes at once, without the ABC check; a bool is not one.
    if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise error(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return int(value)


def _tripartite_dims(dims, error=DimensionMismatchError) -> tuple[int, int, int]:
    # dims as three positive Python ints; error otherwise.
    dims = tuple(dims)
    if len(dims) != 3:
        raise error(f"dims must be three positive integers, got {dims}")
    return tuple([_integer(d, "dims entry", 1, error) for d in dims])


def _require_full_rank(rho: DensityMatrix, what: str) -> None:
    if not rho.is_full_rank():
        raise SingularMatrixError(f"{what} must be full rank (support rank {rho.support_rank} of {rho.dim})")


def _checked(sym: np.ndarray) -> PsdEigen:
    # The decompositions, with their support ranks, of Hermitian matrices
    # (..., n, n) from one eigh, which must have no eigenvalue below minus
    # the support cutoff (_with_cutoff's rule) and unit trace; the first that
    # fails raises.
    e, negative = _with_cutoff(_eigh_symmetrized(sym))
    if np.count_nonzero(negative):
        found = _first(e.eigenvalues[..., 0], negative)
        floor = -_first(e.cutoff, negative)
        raise NotPSDError(f"minimum eigenvalue {found:.3e} is below {floor:.1e}")
    tr = sym.trace(axis1=-2, axis2=-1).real
    failed = abs(tr - 1.0) > TRACE_ATOL
    if np.count_nonzero(failed):
        raise TraceNotOneError(f"trace is {_first(tr, failed)!r}, expected 1 within {TRACE_ATOL}")
    return e


def _validated(m) -> tuple[np.ndarray, PsdEigen]:
    # The one density check, require_hermitian's and then _checked's, of
    # matrices (..., n, n): their read-only symmetrized copies and their
    # decompositions. A NaN or infinite entry raises NotFiniteError.
    sym = require_hermitian(m)
    return _frozen(sym), _checked(sym)


def validate_density(m) -> DensityMatrix:
    """Check Hermiticity, positivity, and unit trace; keep the decomposition.

    The returned matrix is the symmetrized copy of the input and is marked
    read-only.
    """
    sym, e = _validated(as_matrix(m))
    return DensityMatrix(mat=sym, eig=e)


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """A matrix on A (x) B (x) C with explicit subsystem dimensions.

    On construction the matrix must be square, finite and Hermitian
    (require_hermitian's check) and dims must match it. The state holds
    the read-only symmetrized copy that check makes, so editing the
    caller's array, or the base of a view, leaves it unchanged. Its
    analysis checks positivity and unit trace the first time a value is
    read. The samplers, and so the states a run draws from its corpus,
    build density matrices by construction and leave that to the
    analysis. The constructors of outside input, tripartite, read_state,
    regularize, markov_state and classical_state, validate in full on
    construction.
    """

    mat: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(require_hermitian(as_matrix(self.mat))))
        object.__setattr__(self, "dims", _state_dims(self.dims, self.dim))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def rho(self) -> DensityMatrix:
        """The matrix validated, with its decomposition, from the analysis."""
        return self.analysis.rho

    @cached_property
    def analysis(self) -> StateAnalysis:
        """The state's spectral analysis, built on first access and kept."""
        from .analysis import StackAnalysis, StateAnalysis

        return StateAnalysis(StackAnalysis(self.mat[np.newaxis], self.dims), 0)


def _state_dims(dims, dim: int) -> tuple[int, int, int]:
    # dims as three positive Python ints whose product is dim.
    dims = _tripartite_dims(dims)
    if dims[0] * dims[1] * dims[2] != dim:
        raise DimensionMismatchError(
            f"dims {dims} imply dimension {dims[0] * dims[1] * dims[2]}, "
            f"matrix has dimension {dim}"
        )
    return dims


def _state(mat: np.ndarray, dims: tuple[int, int, int]) -> TripartiteState:
    # The state of mat, a new C-ordered complex128 Hermitian (n, n) array
    # that no caller holds, for dims of three Python ints whose product is
    # n: it holds mat itself, made read-only, without TripartiteState's
    # symmetrized copy and its check of the dims.
    state = object.__new__(TripartiteState)
    object.__setattr__(state, "mat", _frozen(mat))
    object.__setattr__(state, "dims", dims)
    return state


def tripartite(m, dims) -> TripartiteState:
    """Validate a raw matrix as a tripartite state: the constructor's
    checks, then the analysis's, which keeps the decomposition it made."""
    state = TripartiteState(m, dims)
    state.rho  # validated by the analysis
    return state


def regularize(state: TripartiteState) -> TripartiteState:
    """Mix with the maximally mixed state: (1 - eps) rho + eps I / dim.

    eps is REGULARIZE_EPS. Never applied implicitly; callers opt in when
    they need a full-rank stand-in for a singular state.
    """
    d, eps = state.dim, REGULARIZE_EPS
    mixed = (1.0 - eps) * state.mat + eps * np.eye(d) / d
    return tripartite(mixed, state.dims)


def _normalize_keep(keep) -> str:
    labels = "".join(dict.fromkeys(str(keep).upper()))
    if not labels:
        raise DimensionMismatchError("keep must name at least one subsystem")
    bad = [s for s in labels if s not in SUBSYSTEMS]
    if bad:
        raise DimensionMismatchError(f"unknown subsystem label(s) {bad}, expected letters from 'ABC'")
    return "".join(s for s in SUBSYSTEMS if s in labels)


def marginal_dims(dims, keep) -> tuple[int, ...]:
    keep = _normalize_keep(keep)
    return tuple(dims[SUBSYSTEMS.index(s)] for s in keep)


@lru_cache(maxsize=128)
def _trace_layout(dims: tuple[int, int, int], keep: str) -> tuple[str, int]:
    # _traced_out's einsum subscripts and the marginal's dimension.
    row = {"A": "a", "B": "b", "C": "c"}
    col = {"A": "x", "B": "y", "C": "z"}
    sub_in = "".join(row[s] for s in SUBSYSTEMS)
    sub_in += "".join(col[s] if s in keep else row[s] for s in SUBSYSTEMS)
    sub_out = "".join(row[s] for s in keep) + "".join(col[s] for s in keep)
    return f"...{sub_in}->...{sub_out}", math.prod(marginal_dims(dims, keep))


def _traced_out(mat: np.ndarray, dims, keep: str) -> np.ndarray:
    # The partial trace onto keep (normalized, not "ABC") of matrices of
    # shape (..., n, n) on A (x) B (x) C, unvalidated.
    subscripts, d = _trace_layout(tuple(dims), keep)
    reduced = np.einsum(subscripts, mat.reshape(*mat.shape[:-2], *dims, *dims))
    return reduced.reshape(*mat.shape[:-2], d, d)


def partial_trace(state: TripartiteState, keep) -> DensityMatrix:
    """Trace out the subsystems not named in keep.

    keep is a string of subsystem labels, e.g. "AB" or "B". The result is
    validated, so marginals come back as DensityMatrix values. rho, and the
    marginals in MARGINALS once the state's analysis has validated them,
    are the ones the analysis keeps, so they are not decomposed again.
    Before that a marginal is validated alone, without rho or the others.
    """
    keep = _normalize_keep(keep)
    if keep == SUBSYSTEMS:
        return state.rho
    analysis = vars(state).get("analysis")
    if keep in MARGINALS and analysis is not None and "marginals" in vars(analysis.stack):
        return analysis.marginals[MARGINALS.index(keep)]
    return validate_density(_traced_out(state.mat, state.dims, keep))


@lru_cache(maxsize=128)
def _embed_layout(dims: tuple[int, int, int], acts_on: str):
    # embed's normalized acts_on, the axis shape (a, b, c) of the operand,
    # and the product of the identities on the other subsystems over the
    # axes (a, b, c, x, y, z), read-only; None when acts_on is ABC.
    acts_on = _normalize_keep(acts_on)
    shape = tuple(d if s in acts_on else 1 for s, d in zip(SUBSYSTEMS, dims))
    if acts_on == SUBSYSTEMS:
        return acts_on, shape, None
    ident = 1.0
    for i, s in enumerate(SUBSYSTEMS):
        if s not in acts_on:
            eye_shape = [1] * 6
            eye_shape[i] = eye_shape[i + 3] = dims[i]
            ident = ident * np.eye(dims[i]).reshape(eye_shape)
    return acts_on, shape, _frozen(ident)


def embed(m, acts_on, dims) -> np.ndarray:
    """Extend an operator on a subsystem subset by identity elsewhere.

    acts_on names the subsystems m lives on (in A, B, C order); dims are
    the full tripartite dimensions. embed(log_rho_AB, "AB", dims) is the
    operator log_rho_AB (x) I_C. m may be a stack (..., d, d), embedded
    matrix by matrix.

    The entries are products of entries of m with the 1s and 0s of the
    identities, so they equal those of numpy.kron exactly.
    """
    dims = tuple(int(d) for d in dims)
    acts_on, shape, ident = _embed_layout(dims, str(acts_on))
    a = as_matrices(m)
    if a.shape[-1] != math.prod(shape):
        raise DimensionMismatchError(
            f"operator of dimension {a.shape[-1]} cannot act on {acts_on} "
            f"with dims {marginal_dims(dims, acts_on)}"
        )
    if ident is None:
        return a
    stack = a.shape[:-2]
    full = a.reshape(*stack, *shape, *shape) * ident
    d = dims[0] * dims[1] * dims[2]
    return full.reshape(*stack, d, d)


def _require_distribution(v: np.ndarray, what: str, negative_tol: float, sum_tol: float) -> None:
    # The one probability check: v has finite entries, none below
    # -negative_tol, and they sum to 1 within sum_tol. A NaN or infinite
    # entry makes the least entry or the sum NaN or infinite, which fails
    # the comparison and raises NotFiniteError. what names v in errors.
    low, total = float(v.min()), float(v.sum())
    if low >= -negative_tol and abs(total - 1.0) <= sum_tol:
        return
    _require_finite(v, what)
    if low < -negative_tol:
        raise NotDistributionError(f"{what}: negative entry {low:.3e}")
    raise NotDistributionError(f"{what}: entries sum to {total!r}, expected 1")


@dataclass(frozen=True, eq=False)
class ClassicalJoint:
    """A joint distribution p(a, b, c) stored as a 3-d array."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 3:
            raise DimensionMismatchError(f"joint distribution must be 3-d, got {arr.ndim}-d")
        _require_distribution(arr, "joint distribution", PROBABILITY_NEGATIVE_TOL, JOINT_SUM_TOL)
        object.__setattr__(self, "p", _frozen(np.clip(arr, 0.0, None)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.p.shape


def _classical_matrices(p: np.ndarray) -> np.ndarray:
    # The diagonal matrices of the rows of p, shape (k, n): real and
    # diagonal, so bitwise their own Hermitian parts.
    k, n = p.shape
    mats = np.zeros((k, n, n), dtype=complex)
    mats.reshape(k, n * n)[:, :: n + 1] = p
    return mats


def classical_state(joint: ClassicalJoint) -> TripartiteState:
    """Embed a classical joint distribution as a diagonal tripartite state."""
    return tripartite(_classical_matrices(joint.p.reshape(1, -1))[0], joint.dims)


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
        for name in ("d_left", "d_right"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        for name in ("d_a", "d_c"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise NotDistributionError("a Markov spec needs at least one block")
        weights = np.array([b.weight for b in self.blocks], dtype=float)
        _require_distribution(weights, "block weights", 0.0, WEIGHT_SUM_TOL)
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
    the Kronecker product rho_AL_k (x) rho_RC_k with its L and R axes
    together, added into the B range of sector k on the (a, b, c) axes
    of rho; every entry is a product of the factors' entries, as
    numpy.kron forms it.
    """
    blocks = [(b.weight, b.d_left, b.d_right, b.rho_al.mat, b.rho_rc.mat) for b in spec.blocks]
    return tripartite(_markov_matrices(spec.dims, [blocks])[0], spec.dims)


def _markov_matrices(dims: tuple[int, int, int], samples) -> np.ndarray:
    # The (k, n, n) matrices of k Markov states on dims, unvalidated, each
    # from its list of (weight, d_left, d_right, rho_al, rho_rc) blocks:
    # filled state by state into one stack, whose Hermitian part is taken
    # at once. (Filling the states of one block layout together, from
    # gathered factors, was faster only from about 20 states on, and
    # slower for 4.)
    d_a, d_b, d_c = dims
    rho = np.zeros((len(samples),) + (d_a, d_b, d_c) * 2, dtype=complex)
    for out, blocks in zip(rho, samples):
        offset = 0
        for weight, dl, dr, rho_al, rho_rc in blocks:
            block = rho_al.reshape((d_a, dl, 1, 1) * 2) * rho_rc.reshape((1, 1, dr, d_c) * 2)
            block *= weight  # bitwise weight * block: a real factor commutes
            end = offset + dl * dr
            out[:, offset:end, :, :, offset:end, :] += block.reshape((d_a, dl * dr, d_c) * 2)
            offset = end
    dim = d_a * d_b * d_c
    return hermitian_part(rho.reshape(len(samples), dim, dim))
