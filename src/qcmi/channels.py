"""Kraus-form quantum channels and the Petz transpose map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError, ValidationError
from .linalg import PsdEigen, _require_finite, _svd, dagger, hs_norm, support_cutoff
from .sampling import _haar_unitaries
from .states import DensityMatrix, _frozen, _integer, _tripartite_dims
from .tolerances import COMPLETENESS_TOL


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    kraus is one read-only complex array of shape (k, d_out, d_in), copied
    once from the given operators (a sequence of d_out x d_in matrices or
    a 3-D array); trace preservation sum_k K^dag K = I is checked on
    construction. The class defines no iteration, len() or JSON form of
    its own: the operators are kraus[i], their count kraus.shape[0], and
    a channel triple's artifact writes kraus. apply, dual and the check
    each sum one stacked product over the operators, in operator order
    except that numpy sums four or more 1x1 terms pairwise.
    """

    kraus: np.ndarray

    def __post_init__(self):
        ops = [np.asarray(k) for k in self.kraus]
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2:
            raise ValidationError(f"Kraus operators must be matrices, got shape {shape}")
        if any(k.shape != shape for k in ops):
            raise DimensionMismatchError("Kraus operators have inconsistent shapes")
        kraus = np.array(ops, dtype=complex)
        # A NaN or infinite entry makes dev NaN or infinite, which fails.
        with np.errstate(invalid="ignore"):
            dev = hs_norm((dagger(kraus) @ kraus).sum(axis=0) - np.eye(shape[1]))
        if not dev <= COMPLETENESS_TOL * max(1.0, np.sqrt(shape[1])):
            _require_finite(kraus, "Kraus operator")
            raise ValidationError(f"channel is not trace preserving, deviation {dev:.3e}")
        object.__setattr__(self, "kraus", _frozen(kraus))

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    def apply(self, m: np.ndarray) -> np.ndarray:
        """Channel action sum_k K m K^dag."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"channel input must be {self.in_dim} dimensional, got shape {m.shape}"
            )
        return (self.kraus @ m @ dagger(self.kraus)).sum(axis=0)

    def dual(self, m: np.ndarray) -> np.ndarray:
        """Adjoint (Heisenberg) action sum_k K^dag m K."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.out_dim, self.out_dim):
            raise DimensionMismatchError(
                f"adjoint input must be {self.out_dim} dimensional, got shape {m.shape}"
            )
        return (dagger(self.kraus) @ m @ self.kraus).sum(axis=0)


def partial_trace_channel(dims) -> KrausChannel:
    """The channel that traces out subsystem A of A (x) B (x) C.

    The Kraus operators are <a| (x) I on the remaining factors. dims must
    be three positive integers; otherwise DimensionMismatchError is raised.
    """
    d_a, d_b, d_c = _tripartite_dims(dims)
    n = d_a * d_b * d_c
    # <a| (x) I is row block a of the identity on A (x) B (x) C.
    return KrausChannel(kraus=np.eye(n).reshape(d_a, d_b * d_c, n))


def random_channel(d_in: int, d_out: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel via a Haar isometry into output (x) environment.

    The isometry is the first d_in columns of a Haar unitary on a
    d_out * n_kraus space, and its d_out-row blocks are the Kraus
    operators. The draw takes the unitary's whole Ginibre matrix but
    QR-factors only the d_in columns it keeps. The dimensions must be
    positive integers with d_out * n_kraus >= d_in; otherwise
    DimensionMismatchError is raised before anything is drawn.
    """
    d_in = _integer(d_in, "d_in", 1)
    d_out = _integer(d_out, "d_out", 1)
    n_kraus = _integer(n_kraus, "n_kraus", 1)
    if d_out * n_kraus < d_in:
        raise DimensionMismatchError(
            f"cannot build an isometry: d_out * n_kraus = {d_out * n_kraus} < d_in = {d_in}"
        )
    iso = _haar_unitaries((), d_out * n_kraus, rng, cols=d_in)
    return KrausChannel(kraus=iso.reshape(n_kraus, d_out, d_in))


def petz_dual(phi: KrausChannel, sigma: DensityMatrix) -> KrausChannel:
    """Petz transpose of phi with respect to a full-rank reference state.

    Kraus operators are sigma^(1/2) K^dag phi(sigma)^(-1/2). The composite
    petz_dual(phi, sigma) after phi fixes sigma, and the map is trace
    preserving by construction; phi(sigma) must be nonsingular.
    """
    if sigma.dim != phi.in_dim:
        raise DimensionMismatchError(
            f"reference state dimension {sigma.dim} does not match channel input {phi.in_dim}"
        )
    if not sigma.is_full_rank():
        raise SingularMatrixError("Petz transpose needs a full-rank reference state")
    return _petz_dual(phi, sigma.eig)


def _petz_dual(phi: KrausChannel, sigma: PsdEigen) -> KrausChannel:
    # petz_dual from the decomposition of a full-rank reference state sigma.
    # C = [K_1 sigma^1/2, ..., K_k sigma^1/2] has C C^dag = phi(sigma), and
    # the Kraus operators are the adjoints of the d_out x d_in blocks of
    # its polar factor V = phi(sigma)^-1/2 C = U W^dag, for the thin SVD
    # C = U S W^dag. V V^dag = I, so the map is complete to rounding,
    # however ill-conditioned phi(sigma) is. S**2 are phi(sigma)'s
    # eigenvalues, all of them when C has at least d_out columns.
    k, d_out, d_in = phi.kraus.shape
    c = (phi.kraus @ sigma.sqrt()).transpose(1, 0, 2).reshape(d_out, k * d_in)
    u, s, wh = _svd(c)
    w = s * s
    if len(w) < d_out or w[-1] <= support_cutoff(w):
        raise SingularMatrixError("channel output of the reference state is singular")
    v = (u @ wh).reshape(d_out, k, d_in)
    return KrausChannel(kraus=dagger(v.transpose(1, 0, 2)))
