"""Kraus-form quantum channels and the Petz transpose map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError, ValidationError
from .linalg import PsdEigen, _require_finite, dagger, hs_norm, psd_eig
from .states import DensityMatrix
from .tolerances import COMPLETENESS_TOL


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    Every operator maps the input space to the output space (shape
    d_out x d_in); trace preservation sum_k K^dag K = I is checked on
    construction.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2:
            raise ValidationError(f"Kraus operators must be matrices, got shape {shape}")
        if any(k.shape != shape for k in ops):
            raise DimensionMismatchError("Kraus operators have inconsistent shapes")
        # A NaN or infinite entry makes dev NaN or infinite, which fails.
        with np.errstate(invalid="ignore"):
            total = sum(dagger(k) @ k for k in ops)
            dev = hs_norm(total - np.eye(shape[1]))
        if not dev <= COMPLETENESS_TOL * max(1.0, np.sqrt(shape[1])):
            _require_finite(np.stack(ops), "Kraus operator")
            raise ValidationError(f"channel is not trace preserving, deviation {dev:.3e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, m: np.ndarray) -> np.ndarray:
        """Channel action sum_k K m K^dag."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"channel input must be {self.in_dim} dimensional, got shape {m.shape}"
            )
        return sum(k @ m @ dagger(k) for k in self.kraus)

    def dual(self, m: np.ndarray) -> np.ndarray:
        """Adjoint (Heisenberg) action sum_k K^dag m K."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.out_dim, self.out_dim):
            raise DimensionMismatchError(
                f"adjoint input must be {self.out_dim} dimensional, got shape {m.shape}"
            )
        return sum(dagger(k) @ m @ k for k in self.kraus)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(kraus=(np.eye(dim, dtype=complex),))


def depolarizing_channel(dim: int) -> KrausChannel:
    """The fully depolarizing channel m -> Tr[m] I / dim."""
    ops = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            ops.append(k)
    return KrausChannel(kraus=tuple(ops))


def partial_trace_channel(dims) -> KrausChannel:
    """The channel that traces out subsystem A of A (x) B (x) C.

    The Kraus operators are <a| (x) I on the remaining factors.
    """
    d_a, d_b, d_c = (int(d) for d in dims)
    rest = d_b * d_c
    ops = []
    for a in range(d_a):
        bra = np.zeros((1, d_a), dtype=complex)
        bra[0, a] = 1.0
        ops.append(np.kron(bra, np.eye(rest, dtype=complex)))
    return KrausChannel(kraus=tuple(ops))


def random_channel(d_in: int, d_out: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel via a Haar isometry into output (x) environment.

    The first d_in columns of a Haar unitary on a d_out * n_kraus space
    form an isometry; its d_out-row blocks are the Kraus operators.
    Requires d_out * n_kraus >= d_in.
    """
    from .sampling import random_unitary

    if d_out * n_kraus < d_in:
        raise ValueError(
            f"cannot build an isometry: d_out * n_kraus = {d_out * n_kraus} < d_in = {d_in}"
        )
    u = random_unitary(d_out * n_kraus, rng)
    iso = u[:, :d_in]
    ops = tuple(iso[mu * d_out : (mu + 1) * d_out, :] for mu in range(n_kraus))
    return KrausChannel(kraus=ops)


def petz_dual(phi: KrausChannel, sigma: DensityMatrix) -> KrausChannel:
    """Petz transpose of phi with respect to a full-rank reference state.

    Kraus operators are sigma^(1/2) K^dag phi(sigma)^(-1/2). The composite
    petz_dual(phi, sigma) after phi fixes sigma and is trace preserving
    whenever phi(sigma) is full rank.
    """
    if sigma.dim != phi.in_dim:
        raise DimensionMismatchError(
            f"reference state dimension {sigma.dim} does not match channel input {phi.in_dim}"
        )
    if not sigma.is_full_rank():
        raise SingularMatrixError("Petz transpose needs a full-rank reference state")
    return _petz_dual(phi, sigma.eig, psd_eig(phi.apply(sigma.mat), "power"))


def _petz_dual(phi: KrausChannel, sigma: PsdEigen, out: PsdEigen) -> KrausChannel:
    # petz_dual from the decompositions of a full-rank reference state
    # sigma and of its channel output phi(sigma).
    if out.eigenvalues[0] <= out.cutoff:
        raise SingularMatrixError("channel output of the reference state is singular")
    s_half = sigma.sqrt()
    out_inv_half = out.power(-0.5)
    ops = tuple(s_half @ dagger(k) @ out_inv_half for k in phi.kraus)
    return KrausChannel(kraus=ops)
