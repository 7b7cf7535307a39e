"""Independent reference implementations used to freeze expected values.

Most of this is deliberately written against scipy / closed formulas
rather than the package under test, so the two sides of every comparison
share no code. The oracles at the end are the exception. The conjecture
oracles are the per-matrix compositions the conjecture runs used before
their spectral data was shared, built from the package's linalg
primitives, so that the shared analysis can be held bitwise to them. The
marginal-operator oracles are the full-dimension forms of the Markov
assembly and M.
"""

import math

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg

from qcmi.channels import KrausChannel
from qcmi.errors import DimensionMismatchError, SingularMatrixError
from qcmi.linalg import (
    dagger,
    hermitian_part,
    hs_norm,
    mat_exp,
    psd_eig,
    support_cutoff,
    trace_norm,
)
from qcmi.states import ClassicalJoint, classical_state, embed, validate_density


def random_hermitian(dim, rng, scale=1.0):
    """Gaussian Hermitian matrix (g + g^dag) * scale / 2, g complex Ginibre
    with its real part drawn before its imaginary part."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def dirichlet_joint(dims, rng):
    """A classical joint distribution of shape dims, drawn uniformly from
    the probability simplex."""
    return ClassicalJoint(p=rng.dirichlet(np.ones(math.prod(dims))).reshape(dims))


def parity_state():
    """The classical state with C = A xor B for uniform bits A and B:
    I(A:C|B) = log 2."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return classical_state(ClassicalJoint(p))


def identity_channel(dim):
    """The identity channel, one Kraus operator."""
    return KrausChannel(kraus=np.eye(dim)[np.newaxis])


def depolarizing_channel(dim):
    """The fully depolarizing channel m -> Tr[m] I / dim, with Kraus
    operators |i><j| / sqrt(dim), i slowest."""
    return KrausChannel(kraus=np.eye(dim * dim).reshape(dim * dim, dim, dim) / np.sqrt(dim))


def eig2x2(m):
    """Eigenvalues of a 2x2 Hermitian matrix from the quadratic formula."""
    m = np.asarray(m, dtype=complex)
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


def classical_marginal(p, axes_to_keep):
    """Marginal of a joint distribution table, keeping the given axes."""
    p = np.asarray(p, dtype=float)
    drop = tuple(ax for ax in range(p.ndim) if ax not in axes_to_keep)
    return p.sum(axis=drop)


def classical_cmi(p):
    """I(A:C|B) of a classical (dA, dB, dC) table by direct summation."""
    p = np.asarray(p, dtype=float)
    p_ab = classical_marginal(p, (0, 1))
    p_bc = classical_marginal(p, (1, 2))
    p_b = classical_marginal(p, (1,))
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            for k in range(p.shape[2]):
                if p[i, j, k] <= 0.0:
                    continue
                total += p[i, j, k] * np.log(
                    p[i, j, k] * p_b[j] / (p_ab[i, j] * p_bc[j, k])
                )
    return total


def lieb_rhs_quad(r, s, t):
    """Quadrature of the integral Tr[R (S+x)^-1 T (S+x)^-1] dx over x >= 0."""
    r = np.asarray(r, dtype=complex)
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    eye = np.eye(s.shape[0])

    def integrand(x):
        inv = np.linalg.inv(s + x * eye)
        return np.trace(r @ inv @ t @ inv).real

    value, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
    return value


def trace_exp_triple(r, s, t):
    """Tr exp(log r - log s + log t) via scipy, positive definite inputs."""
    h = scipy.linalg.logm(r) - scipy.linalg.logm(s) + scipy.linalg.logm(t)
    return np.trace(scipy.linalg.expm((h + h.conj().T) / 2.0)).real


def nussbaum_szkola(rho, sigma):
    """The Nussbaum-Szkola distributions P_ij = lambda_i W_ij and
    Q_ij = mu_j W_ij of two states, for W_ij = |<q_i|v_j>|^2, q_i the
    eigenvectors of rho (eigenvalues lambda_i) and v_j those of sigma (mu_j)."""
    lam, q = scipy.linalg.eigh(rho)
    mu, v = scipy.linalg.eigh(sigma)
    w = np.abs(q.conj().T @ v) ** 2
    return lam[:, None] * w, mu[None, :] * w


def sqrtm_chain(rho, sigma):
    """-2 log Tr[sqrt(rho) sqrt(sigma)] and ||sqrt(rho) - sqrt(sigma)||_2^2
    from scipy's sqrtm."""
    root_rho, root_sigma = scipy.linalg.sqrtm(rho), scipy.linalg.sqrtm(sigma)
    overlap = np.trace(root_rho @ root_sigma).real
    return -2.0 * math.log(overlap), np.linalg.norm(root_rho - root_sigma) ** 2


def channel_rhs_mpmath(rho, x, dps=40):
    """-2 log Tr[sqrt(rho) exp(x/2)] for full-rank rho and Hermitian x,
    from mpmath's Hermitian eigensolver at dps digits."""
    with mpmath.workdps(dps):

        def function(m, f):
            w, q = mpmath.eighe(mpmath.matrix(m.tolist()))
            return q * mpmath.diag([f(v) for v in w]) * q.transpose_conj()

        p = function(rho, mpmath.sqrt) * function(x, lambda v: mpmath.exp(v / 2))
        overlap = mpmath.re(sum(p[i, i] for i in range(p.rows)))
        return float(-2 * mpmath.log(overlap))


# -- conjecture oracles ----------------------------------------------------


def random_unitary_alone(dim, rng):
    """One Haar unitary: QR of one Ginibre matrix, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rotated_slacks_loop(state, rng, unitary_samples):
    """rotated_slacks with one unitary triple at a time."""
    if not state.rho.is_full_rank():
        raise SingularMatrixError("rotated-bound sampling needs a full-rank state")
    a = state.analysis
    log_ab, log_bc, log_b = a.embedded_logs
    identity_slack = a.cmi - 0.25 * a.trace_distance**2
    best = identity_slack
    for _ in range(unitary_samples):
        u, v, w = (random_unitary_alone(state.dim, rng) for _ in range(3))
        x = u @ log_ab @ dagger(u) + v @ log_bc @ dagger(v) - w @ log_b @ dagger(w)
        dist = trace_norm(state.mat - mat_exp(hermitian_part(x)))
        best = min(best, a.cmi - 0.25 * dist * dist)
    return identity_slack, best


def _require_full_rank(rho, what):
    if not rho.is_full_rank():
        raise SingularMatrixError(
            f"{what} must be full rank (support rank {rho.support_rank} of {rho.dim})"
        )


def _rel_entropy(rho, sigma):
    comp = np.eye(sigma.dim) - psd_eig(sigma.mat, "support projector").projector()
    if hs_norm(comp @ rho.mat @ comp) > 1e-9:
        return math.inf
    w = np.linalg.eigh(rho.mat)[0]
    on = w > support_cutoff(w)
    entropy = -np.sum(np.where(on, w * np.log(np.where(on, w, 1.0)), 0.0)).item()
    return -entropy - float(np.trace(rho.mat @ psd_eig(sigma.mat, "log").log()).real)


def channel_exponent_alone(rho, sigma, phi):
    """log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma)), symmetrized."""
    _require_full_rank(rho, "rho")
    _require_full_rank(sigma, "sigma")
    phi_rho = validate_density(phi.apply(rho.mat))
    phi_sigma = validate_density(phi.apply(sigma.mat))
    _require_full_rank(phi_rho, "phi(rho)")
    _require_full_rank(phi_sigma, "phi(sigma)")
    log_sigma, log_out_rho, log_out_sigma = (
        psd_eig(m, "log").log() for m in (sigma.mat, phi_rho.mat, phi_sigma.mat)
    )
    x = log_sigma + phi.dual(log_out_rho) - phi.dual(log_out_sigma)
    return hermitian_part(x)


def channel_exp_operator_alone(rho, sigma, phi):
    """exp(log sigma + phi^dag(log phi(rho)) - phi^dag(log phi(sigma)))."""
    return mat_exp(channel_exponent_alone(rho, sigma, phi))


def channel_gap_bound_alone(rho, sigma, phi):
    """(lhs, rhs) of the channel gap bound, each matrix function on its own."""
    _require_full_rank(rho, "rho")
    _require_full_rank(sigma, "sigma")
    phi_rho = validate_density(phi.apply(rho.mat))
    phi_sigma = validate_density(phi.apply(sigma.mat))
    lhs = _rel_entropy(rho, sigma) - _rel_entropy(phi_rho, phi_sigma)
    ex = channel_exp_operator_alone(rho, sigma, phi)
    overlap = float(np.trace(psd_eig(rho.mat, "sqrt").sqrt() @ psd_eig(ex, "sqrt").sqrt()).real)
    return float(lhs), math.inf if overlap <= 1e-300 else -2.0 * math.log(overlap)


def _petz_reference(phi, sigma):
    # petz_dual's checks of the reference state.
    if sigma.dim != phi.in_dim:
        raise DimensionMismatchError(
            f"reference state dimension {sigma.dim} does not match channel input {phi.in_dim}"
        )
    if not sigma.is_full_rank():
        raise SingularMatrixError("Petz transpose needs a full-rank reference state")


def petz_dual_alone(phi, sigma):
    """Petz transpose from the polar factor of C = [K_1 sigma^1/2, ...,
    K_k sigma^1/2], one operator at a time: its Kraus operators are the
    adjoints of the blocks of U W^dag, for C = U S W^dag."""
    _petz_reference(phi, sigma)
    s_half = psd_eig(sigma.mat, "sqrt").sqrt()
    c = np.hstack([k @ s_half for k in phi.kraus])
    u, s, wh = np.linalg.svd(c, full_matrices=False)
    w = s * s
    if len(w) < phi.out_dim or w[-1] <= support_cutoff(w):
        raise SingularMatrixError("channel output of the reference state is singular")
    v = u @ wh
    d_in = phi.in_dim
    blocks = (v[:, i * d_in:(i + 1) * d_in] for i in range(len(phi.kraus)))
    return KrausChannel(kraus=tuple(dagger(b) for b in blocks))


def petz_dual_eigen_alone(phi, sigma):
    """Petz transpose with Kraus operators sigma^1/2 K^dag phi(sigma)^-1/2,
    phi(sigma)^-1/2 from phi(sigma)'s eigenvalues."""
    _petz_reference(phi, sigma)
    out = phi.apply(sigma.mat)
    w = np.linalg.eigvalsh((out + dagger(out)) / 2.0)
    if w[0] <= support_cutoff(w):
        raise SingularMatrixError("channel output of the reference state is singular")
    s_half = psd_eig(sigma.mat, "sqrt").sqrt()
    out_inv_half = psd_eig(out, "power").power(-0.5)
    return KrausChannel(kraus=tuple(s_half @ dagger(k) @ out_inv_half for k in phi.kraus))


def channel_sample_alone(rho, sigma, phi):
    """The channel conjecture's values of one triple: lhs, rhs, Tr exp
    operator and the Petz recovery gap."""
    lhs, rhs = channel_gap_bound_alone(rho, sigma, phi)
    trace_exp = float(np.trace(channel_exp_operator_alone(rho, sigma, phi)).real)
    recovered = petz_dual_alone(phi, sigma).apply(phi.apply(rho.mat))
    return lhs, rhs, trace_exp, trace_norm(rho.mat - recovered)


# -- full-dimension marginal operators ---------------------------------------
#
# The forms the analysis and the Markov assembly used before they were
# evaluated at subsystem dimension, built from the package's embed.


def markov_matrix_isometry(d_a, d_c, blocks):
    """The Markov assembly sum_k w_k V_k (rho_AL_k (x) rho_RC_k) V_k^T through
    an explicit 0/1 isometry V_k per block, from (weight, d_left, d_right,
    rho_al, rho_rc) blocks."""
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


def m_three_embeds(analysis):
    """M = (sqrt(rho_AB) (x) I)(I (x) pinv_sqrt(rho_B) (x) I)(I (x) sqrt(rho_BC))
    from three full-dimension factors, for one StateAnalysis."""
    psd_ab, psd_bc, psd_b = (m.eig for m in analysis.marginals)
    dims = analysis.stack.dims
    left = embed(psd_ab.sqrt(), "AB", dims)
    middle = embed(psd_b.power(-0.5), "B", dims)
    right = embed(psd_bc.sqrt(), "BC", dims)
    return left @ middle @ right
