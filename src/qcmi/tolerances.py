"""Every numeric threshold of the package, defined once.

The thresholds decide what counts as a density matrix, a channel or a
probability vector, where the support of a matrix ends, and when a slack
counts as a violation. The other modules import them from here, so the
same name read through any module is the same value
(qcmi.linalg.SUPPORT_RTOL is this SUPPORT_RTOL). The README's table of
tolerances lists each one; tests/test_readme.py keeps the two equal, and
tests/test_structure.py fails on a small float literal anywhere else in
the package. _require_tol checks a tolerance given in its place.
"""

import math
import numbers

from .errors import ConfigError

# The tolerance of every run and of classify unless one is given: an
# asserted slack below -tol is a violation.
DEFAULT_TOL = 1e-8


def _require_tol(tol) -> float:
    """The tolerance as a float; ConfigError unless it is a positive,
    finite real number, not a bool. With tol = inf no slack could fail,
    and with tol = True every slack above -1 would pass."""
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise ConfigError(f"tol must be a real number, got {tol!r}")
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if math.isinf(tol):
        raise ConfigError(f"tol must be finite, got {tol}")
    return float(tol)


# Relative Hermiticity tolerance used everywhere a Hermitian input is required.
HERMITIAN_RTOL = 1e-8

# Eigenvalues below support_cutoff() = max(SUPPORT_RTOL * lambda_max,
# SUPPORT_FLOOR) are treated as exact zeros.
SUPPORT_RTOL = 1e-10
SUPPORT_FLOOR = 1e-14

# A density matrix has unit trace within this.
TRACE_ATOL = 1e-10

# Weight of the maximally mixed state that regularize mixes in.
REGULARIZE_EPS = 1e-9

# rel_entropy is infinite when ||(I - P) rho (I - P)||_2 exceeds this, for
# the support projector P of sigma. The test runs only for a singular
# sigma: a full-rank sigma's I - P is zero up to rounding.
REL_ENTROPY_SUPPORT_TOL = 1e-9

# Tr[sqrt(rho) sqrt(sigma)] at or below this is treated as zero overlap.
ZERO_OVERLAP = 1e-300

# Kraus operators are trace preserving when ||sum K^dag K - I||_2 is at
# most COMPLETENESS_TOL * max(1, sqrt(d_in)).
COMPLETENESS_TOL = 1e-9

# Entries of a classical joint distribution or of a Kullback-Leibler
# argument down to -PROBABILITY_NEGATIVE_TOL are accepted (a joint clips
# them to 0); Markov block weights must not be negative at all.
PROBABILITY_NEGATIVE_TOL = 1e-12
# A classical joint distribution sums to 1 within this.
JOINT_SUM_TOL = 1e-12
# Kullback-Leibler arguments and Markov block weights sum to 1 within this.
WEIGHT_SUM_TOL = 1e-9

# Eigenvalues of p + q above 2 - INTERSECTION_TOL span the intersection of
# the ranges of the orthogonal projectors p and q.
INTERSECTION_TOL = 1e-8

# Eigenvalues s_i, s_j with |s_i - s_j| <= LOG_MEAN_RTOL * max(s_i, s_j)
# take the diagonal limit 2 / (s_i + s_j) of the inverse logarithmic mean.
LOG_MEAN_RTOL = 1e-12
