"""The inequalities the harness evaluates, in one table.

Each row names an inequality, states it, says where it is asserted and
to which samples it applies, and computes its slack, >= 0 when it holds.
An asserted slack below -tol aborts the run.

- Proven rows are asserted by every run that evaluates them: scan and
  info evaluate the state rows, channel-gap and the channel conjecture
  the channel rows. A proven row asserted on given corpora holds on
  those corpora only; scan asserts it there, and info never.
- Conjecture rows are recorded by `qcmi conjecture`, and asserted only
  on the corpora where they are theorems.

A slack is slack(a, sample): a is the sample's analysis, the
StateAnalysis of a state (state.analysis) for the state rows and the
triple's ChannelAnalysis for the channel rows, and every value a slack
reads is an attribute of it. sample is the sample's (seed, index,
unitary_samples), read only by rotated-quarter for its unitary draws, or
None.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analysis import StateAnalysis
from .errors import SingularMatrixError
from .linalg import dagger, mat_exp, trace_norm
from .sampling import _haar_unitaries, substream

ALWAYS = "always"
NEVER = ()

# What a row applies to: every state, or channel triples.
STATE, CHANNEL = "state", "channel"


@dataclass(frozen=True)
class Inequality:
    """One row of the table."""

    name: str
    statement: str
    proven: bool
    asserted: str | tuple[str, ...]  # ALWAYS, or the corpora it is asserted on
    applies: str
    slack: Callable[[object, object], float]

    def asserted_on(self, corpus: str | None) -> bool:
        return self.asserted == ALWAYS or corpus in self.asserted


def half_recovery_slack(a: StateAnalysis, _=None) -> float:
    """cmi - max(||rho - M M^dag||_1, ||rho - M^dag M||_1)^2 / 2."""
    worst = max(a.gap_m, a.gap_mprime)
    return a.cmi - 0.5 * worst * worst


def commutator_slack(a: StateAnalysis, _=None) -> float:
    """cmi - ||[M, M^dag]||_1^2 / 8."""
    return a.cmi - a.commutator_norm**2 / 8.0


def rotated_slacks(
    a: StateAnalysis, rng: np.random.Generator, unitary_samples: int
) -> tuple[float, float]:
    """Identity-triple slack and the minimum over sampled unitary triples.

    The candidate state exp(U log rho_AB U^dag + V log rho_BC V^dag
    - W log rho_B W^dag) is compared against rho in trace distance; the
    slack is cmi - distance^2 / 4. The identity triple reproduces the
    corollary bound. Needs a full-rank state so the embedded logs carry
    the whole marginal information.

    The unitary_samples >= 0 triples (U, V, W) are drawn from rng as
    consecutive random_unitary calls would draw them, and evaluated as
    one stack: each slack is bitwise that of its triple alone.
    """
    rho = a.rho
    if not rho.is_full_rank():
        raise SingularMatrixError("rotated-bound sampling needs a full-rank state")
    # The identity triple's candidate is sigma* itself.
    identity_slack = a.cmi - a.corollary_bound
    if unitary_samples == 0:
        return identity_slack, identity_slack
    log_ab, log_bc, log_b = a.embedded_logs
    triples = _haar_unitaries((unitary_samples, 3), rho.dim, rng)
    u, v, w = (triples[:, j] for j in range(3))
    exponent = u @ log_ab @ dagger(u) + v @ log_bc @ dagger(v) - w @ log_b @ dagger(w)
    dist = trace_norm(rho.mat - mat_exp(exponent))
    slacks = a.cmi - 0.25 * dist * dist
    return identity_slack, min([identity_slack, *slacks.tolist()])


def _rotated_quarter(a: StateAnalysis, sample: tuple[int, int, int]) -> float:
    # The unitary triples come from a separate substream, which keeps them
    # independent of the corpus draw for the same sample index.
    seed, index, unitary_samples = sample
    return rotated_slacks(a, substream(seed, index, 1), unitary_samples)[1]


_M_GAPS = "max(||rho - M M^dag||_1, ||rho - M^dag M||_1)"
_X = "X = exp(log sigma + Phi^dag log Phi(rho) - Phi^dag log Phi(sigma))"
_DPI = "S(rho||sigma) - S(Phi(rho)||Phi(sigma))"

TABLE = (
    Inequality("ssa-cmi-nonnegative", "cmi >= 0 (strong subadditivity)",
               True, ALWAYS, STATE, lambda a, _: a.cmi),
    Inequality("trace-exp-at-most-one",
               "Tr sigma* <= 1, sigma* = exp(log rho_AB - log rho_B + log rho_BC) "
               "(Lieb's three-matrix inequality)",
               True, ALWAYS, STATE, lambda a, _: 1.0 - a.sigma_star_trace),
    Inequality("thm1-below-corollary-gap",
               "thm1 = ||sqrt(rho) - sqrt(sigma*)||_2^2 >= ||rho - sigma*||_1^2 / 4 "
               "(Powers-Stormer)",
               True, ALWAYS, STATE, lambda a, _: a.thm1 - a.corollary_bound),
    Inequality("log-overlap-below-cmi",
               "cmi >= -2 log Tr[sqrt(rho) sqrt(sigma*)] (slack -inf at zero overlap)",
               True, ALWAYS, STATE, lambda a, _: a.cmi - a.log_overlap_bound),
    Inequality("thm1-below-log-overlap", "-2 log Tr[sqrt(rho) sqrt(sigma*)] >= thm1",
               True, ALWAYS, STATE, lambda a, _: a.log_overlap_bound - a.thm1),
    Inequality("powers-stormer-upper", "||rho - sigma*||_1 >= thm1 (Powers-Stormer)",
               True, ALWAYS, STATE, lambda a, _: a.trace_distance - a.thm1),
    Inequality("classical-recovery-pinsker", f"cmi >= {_M_GAPS}^2 / 2 on classical states",
               True, ("classical-random",), STATE, half_recovery_slack),
    Inequality("markov-cmi-zero", "cmi <= 0, so cmi = 0, on Markov states",
               True, ("markov",), STATE, lambda a, _: -a.cmi),
    Inequality("half-recovery", f"cmi >= {_M_GAPS}^2 / 2",
               False, ("classical-random", "markov"), STATE, half_recovery_slack),
    Inequality("commutator-eighth", "cmi >= ||[M, M^dag]||_1^2 / 8",
               False, ("classical-random", "markov"), STATE, commutator_slack),
    Inequality("rotated-quarter", "cmi >= ||rho - exp(U log rho_AB U^dag + V log rho_BC V^dag "
               "- W log rho_B W^dag)||_1^2 / 4 on full-rank states, least over sampled Haar "
               "(U, V, W) and identity",
               False, NEVER, STATE, _rotated_quarter),
    Inequality("channel-dpi-nonnegative", f"{_DPI} >= 0 (data processing)",
               True, ALWAYS, CHANNEL, lambda a, _: a.lhs),
    Inequality("channel-gap-bound", f"{_DPI} >= -2 log Tr[sqrt(rho) sqrt(X)], {_X}",
               True, ALWAYS, CHANNEL, lambda a, _: a.lhs - a.rhs),
    Inequality("channel-traceexp", "Tr X <= 1, X as in channel-gap-bound",
               False, NEVER, CHANNEL, lambda a, _: 1.0 - a.trace_exp),
    Inequality("channel-petz-pinsker", f"{_DPI} >= ||rho - P(Phi(rho))||_1^2 / 4, P the Petz map",
               False, NEVER, CHANNEL, lambda a, _: a.lhs - 0.25 * a.petz_gap * a.petz_gap),
)

INEQUALITIES = {row.name: row for row in TABLE}


@functools.cache
def _proven_rows(corpus: str | None, applies: str) -> tuple[Inequality, ...]:
    return tuple(
        row for row in TABLE if row.proven and row.applies == applies and row.asserted_on(corpus)
    )


def proven_checks(a, corpus: str | None, applies: str = STATE) -> list[tuple[str, float]]:
    """(name, slack) of each proven row for `applies` (STATE or CHANNEL)
    asserted on `corpus`, on the analysis `a`. A corpus of None (a single
    state or triple) selects the rows asserted always."""
    return [(row.name, row.slack(a, None)) for row in _proven_rows(corpus, applies)]
