"""Randomized scans over state corpora and conjecture stress tests.

Every proven inequality that a run evaluates is asserted at the
configured tolerance. A violation writes the offending state (or channel
triple) to disk as a diagnostic artifact and raises
InequalityViolationError, which the command line maps to exit code 2.
Conjectured bounds are never asserted on open corpora; their slacks are
recorded, and they are only required to hold on corpora where they are
theorems (classical and Markov states). Which inequality is which, and
where each is asserted, is the table in qcmi.inequalities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .analysis import ChannelAnalysis, analyse_together
from .bounds import bound_report
from .channels import random_channel
from .errors import ConfigError, InequalityViolationError
from .inequalities import CHANNEL, INEQUALITIES, TABLE, proven_checks
from .recovery import classify
from .sampling import (
    near_markov_state,
    random_classical_state,
    random_density,
    random_markov_state,
    random_tripartite,
    substream,
)
from .states import TripartiteState, _integer, _tripartite_dims
from .stateio import _write_text, to_text, write_json, write_state
from .tolerances import DEFAULT_TOL, _require_tol

CORPORA = ("hs-random", "classical-random", "markov", "near-markov")
CONJECTURES = ("half-recovery", "commutator-eighth", "rotated-quarter", "channel")

# Scan analyses consecutive samples together in stacks of up to
# STACK_BUDGET // n**2 states of dimension n, so that one stacked operand
# holds at most this many complex entries (256 KiB), or one matrix if that
# is larger. 2,2,2 stacks 256 samples, 3,3,3 stacks 22 and 4,4,4 stacks 4;
# from n = 91 on, 5,5,5 among them, each sample is a stack of its own.
# A stack keeps five such operands and peaks at about eight while its rows
# are computed (traced at 5,5,5), so the budget also bounds the memory a
# scan adds. Measured when a stack kept about a dozen, on an Intel Xeon with
# one BLAS thread: scans of 200 samples at 2,2,2, 44 at 3,3,3 and 16 at
# 4,4,4 peaked 4.2-4.6 MiB higher than with one sample at a time, and ran
# 3.2-6.9x, 1.8-2.2x and 1.0-1.3x as fast. Half the budget halved that
# memory, but ran 3,3,3 about 9% slower and 4,4,5 (n = 80) one sample at a
# time, which was 4% slower.
STACK_BUDGET = 2**14

# Mixing weights cycled through by the near-markov corpus.
NEAR_MARKOV_MIXES = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class ScanConfig:
    """Shared configuration for scans and conjecture runs."""

    dims: tuple[int, int, int]
    samples: int
    seed: int = 0
    corpus: str = "hs-random"
    tol: float = DEFAULT_TOL
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        object.__setattr__(self, "dims", _tripartite_dims(self.dims, ConfigError))
        object.__setattr__(self, "samples", _integer(self.samples, "samples", 1, ConfigError))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, ConfigError))
        if self.corpus not in CORPORA:
            raise ConfigError(f"unknown corpus {self.corpus!r}, expected one of {CORPORA}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        object.__setattr__(self, "tol", _require_tol(self.tol))

    def as_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "samples": self.samples,
            "seed": self.seed,
            "corpus": self.corpus,
            "tol": self.tol,
            "format": self.fmt,
        }


@dataclass(frozen=True)
class ScanRow:
    """One evaluated sample; field order matches the CSV columns."""

    sample_index: int
    dA: int
    dB: int
    dC: int
    cmi: float
    sigma_star_trace: float
    log_overlap_bound: float
    thm1_bound: float
    corollary_bound: float
    slack_thm1: float
    slack_corollary: float
    recovery_gap_M: float
    recovery_gap_Mprime: float
    commutator_trace_norm: float
    ruskai_residual: float
    label: str
    support_restricted: bool


# The CSV columns: every ScanRow field but support_restricted, which only
# JSON rows carry.
CSV_COLUMNS = tuple(f.name for f in fields(ScanRow))[:-1]


@dataclass(frozen=True)
class ConjectureResult:
    """Summary of one conjecture over a corpus."""

    conjecture_id: str
    samples: int
    min_slack: float
    argmin_sample: int
    violations: int
    argmin_path: str | None


@dataclass(frozen=True)
class ChannelGapSummary:
    """Summary of a channel data-processing-gap scan."""

    samples: int
    dim: int
    kraus: int
    min_gap_slack: float
    min_lhs: float
    violations: int


def corpus_state(cfg: ScanConfig, index: int) -> TripartiteState:
    """Deterministically draw sample `index` of the configured corpus.

    The sample is the state the corpus' public sampler (random_tripartite,
    random_classical_state, random_markov_state or near_markov_state)
    draws from substream(seed, index). Its matrix is a density matrix by
    construction and is validated once, by the state's analysis.
    """
    rng = substream(cfg.seed, index)
    dims = cfg.dims
    if cfg.corpus == "hs-random":
        return random_tripartite(dims, rng)
    if cfg.corpus == "classical-random":
        return random_classical_state(dims, rng)
    if cfg.corpus == "markov":
        return random_markov_state(dims, rng)
    return near_markov_state(dims, rng, NEAR_MARKOV_MIXES[index % len(NEAR_MARKOV_MIXES)])


def evaluate_sample(state: TripartiteState, index: int, tol: float = DEFAULT_TOL) -> ScanRow:
    """The per-sample record of bound and recovery diagnostics, labelled at tol."""
    rep = bound_report(state)
    a = state.analysis
    return ScanRow(
        index,
        *state.dims,
        **vars(rep),
        recovery_gap_M=a.gap_m,
        recovery_gap_Mprime=a.gap_mprime,
        commutator_trace_norm=a.commutator_norm,
        ruskai_residual=a.ruskai,
        label=classify(state, tol).label,
    )


def _artifact_path(out: str | None, suffix: str) -> str:
    base = out if out is not None else "qcmi-run"
    return f"{base}.{suffix}.json"


def _write_channel(a: ChannelAnalysis, path: str) -> None:
    triple = {"dim": a.rho.dim, "rho": a.rho.mat, "sigma": a.sigma.mat, "kraus": a.phi.kraus}
    write_json(path, triple)


def _abort(witness, cfg: ScanConfig, name: str, index: int, slack: float, write=write_state):
    # Writes the witness, a state or (write=_write_channel) a channel
    # triple's analysis, and raises. The channel message names no tolerance.
    # A witness that cannot be written is reported in the violation's
    # message, which then has no artifact.
    if write is write_state:
        what, below = "state", f" is below -{cfg.tol:.1e}"
    else:
        what, below = "channel", ""
    message = f"proven inequality {name!r} violated at sample {index}: slack {slack:.6e}{below}"
    path = _artifact_path(cfg.out, f"violation-{what}")
    try:
        write(witness, path)
    except ConfigError as exc:
        raise InequalityViolationError(f"{message}; {what} not written: {exc}") from exc
    raise InequalityViolationError(f"{message}; {what} written to {path}", artifact_path=path)


def _assert(witness, cfg: ScanConfig, index: int, checks, write=write_state) -> None:
    for name, slack in checks:
        if not slack >= -cfg.tol:
            _abort(witness, cfg, name, index, slack, write)


def _one_by_one(cfg: ScanConfig, indices: range, drawn: list[TripartiteState], evaluate):
    for k, i in enumerate(indices):
        if k < len(drawn):
            state = drawn[k]
            analyse_together([state])  # a stack of its own, not the failed one
        else:
            state = corpus_state(cfg, i)
        yield state, evaluate(state, i)


def _evaluated(cfg: ScanConfig, indices: range, evaluate):
    # (state, evaluate(state, i)) for samples `indices`, drawn one substream
    # each and evaluated from one stacked analysis. If that raises, the
    # samples are evaluated again one at a time, each after the checks of
    # the one before, so the error surfaces at the same sample as without
    # stacking. States already drawn are reused; the draw that raised is
    # repeated in its turn.
    states = []
    try:
        for i in indices:
            states.append(corpus_state(cfg, i))
        analyse_together(states)
        return zip(states, [evaluate(state, i) for state, i in zip(states, indices)])
    except Exception:
        return _one_by_one(cfg, indices, states, evaluate)


def _checked(cfg: ScanConfig, evaluate, checks) -> list:
    # evaluate(state, i) of every sample, in index order, each after its
    # checks(state, value) hold. Consecutive samples are analysed together
    # in groups (see STACK_BUDGET); each value is bitwise that of its sample
    # analysed alone.
    n = cfg.dims[0] * cfg.dims[1] * cfg.dims[2]
    size = max(1, STACK_BUDGET // (n * n))
    values = []
    for start in range(0, cfg.samples, size):
        indices = range(start, min(start + size, cfg.samples))
        for i, (state, value) in zip(indices, _evaluated(cfg, indices, evaluate)):
            _assert(state, cfg, i, checks(state, value))
            values.append(value)
        # Release the group's states and their stacked analysis before the
        # next group is drawn.
        del state
    return values


def scan(cfg: ScanConfig) -> list[ScanRow]:
    """Evaluate the corpus, assert proven inequalities, write the report.

    Consecutive samples are analysed together (see STACK_BUDGET); each row
    is bitwise the row of its sample analysed alone. Rows are labelled at
    the run's tol.
    """
    rows = _checked(
        cfg,
        lambda state, i: evaluate_sample(state, i, cfg.tol),
        lambda state, _: proven_checks(state.analysis, cfg.corpus),
    )
    if cfg.out is not None:
        write_scan_report(cfg, rows)
    return rows


def write_scan_report(cfg: ScanConfig, rows: list[ScanRow]) -> None:
    if cfg.fmt == "csv":
        lines = [CSV_COLUMNS, *([getattr(row, c) for c in CSV_COLUMNS] for row in rows)]
        _write_text(cfg.out, "".join(to_text(line) + "\n" for line in lines))
    else:
        write_json(cfg.out, {"config": cfg.as_dict(), "rows": [asdict(row) for row in rows]})


def _result(cfg: ScanConfig, conjecture_id: str, slacks: list[float], write) -> ConjectureResult:
    # The minimum slack and the first sample that attains it. When the
    # minimum comes within tol of a violation, write(index, path) writes
    # that sample as the argmin artifact.
    index, least = 0, math.inf
    for i, slack in enumerate(slacks):
        if slack < least:
            index, least = i, slack
    argmin_path = None
    if cfg.out is not None and least < cfg.tol:
        argmin_path = _artifact_path(cfg.out, f"argmin-{conjecture_id}")
        write(index, argmin_path)
    return ConjectureResult(
        conjecture_id=conjecture_id,
        samples=cfg.samples,
        min_slack=least,
        argmin_sample=index,
        violations=sum(slack < -cfg.tol for slack in slacks),
        argmin_path=argmin_path,
    )


def _state_conjecture(cfg: ScanConfig, which: str, unitary_samples: int) -> list[ConjectureResult]:
    row = INEQUALITIES[which]
    name = f"{which} (proven on {cfg.corpus})"
    slacks = _checked(
        cfg,
        lambda state, i: row.slack(state.analysis, (cfg.seed, i, unitary_samples)),
        lambda state, slack: [(name, slack)] if row.asserted_on(cfg.corpus) else [],
    )
    # The argmin witness is drawn again rather than kept from its group.
    return [_result(cfg, which, slacks, lambda i, path: write_state(corpus_state(cfg, i), path))]


def _channel(cfg: ScanConfig, kraus: int | None, index: int) -> ChannelAnalysis:
    # Channel triple `index` of dimension prod(cfg.dims), from substream(seed,
    # index): a Kraus count in 1-4 unless kraus is given, then rho and sigma
    # (random_density) and the channel.
    dim = cfg.dims[0] * cfg.dims[1] * cfg.dims[2]
    rng = substream(cfg.seed, index)
    count = 1 + int(rng.integers(4)) if kraus is None else kraus
    rho = random_density(dim, rng)
    sigma = random_density(dim, rng)
    return ChannelAnalysis(rho, sigma, random_channel(dim, dim, count, rng))


def _checked_channels(cfg: ScanConfig, kraus: int | None):
    # The analysis of each channel triple and its proven rows' slacks by
    # name, after they hold; a failing row writes the triple to disk and
    # raises.
    for i in range(cfg.samples):
        a = _channel(cfg, kraus, i)
        checks = proven_checks(a, cfg.corpus, CHANNEL)
        _assert(a, cfg, i, checks, _write_channel)
        yield a, dict(checks)


def _channel_conjecture(cfg: ScanConfig) -> list[ConjectureResult]:
    rows = [row for row in TABLE if row.applies == CHANNEL and not row.proven]
    per_sample = [[row.slack(a, None) for row in rows] for a, _ in _checked_channels(cfg, None)]

    def write(index, path):
        _write_channel(_channel(cfg, None, index), path)

    return [_result(cfg, row.name, slacks, write) for row, slacks in zip(rows, zip(*per_sample))]


def run_conjecture(cfg: ScanConfig, which: str, unitary_samples: int = 10) -> list[ConjectureResult]:
    """Run one conjecture over the configured corpus and write its report."""
    if which not in CONJECTURES:
        raise ConfigError(f"unknown conjecture {which!r}, expected one of {CONJECTURES}")
    if which == "channel" and cfg.corpus != "hs-random":  # _channel draws with random_density
        raise ConfigError(f"channel runs take only corpus 'hs-random', got {cfg.corpus!r}")
    unitary_samples = _integer(unitary_samples, "unitary_samples", 0, ConfigError)
    if which == "channel":
        results = _channel_conjecture(cfg)
    else:
        results = _state_conjecture(cfg, which, unitary_samples)
    if cfg.out is not None:
        report = {"which": which, "config": cfg.as_dict(), "results": [asdict(r) for r in results]}
        write_json(cfg.out, report)
    return results


def channel_gap_scan(
    dim: int,
    kraus: int,
    samples: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    out: str | None = None,
) -> ChannelGapSummary:
    """Check the channel gap bound on random (rho, sigma, channel) triples."""
    dim, kraus = _integer(dim, "dim", 1, ConfigError), _integer(kraus, "kraus", 1, ConfigError)
    # A channel run of dimension dim is configured as dims (dim, 1, 1).
    cfg = ScanConfig(dims=(dim, 1, 1), samples=samples, seed=seed, tol=tol, out=out)
    slacks = [s for _, s in _checked_channels(cfg, kraus)]
    # A violation raises, so a summary always reports 0 violations; the
    # field keeps the summary's and the command line's format.
    return ChannelGapSummary(
        samples=cfg.samples,
        dim=dim,
        kraus=kraus,
        min_gap_slack=min(s["channel-gap-bound"] for s in slacks),
        min_lhs=min(s["channel-dpi-nonnegative"] for s in slacks),
        violations=0,
    )
