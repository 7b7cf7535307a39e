"""Randomized scans over state corpora and conjecture stress tests.

Every proven inequality that a run evaluates is asserted at the
configured tolerance. A violation writes the offending state (or channel
triple) to disk as a diagnostic artifact and raises
InequalityViolationError, which the command line maps to exit code 2.
Conjectured bounds are never asserted on open corpora; their slacks are
recorded, and they are only required to hold on corpora where they are
theorems (classical and Markov states). The channel conjecture is the one
run over channel triples: it asserts the proven channel rows on every
triple and records the two conjectured ones. Which inequality is which,
and where each is asserted, is the table in qcmi.inequalities. Its TABLE
defines the conjectures: the unproven state rows, and "channel" for the
unproven channel rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import ChannelAnalysis, StackAnalysis, _analysed
from .channels import random_channel
from .errors import ConfigError, InequalityViolationError
from .inequalities import CHANNEL, INEQUALITIES, STATE, TABLE, proven_checks
from .recovery import _label
from .sampling import CORPORA as _SAMPLERS, random_density, substream
from .states import TripartiteState, _integer, _state, _tripartite_dims
from .stateio import _require_path, _write_text, to_text, write_json, write_state
from .tolerances import DEFAULT_TOL, _require_tol

CORPORA = tuple(_SAMPLERS)
CONJECTURES = tuple(r.name for r in TABLE if r.applies == STATE and not r.proven) + ("channel",)

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

    def __post_init__(self):
        object.__setattr__(self, "dims", _tripartite_dims(self.dims, ConfigError))
        object.__setattr__(self, "samples", _integer(self.samples, "samples", 1, ConfigError))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, ConfigError))
        if self.corpus not in CORPORA:
            raise ConfigError(f"unknown corpus {self.corpus!r}, expected one of {CORPORA}")
        object.__setattr__(self, "tol", _require_tol(self.tol))
        if self.out is not None:  # checked before any sample is drawn
            _require_path(self.out, ConfigError, "write")

    def as_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "samples": self.samples,
            "seed": self.seed,
            "corpus": self.corpus,
            "tol": self.tol,
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


def _draw(cfg: ScanConfig, index: int):
    # Sample `index`'s draw: the generator calls of the corpus' public
    # sampler on substream(seed, index), which _matrices builds.
    draw, _ = _SAMPLERS[cfg.corpus]
    rng = substream(cfg.seed, index)
    if cfg.corpus == "near-markov":
        return draw(cfg.dims, rng, NEAR_MARKOV_MIXES[index % len(NEAR_MARKOV_MIXES)])
    return draw(cfg.dims, rng)


def _matrices(cfg: ScanConfig, draws: list) -> np.ndarray:
    # The matrices of the samples drawn as draws, built as one group.
    _, build = _SAMPLERS[cfg.corpus]
    return build(cfg.dims, draws)


def corpus_state(cfg: ScanConfig, index: int) -> TripartiteState:
    """Deterministically draw sample `index` of the configured corpus.

    The sample is the state the corpus' public sampler (random_tripartite,
    random_classical_state, random_markov_state or near_markov_state)
    draws from substream(seed, index), and bitwise the state that sample
    is in a scan's group. Its matrix is a density matrix by construction
    and is validated once, by the state's analysis.
    """
    return _state(_matrices(cfg, [_draw(cfg, index)])[0], cfg.dims)


def evaluate_sample(state: TripartiteState, index: int, tol: float = DEFAULT_TOL) -> ScanRow:
    """The per-sample record of bound and recovery diagnostics, labelled at tol.

    Every value is read from the state's analysis; the slacks are cmi minus
    each theorem's bound. It is the row a scan makes of the sample.
    """
    a = state.analysis
    return _scan_rows(a.stack, [a.index], [index], _require_tol(tol))[0]


def _scan_rows(stack: StackAnalysis, positions, indices, tol: float) -> list[ScanRow]:
    # The rows of the stack's states `positions`, as samples `indices`,
    # read from the stack's columns and labelled by classify's rule.
    cmi, trace, log_overlap, thm1, corollary, gap, gap_prime, comm, ruskai, restricted = (
        getattr(stack, name)
        for name in (
            "cmi", "sigma_star_trace", "log_overlap_bound", "thm1", "corollary_bound", "gap_m",
            "gap_mprime", "commutator_norm", "ruskai", "support_restricted",
        )
    )
    dims = stack.dims
    return [
        ScanRow(
            index,
            *dims,
            cmi=cmi[k],
            sigma_star_trace=trace[k],
            log_overlap_bound=log_overlap[k],
            thm1_bound=thm1[k],
            corollary_bound=corollary[k],
            slack_thm1=cmi[k] - thm1[k],
            slack_corollary=cmi[k] - corollary[k],
            recovery_gap_M=gap[k],
            recovery_gap_Mprime=gap_prime[k],
            commutator_trace_norm=comm[k],
            ruskai_residual=ruskai[k],
            label=_label(comm[k], gap[k], tol),
            support_restricted=restricted[k],
        )
        for k, index in zip(positions, indices)
    ]


def _artifact_path(out: str | None, suffix: str) -> str:
    # Named after the report, whether out is a str, bytes or path object.
    base = os.fsdecode(out) if out is not None else "qcmi-run"
    return f"{base}.{suffix}.json"


def _write_channel(a: ChannelAnalysis, path: str) -> None:
    triple = {"dim": a.rho.dim, "rho": a.rho.mat, "sigma": a.sigma.mat, "kraus": a.phi.kraus}
    write_json(path, triple)


def _abort(witness, cfg: ScanConfig, name: str, index: int, slack: float, write=write_state):
    # Writes the witness, a state or (write=_write_channel) a channel
    # triple's analysis, and raises. A witness that cannot be written is
    # reported in the violation's message, which then has no artifact.
    what = "state" if write is write_state else "channel"
    below = f"slack {slack:.6e} is below -{cfg.tol:.1e}"
    message = f"proven inequality {name!r} violated at sample {index}: {below}"
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


def _one_by_one(cfg: ScanConfig, indices: range, evaluate):
    for i in indices:
        # A stack of its own, not the failed one.
        state = corpus_state(cfg, i)
        (value,) = evaluate([state], range(i, i + 1))
        yield state, value


def _evaluated(cfg: ScanConfig, indices: range, evaluate):
    # (state, value) for samples `indices`, drawn in index order one
    # substream each, built as one group and analysed as one stack, whose
    # values evaluate(states, indices) gives in one pass. If that raises,
    # the samples are drawn and evaluated again one at a time, each built
    # and analysed alone and after the checks of the one before, so the
    # error surfaces at the same sample as without stacking; a draw is a
    # function of (seed, index), and built alone a sample is bitwise its
    # state in the group. The group's draws are freed once it is built,
    # before its analysis (at 5,5,5 a draw is as large as its matrix).
    try:
        states = _analysed(_matrices(cfg, [_draw(cfg, i) for i in indices]), cfg.dims)
        return zip(states, evaluate(states, indices))
    except Exception:
        return _one_by_one(cfg, indices, evaluate)


def _checked(cfg: ScanConfig, evaluate, checks) -> list:
    # The value of every sample, in index order, each after its
    # checks(state, value) hold. Consecutive samples are analysed together
    # in groups (see STACK_BUDGET), and evaluate(states, indices) gives the
    # values of a group's states, which share one analysis; each value is
    # bitwise that of its sample analysed alone.
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


def _require_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")


def scan(cfg: ScanConfig, fmt: str = "csv") -> list[ScanRow]:
    """Evaluate the corpus, assert proven inequalities, write the report.

    Consecutive samples are analysed together (see STACK_BUDGET), and a
    stack's rows are read from its columns in one pass; each row is
    bitwise the row of its sample analysed alone. Rows are labelled at
    the run's tol. fmt, "csv" or "json", is checked before any draw.
    """
    _require_format(fmt)

    def evaluate(states, indices):
        stack = states[0].analysis.stack
        return _scan_rows(stack, range(len(stack)), indices, cfg.tol)

    rows = _checked(cfg, evaluate, lambda state, _: proven_checks(state.analysis, cfg.corpus))
    if cfg.out is not None:
        write_scan_report(cfg, rows, fmt)
    return rows


def write_scan_report(cfg: ScanConfig, rows: list[ScanRow], fmt: str) -> None:
    """Write rows to cfg.out as CSV, or as JSON with the config and fmt."""
    _require_format(fmt)
    if fmt == "csv":
        lines = [CSV_COLUMNS, *([getattr(row, c) for c in CSV_COLUMNS] for row in rows)]
        _write_text(cfg.out, "".join(to_text(line) + "\n" for line in lines))
    else:
        config = {**cfg.as_dict(), "format": fmt}
        write_json(cfg.out, {"config": config, "rows": [asdict(row) for row in rows]})


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
        lambda states, indices: [
            row.slack(state.analysis, (cfg.seed, i, unitary_samples))
            for state, i in zip(states, indices)
        ],
        lambda state, slack: [(name, slack)] if row.asserted_on(cfg.corpus) else [],
    )
    # The argmin witness is drawn again rather than kept from its group.
    return [_result(cfg, which, slacks, lambda i, path: write_state(corpus_state(cfg, i), path))]


def _channel(cfg: ScanConfig, index: int) -> ChannelAnalysis:
    # Channel triple `index` of dimension prod(cfg.dims), from substream(seed,
    # index): a Kraus count in 1-4, then rho and sigma (random_density) and
    # the channel.
    dim = cfg.dims[0] * cfg.dims[1] * cfg.dims[2]
    rng = substream(cfg.seed, index)
    count = 1 + int(rng.integers(4))
    rho = random_density(dim, rng)
    sigma = random_density(dim, rng)
    return ChannelAnalysis(rho, sigma, random_channel(dim, dim, count, rng))


def _checked_channels(cfg: ScanConfig):
    # The analysis of each channel triple, after its proven rows hold; a
    # failing row writes the triple to disk and raises.
    for i in range(cfg.samples):
        a = _channel(cfg, i)
        _assert(a, cfg, i, proven_checks(a, cfg.corpus, CHANNEL), _write_channel)
        yield a


def _channel_conjecture(cfg: ScanConfig) -> list[ConjectureResult]:
    rows = [row for row in TABLE if row.applies == CHANNEL and not row.proven]
    per_sample = [[row.slack(a, None) for row in rows] for a in _checked_channels(cfg)]

    def write(index, path):
        _write_channel(_channel(cfg, index), path)

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
        config = cfg.as_dict()
        if which == "rotated-quarter":  # the one conjecture that draws unitaries
            config["unitary_samples"] = unitary_samples
        report = {"which": which, "config": config, "results": [asdict(r) for r in results]}
        write_json(cfg.out, report)
    return results

