"""Randomized scans over state corpora and conjecture stress tests.

Every proven inequality that a run evaluates is asserted at the
configured tolerance. A violation writes the offending state (or channel
triple) to disk as a diagnostic artifact and raises
InequalityViolationError, which the command line maps to exit code 2.
Conjectured bounds are never asserted on open corpora; their slacks are
recorded, and they are only required to hold on corpora where they are
theorems (classical and Markov states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ChannelAnalysis, analyse_together
from .bounds import BoundReport, bound_report
from .channels import random_channel
from .errors import ConfigError, InequalityViolationError, SingularMatrixError
from .linalg import dagger, hermitian_part, mat_exp, trace_norm
from .recovery import classify
from .sampling import (
    _haar_unitaries,
    _hs_matrix,
    _markov_state_matrix,
    _near_markov_matrix,
    random_classical,
    substream,
)
from .states import TripartiteState, _classical_matrix, _DrawnState
from .stateio import _matrix_text, _write_text, fmt17, write_state

CSV_COLUMNS = (
    "sample_index",
    "dA",
    "dB",
    "dC",
    "cmi",
    "sigma_star_trace",
    "log_overlap_bound",
    "thm1_bound",
    "corollary_bound",
    "slack_thm1",
    "slack_corollary",
    "recovery_gap_M",
    "recovery_gap_Mprime",
    "commutator_trace_norm",
    "ruskai_residual",
    "label",
)

CORPORA = ("hs-random", "classical-random", "markov", "near-markov")
CONJECTURES = ("half-recovery", "commutator-eighth", "rotated-quarter", "channel")

# Scan analyses consecutive samples together in stacks of up to
# STACK_BUDGET // n**2 states of dimension n, so that one stacked operand
# holds at most this many complex entries (256 KiB), or one matrix if that
# is larger. 2,2,2 stacks 256 samples, 3,3,3 stacks 22 and 4,4,4 stacks 4;
# from n = 91 on, 5,5,5 among them, each sample is a stack of its own.
# A stack holds about a dozen such operands, so the budget also bounds the
# memory a scan adds. On an Intel Xeon with one BLAS thread, scans of 200
# samples at 2,2,2, 44 at 3,3,3 and 16 at 4,4,4 peaked 4.2-4.6 MiB higher
# than with one sample at a time, and ran 3.2-6.9x, 1.8-2.2x and 1.0-1.3x
# as fast. Half the budget halved that memory, but ran 3,3,3 about 9%
# slower and 4,4,5 (n = 80) one sample at a time, which was 4% slower.
STACK_BUDGET = 2**14

# Mixing weights cycled through by the near-markov corpus.
NEAR_MARKOV_MIXES = (1e-1, 1e-2, 1e-3, 1e-4)

# Corpora on which each conjectured bound is actually a theorem and is
# therefore asserted rather than just recorded.
_PROVEN_CORPORA = {
    "half-recovery": ("classical-random", "markov"),
    "commutator-eighth": ("classical-random", "markov"),
    "rotated-quarter": (),
}


@dataclass(frozen=True)
class ScanConfig:
    """Shared configuration for scans and conjecture runs."""

    dims: tuple[int, int, int]
    samples: int
    seed: int = 0
    corpus: str = "hs-random"
    tol: float = 1e-8
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ConfigError(f"dims must be three positive integers, got {dims}")
        if int(self.samples) < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        object.__setattr__(self, "samples", int(self.samples))
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.corpus not in CORPORA:
            raise ConfigError(f"unknown corpus {self.corpus!r}, expected one of {CORPORA}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")

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
    """Deterministically build sample `index` of the configured corpus.

    The matrix is bitwise the one the corpus' public sampler returns
    (random_tripartite, random_classical_state, random_markov_state or
    near_markov_state), which is a density matrix by construction. It is
    validated once, by the state's analysis, rather than on construction.
    """
    rng = substream(cfg.seed, index)
    dims = cfg.dims
    if cfg.corpus == "hs-random":
        m = _hs_matrix(dims[0] * dims[1] * dims[2], rng)
    elif cfg.corpus == "classical-random":
        m = _classical_matrix(random_classical(dims, rng))
    elif cfg.corpus == "markov":
        m = _markov_state_matrix(dims, rng)
    else:
        m = _near_markov_matrix(dims, rng, NEAR_MARKOV_MIXES[index % len(NEAR_MARKOV_MIXES)])
    return _DrawnState(m, dims)


def _proven_checks(
    state: TripartiteState, row: ScanRow | BoundReport, corpus: str | None
) -> list[tuple[str, float]]:
    # Each entry is (name, slack); slack >= -tol must hold or the run
    # aborts. row carries the bound chain (a ScanRow, or a BoundReport
    # for a single state); the remaining terms come from the state's
    # analysis. The Powers-Stormer sandwich of rho and sigma* is
    # (corollary, thm1, ||rho - sigma*||_1).
    checks = [
        ("ssa-cmi-nonnegative", row.cmi),
        ("trace-exp-at-most-one", 1.0 - row.sigma_star_trace),
        ("thm1-below-corollary-gap", row.thm1_bound - row.corollary_bound),
    ]
    if math.isinf(row.log_overlap_bound):
        checks.append(("log-overlap-below-cmi", -math.inf))
    else:
        checks.append(("log-overlap-below-cmi", row.cmi - row.log_overlap_bound))
        checks.append(("thm1-below-log-overlap", row.log_overlap_bound - row.thm1_bound))
    a = state.analysis
    checks.append(("powers-stormer-upper", a.trace_distance - row.thm1_bound))
    checks.append(("powers-stormer-lower", row.thm1_bound - row.corollary_bound))
    # The Lieb value is evaluated at the dimension of B and equals Tr rho_B = 1
    # in exact arithmetic, so this check repeats trace-exp-at-most-one; both
    # stay asserted.
    if state.rho.is_full_rank():
        checks.append(("lieb-triple-vs-trace-exp", a.lieb_rhs - row.sigma_star_trace))
    if corpus == "classical-random":
        gap = max(row.recovery_gap_M, row.recovery_gap_Mprime)
        checks.append(("classical-recovery-pinsker", row.cmi - 0.5 * gap * gap))
    if corpus == "markov":
        checks.append(("markov-cmi-zero", -row.cmi))
    return checks


def evaluate_sample(state: TripartiteState, index: int) -> ScanRow:
    """Compute the full per-sample record of bound and recovery diagnostics."""
    rep = bound_report(state)
    a = state.analysis
    return ScanRow(
        sample_index=index,
        dA=state.dims[0],
        dB=state.dims[1],
        dC=state.dims[2],
        cmi=rep.cmi,
        sigma_star_trace=rep.sigma_star_trace,
        log_overlap_bound=rep.log_overlap_bound,
        thm1_bound=rep.thm1_bound,
        corollary_bound=rep.corollary_bound,
        slack_thm1=rep.slack_thm1,
        slack_corollary=rep.slack_corollary,
        recovery_gap_M=a.gap_m,
        recovery_gap_Mprime=a.gap_mprime,
        commutator_trace_norm=a.commutator_norm,
        ruskai_residual=a.ruskai,
        label=classify(state).label,
        support_restricted=rep.support_restricted,
    )


def _artifact_path(out: str | None, suffix: str) -> str:
    base = out if out is not None else "qcmi-run"
    return f"{base}.{suffix}.json"


def _abort(state: TripartiteState, cfg: ScanConfig, name: str, index: int, slack: float):
    path = _artifact_path(cfg.out, "violation-state")
    write_state(state, path)
    raise InequalityViolationError(
        f"proven inequality {name!r} violated at sample {index}: "
        f"slack {slack:.6e} is below -{cfg.tol:.1e}; state written to {path}",
        artifact_path=path,
    )


def _one_by_one(cfg: ScanConfig, indices: range, drawn: list[TripartiteState]):
    for k, i in enumerate(indices):
        if k < len(drawn):
            state = drawn[k]
            vars(state).pop("analysis", None)  # its row of the failed stack
        else:
            state = corpus_state(cfg, i)
        yield state, evaluate_sample(state, i)


def _evaluated(cfg: ScanConfig, indices: range):
    # (state, row) for samples `indices`, drawn one substream each and
    # evaluated from one stacked analysis. If that raises, the samples are
    # evaluated again one at a time, each after the checks of the one
    # before, so the error surfaces at the same sample as without stacking.
    # States already drawn are reused; the draw that raised is repeated in
    # its turn.
    states = []
    try:
        for i in indices:
            states.append(corpus_state(cfg, i))
        analyse_together(states)
        return zip(states, [evaluate_sample(state, i) for state, i in zip(states, indices)])
    except Exception:
        return _one_by_one(cfg, indices, states)


def _checked_rows(cfg: ScanConfig, indices: range) -> list[ScanRow]:
    # The rows of one group, checked in index order. The group's states and
    # their stacked analysis are released on return, before the next group
    # is drawn.
    rows = []
    for i, (state, row) in zip(indices, _evaluated(cfg, indices)):
        for name, slack in _proven_checks(state, row, cfg.corpus):
            if not slack >= -cfg.tol:
                _abort(state, cfg, name, i, slack)
        rows.append(row)
    return rows


def scan(cfg: ScanConfig) -> list[ScanRow]:
    """Evaluate the corpus, assert proven inequalities, write the report.

    Consecutive samples are analysed together (see STACK_BUDGET); each row
    is bitwise the row of its sample analysed alone.
    """
    n = cfg.dims[0] * cfg.dims[1] * cfg.dims[2]
    size = max(1, STACK_BUDGET // (n * n))
    rows = []
    for start in range(0, cfg.samples, size):
        rows += _checked_rows(cfg, range(start, min(start + size, cfg.samples)))
    if cfg.out is not None:
        write_scan_report(cfg, rows)
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def write_scan_report(cfg: ScanConfig, rows: list[ScanRow]) -> None:
    if cfg.fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(_csv_cell(getattr(row, c)) for c in CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
    else:
        body = []
        for row in rows:
            fields = [f'"{c}":{_json_value(getattr(row, c))}' for c in CSV_COLUMNS]
            fields.append(f'"support_restricted":{_json_value(row.support_restricted)}')
            body.append("{" + ",".join(fields) + "}")
        text = (
            '{"config":' + _json_config(cfg) + ',"rows":[' + ",".join(body) + "]}\n"
        )
    _write_text(cfg.out, text)


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if math.isnan(value):  # pragma: no cover - no NaN should ever be produced
            return '"nan"'
        return fmt17(value)
    if value is None:
        return "null"
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json_config(cfg: ScanConfig) -> str:
    d = cfg.as_dict()
    fields = [
        f'"dims":[{",".join(str(x) for x in d["dims"])}]',
        f'"samples":{d["samples"]}',
        f'"seed":{d["seed"]}',
        f'"corpus":{_json_value(d["corpus"])}',
        f'"tol":{_json_value(float(d["tol"]))}',
        f'"format":{_json_value(d["format"])}',
    ]
    return "{" + ",".join(fields) + "}"


def half_recovery_slack(state: TripartiteState) -> float:
    """cmi - max(||rho - M M^dag||_1, ||rho - M^dag M||_1)^2 / 2."""
    a = state.analysis
    worst = max(a.gap_m, a.gap_mprime)
    return a.cmi - 0.5 * worst * worst


def commutator_slack(state: TripartiteState) -> float:
    """cmi - ||[M, M^dag]||_1^2 / 8."""
    a = state.analysis
    return a.cmi - a.commutator_norm**2 / 8.0


def rotated_slacks(
    state: TripartiteState, rng: np.random.Generator, unitary_samples: int
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
    if not state.rho.is_full_rank():
        raise SingularMatrixError("rotated-bound sampling needs a full-rank state")
    a = state.analysis
    value = a.cmi
    # The identity triple's candidate is sigma* itself.
    identity_slack = value - 0.25 * a.trace_distance**2
    if unitary_samples == 0:
        return identity_slack, identity_slack
    log_ab, log_bc, log_b = a.embedded_logs
    triples = _haar_unitaries((unitary_samples, 3), state.dim, rng)
    u, v, w = (triples[:, j] for j in range(3))
    exponent = u @ log_ab @ dagger(u) + v @ log_bc @ dagger(v) - w @ log_b @ dagger(w)
    dist = trace_norm(state.mat - mat_exp(hermitian_part(exponent)))
    slacks = value - 0.25 * dist * dist
    return identity_slack, min([identity_slack, *slacks.tolist()])


def _write_conjecture_report(cfg: ScanConfig, which: str, results: list[ConjectureResult]):
    body = []
    for r in results:
        fields = [
            f'"conjecture_id":{_json_value(r.conjecture_id)}',
            f'"samples":{r.samples}',
            f'"min_slack":{_json_value(r.min_slack)}',
            f'"argmin_sample":{r.argmin_sample}',
            f'"violations":{r.violations}',
            f'"argmin_path":{_json_value(r.argmin_path)}',
        ]
        body.append("{" + ",".join(fields) + "}")
    text = (
        '{"which":' + _json_value(which) + ',"config":' + _json_config(cfg)
        + ',"results":[' + ",".join(body) + "]}\n"
    )
    _write_text(cfg.out, text)


class _Minimum:
    # The running minimum of one conjecture's slack over the samples, with
    # the sample that attains it (its witness) and the violation count.

    def __init__(self, conjecture_id: str):
        self.conjecture_id = conjecture_id
        self.slack = math.inf
        self.index = 0
        self.violations = 0
        self.witness = None

    def add(self, index: int, slack: float, witness, tol: float) -> None:
        if slack < self.slack:
            self.slack, self.index, self.witness = slack, index, witness
        if slack < -tol:
            self.violations += 1

    def result(self, cfg: ScanConfig, write) -> ConjectureResult:
        # write(witness, path) writes the argmin artifact when the minimum
        # comes within tol of a violation.
        argmin_path = None
        if cfg.out is not None and self.witness is not None and self.slack < cfg.tol:
            argmin_path = _artifact_path(cfg.out, f"argmin-{self.conjecture_id}")
            write(self.witness, argmin_path)
        return ConjectureResult(
            conjecture_id=self.conjecture_id,
            samples=cfg.samples,
            min_slack=self.slack,
            argmin_sample=self.index,
            violations=self.violations,
            argmin_path=argmin_path,
        )


def _state_conjecture(cfg: ScanConfig, which: str, unitary_samples: int) -> list[ConjectureResult]:
    asserted = cfg.corpus in _PROVEN_CORPORA[which]
    track = _Minimum(which)
    for i in range(cfg.samples):
        state = corpus_state(cfg, i)
        if which == "half-recovery":
            slack = half_recovery_slack(state)
        elif which == "commutator-eighth":
            slack = commutator_slack(state)
        else:
            # A separate substream for the unitary triples keeps them
            # independent of the corpus draw for the same sample index.
            _, slack = rotated_slacks(state, substream(cfg.seed, i, 1), unitary_samples)
        track.add(i, slack, state, cfg.tol)
        if asserted and slack < -cfg.tol:
            _abort(state, cfg, f"{which} (proven on {cfg.corpus})", i, slack)
    return [track.result(cfg, write_state)]


def _write_channel_artifact(a: ChannelAnalysis, path: str) -> None:
    kraus = ",".join(_matrix_text(k) for k in a.phi.kraus)
    _write_text(
        path,
        f'{{"dim":{a.rho.dim},"rho":{_matrix_text(a.rho.mat)},'
        f'"sigma":{_matrix_text(a.sigma.mat)},"kraus":[{kraus}]}}\n',
    )


def _checked_channels(dim: int, kraus: int | None, samples: int, seed: int, tol: float, out):
    # (index, analysis) of each random channel triple, after its proven
    # checks. Sample i draws from substream(seed, i): a Kraus count in 1-4
    # unless kraus is given, then rho and sigma (Hilbert-Schmidt, validated
    # by the analysis) and the channel. A failing check writes the triple
    # to disk and raises.
    for i in range(samples):
        rng = substream(seed, i)
        count = 1 + int(rng.integers(4)) if kraus is None else kraus
        rho = _hs_matrix(dim, rng)
        sigma = _hs_matrix(dim, rng)
        a = ChannelAnalysis(rho, sigma, random_channel(dim, dim, count, rng))
        for name, slack in (
            ("channel-dpi-nonnegative", a.lhs),
            ("channel-gap-bound", a.lhs - a.rhs),
        ):
            if not slack >= -tol:
                path = _artifact_path(out, "violation-channel")
                _write_channel_artifact(a, path)
                raise InequalityViolationError(
                    f"proven inequality {name!r} violated at sample {i}: "
                    f"slack {slack:.6e}; channel written to {path}",
                    artifact_path=path,
                )
        yield i, a


def _channel_conjecture(cfg: ScanConfig) -> list[ConjectureResult]:
    dim = cfg.dims[0] * cfg.dims[1] * cfg.dims[2]
    tracks = traceexp, petz = _Minimum("channel-traceexp"), _Minimum("channel-petz-pinsker")
    for i, a in _checked_channels(dim, None, cfg.samples, cfg.seed, cfg.tol, cfg.out):
        traceexp.add(i, 1.0 - a.trace_exp, a, cfg.tol)
        petz.add(i, a.lhs - 0.25 * a.petz_gap * a.petz_gap, a, cfg.tol)
    return [track.result(cfg, _write_channel_artifact) for track in tracks]


def run_conjecture(cfg: ScanConfig, which: str, unitary_samples: int = 10) -> list[ConjectureResult]:
    """Run one conjecture over the configured corpus and write its report."""
    if which not in CONJECTURES:
        raise ConfigError(f"unknown conjecture {which!r}, expected one of {CONJECTURES}")
    if unitary_samples < 0:
        raise ConfigError(f"unitary_samples must be >= 0, got {unitary_samples}")
    if which == "channel":
        results = _channel_conjecture(cfg)
    else:
        results = _state_conjecture(cfg, which, unitary_samples)
    if cfg.out is not None:
        _write_conjecture_report(cfg, which, results)
    return results


def channel_gap_scan(
    dim: int,
    kraus: int,
    samples: int,
    seed: int = 0,
    tol: float = 1e-8,
    out: str | None = None,
) -> ChannelGapSummary:
    """Check the channel gap bound on random (rho, sigma, channel) triples."""
    if dim < 1 or kraus < 1 or samples < 1:
        raise ConfigError("dim, kraus, and samples must all be >= 1")
    if int(seed) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    min_gap = math.inf
    min_lhs = math.inf
    for _, a in _checked_channels(dim, kraus, samples, seed, tol, out):
        min_gap = min(min_gap, a.lhs - a.rhs)
        min_lhs = min(min_lhs, a.lhs)
    # A violation raises, so a summary always reports 0 violations; the
    # field keeps the summary's and the command line's format.
    return ChannelGapSummary(
        samples=samples,
        dim=dim,
        kraus=kraus,
        min_gap_slack=min_gap,
        min_lhs=min_lhs,
        violations=0,
    )
