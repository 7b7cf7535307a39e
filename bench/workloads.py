"""Workload definitions, the per-call output check and the reference check.

A *sample* is one scan row with its proven checks, or one conjecture
sample. A *call* is one call of ``harness.scan`` or
``harness.run_conjecture`` over a chunk of consecutive sample indices,
seeded with a chunk seed derived from the workload seed. A *round* is one
call of each kind a workload cycles through, so every round has the same
mix of call kinds.

This module imports only the standard library at import time, so that the
set-up probe in ``run.py`` can time ``import qcmi`` from a cold start.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Seed whose first round is checked against the committed reference; that
# round is also every run's untimed warm-up.
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Floats from the reference round must satisfy |got - want| <= ATOL + RTOL|want|.
# RTOL is five orders above the <=1e-14 relative drift expected from
# reordering the spectral arithmetic; ATOL absorbs roundoff in quantities
# that are zero in exact arithmetic (cmi of a Markov state is ~1e-15) and
# the cancellation in -2 ln(overlap) when the overlap is within 1e-10 of 1.
# A changed formula moves the O(0.01..1) hs-random values by far more.
RTOL = 1e-9
ATOL = 1e-10

# Tolerance of the scan's own proven-inequality checks (ScanConfig default).
SCAN_TOL = 1e-8

LABELS = {"D1", "D2", "D3"}
UNITARY_SAMPLES = 10


@dataclass(frozen=True)
class Kind:
    """One kind of call a workload makes."""

    dims: tuple[int, int, int]
    corpus: str
    which: str | None = None  # conjecture id; None means a scan

    @property
    def label(self) -> str:
        return self.which or self.corpus

    @property
    def full_dim(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[Kind, ...]  # one call of each kind is one round
    chunk: int  # samples per call
    write_report: bool
    trace_rounds: int  # rounds in one pass of a traced run

    @property
    def samples_per_round(self) -> int:
        return self.chunk * len(self.kinds)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-small",
            kinds=(
                Kind((2, 2, 2), "hs-random"),
                Kind((2, 2, 2), "markov"),
                Kind((2, 2, 2), "near-markov"),
            ),
            chunk=4,
            write_report=True,
            trace_rounds=30,
        ),
        Workload(
            name="scan-large",
            kinds=(
                Kind((5, 5, 5), "hs-random"),
                Kind((5, 5, 5), "markov"),
            ),
            chunk=1,
            write_report=False,
            trace_rounds=10,
        ),
        Workload(
            name="conjecture-channel",
            kinds=(
                Kind((3, 3, 3), "hs-random", "rotated-quarter"),
                Kind((3, 3, 3), "hs-random", "channel"),
            ),
            chunk=1,
            write_report=False,
            trace_rounds=100,
        ),
    )
}


def chunk_seed(seed: int, call_index: int) -> int:
    """Seed of call `call_index` of a run with workload seed `seed`."""
    digest = hashlib.blake2b(f"{seed}:{call_index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def make_config(w: Workload, kind: Kind, seed: int, call_index: int, report: Path):
    from qcmi import harness

    out = str(report) if w.write_report else None
    return harness.ScanConfig(
        dims=kind.dims,
        samples=w.chunk,
        seed=chunk_seed(seed, call_index),
        corpus=kind.corpus,
        out=out,
    )


def run_call(kind: Kind, cfg):
    """Call the public entry point; the attribute is looked up per call so
    the tracer's wrapper is used while it is installed."""
    from qcmi import harness

    if kind.which is None:
        return harness.scan(cfg)
    return harness.run_conjecture(cfg, kind.which, UNITARY_SAMPLES)


def _check_scan(w: Workload, kind: Kind, rows, cfg) -> list[str]:
    tol = SCAN_TOL
    problems = []
    if len(rows) != w.chunk:
        return [f"{len(rows)} rows, expected {w.chunk}"]
    for i, r in enumerate(rows):
        where = f"row {i}"
        if r.sample_index != i or (r.dA, r.dB, r.dC) != kind.dims:
            problems.append(f"{where}: index/dims {r.sample_index} {(r.dA, r.dB, r.dC)}")
        values = [v for v in dataclasses.astuple(r) if isinstance(v, float)]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite value")
            continue
        chain = (r.cmi, r.log_overlap_bound, r.thm1_bound, r.corollary_bound)
        if any(hi < lo - tol for hi, lo in zip(chain, chain[1:])) or r.cmi < -tol:
            problems.append(f"{where}: chain out of order {chain}")
        if r.corollary_bound < 0.0 or r.thm1_bound < 0.0:
            problems.append(f"{where}: negative bound")
        if r.sigma_star_trace > 1.0 + tol:
            problems.append(f"{where}: Tr sigma* = {r.sigma_star_trace!r} > 1")
        if abs(r.slack_thm1 - (r.cmi - r.thm1_bound)) > tol or abs(
            r.slack_corollary - (r.cmi - r.corollary_bound)
        ) > tol:
            problems.append(f"{where}: slack does not match cmi minus bound")
        if r.label not in LABELS:
            problems.append(f"{where}: label {r.label!r}")
        if kind.corpus == "markov" and (r.label != "D1" or abs(r.cmi) > tol):
            problems.append(f"{where}: markov sample has label {r.label} cmi {r.cmi!r}")
    if cfg.out is not None:
        problems += _check_report(rows, Path(cfg.out))
    return problems


def _check_report(rows, path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if len(table) != len(rows) + 1 or table[0][0] != "sample_index":
        return [f"report {path.name} has {len(table)} lines, expected {len(rows) + 1}"]
    head = table[0]
    for line, r in zip(table[1:], rows):
        rec = dict(zip(head, line))
        if rec.get("label") != r.label or float(rec.get("cmi", "nan")) != r.cmi:
            return [f"report line for sample {r.sample_index} does not match its row"]
    return []


def _check_conjecture(w: Workload, kind: Kind, results) -> list[str]:
    want = ("channel-traceexp", "channel-petz-pinsker") if kind.which == "channel" else (kind.which,)
    got = tuple(r.conjecture_id for r in results)
    if got != want:
        return [f"result ids {got}, expected {want}"]
    problems = []
    for r in results:
        if r.samples != w.chunk or not 0 <= r.argmin_sample < w.chunk:
            problems.append(f"{r.conjecture_id}: samples/argmin {r.samples} {r.argmin_sample}")
        if not math.isfinite(r.min_slack):
            problems.append(f"{r.conjecture_id}: min_slack {r.min_slack!r}")
        if not 0 <= r.violations <= w.chunk or (r.violations > 0) != (r.min_slack < -SCAN_TOL):
            problems.append(f"{r.conjecture_id}: {r.violations} violations, min_slack {r.min_slack!r}")
        if r.argmin_path is not None:
            problems.append(f"{r.conjecture_id}: artifact written with out=None")
    return problems


def check_call(w: Workload, kind: Kind, result, cfg) -> list[str]:
    """Problems found in one call's output; empty when it is correct."""
    if kind.which is None:
        return _check_scan(w, kind, result, cfg)
    return _check_conjecture(w, kind, result)


def as_records(result) -> list[dict]:
    return [dataclasses.asdict(r) for r in result]


def compare_records(got: list[dict], want: list[dict]) -> list[str]:
    """Exact match on non-floats (labels, flags, ids), ATOL+RTOL on floats."""
    if len(got) != len(want):
        return [f"{len(got)} records, reference has {len(want)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, want)):
        if g.keys() != r.keys():
            problems.append(f"record {i}: fields {sorted(g)} differ from reference")
            continue
        for key, ref in r.items():
            val = g[key]
            if isinstance(ref, float) and not isinstance(val, bool):
                ok = math.isclose(val, ref, rel_tol=RTOL, abs_tol=ATOL)
            else:
                ok = val == ref
            if not ok:
                problems.append(f"record {i} {key}: {val!r} vs reference {ref!r}")
    return problems


def load_reference(workload: str) -> list[list[dict]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]
