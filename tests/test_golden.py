"""Golden values for small and degenerate states.

The shared per-state analysis must reproduce every recorded number in
golden_values.json within GOLDEN_ATOL. The cases were recorded in two
groups:

- Commit 04416d3, which built sigma*, M and every matrix function from
  separate eigendecompositions: the trivial-subsystem dims (CORPUS_DIMS)
  on every corpus, plus GHZ, W, a random pure state and two classical
  states with a singular AB marginal, which take the support-restricted
  branch of sigma*, and a full-rank classical state whose sigma* has an
  eigenvalue below the support cutoff.
- Commit 8a7687f, which still built M and the Lieb value from
  full-dimension embeddings: dims without a trivial factor
  (NONTRIVIAL_DIMS) on every corpus, NONTRIVIAL_SAMPLES each, which pin
  the contractions over B.

Regenerate (only when a formula changes on purpose) with

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden_values.json
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qcmi.errors import SingularMatrixError
from qcmi.harness import CORPORA, ScanConfig, corpus_state, evaluate_sample
from qcmi.inequalities import proven_checks as _proven_checks
from qcmi.recovery import modular_residual
from qcmi.sampling import substream
from qcmi.states import ClassicalJoint, classical_state, tripartite

GOLDEN_PATH = Path(__file__).with_name("golden_values.json")
GOLDEN_ATOL = 1e-12
SEED = 2026
SAMPLES = 4  # one full cycle of the near-markov mixing weights
CORPUS_DIMS = ((1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 1, 3))
NONTRIVIAL_DIMS = ((2, 2, 2), (2, 3, 2), (3, 2, 3))
NONTRIVIAL_SAMPLES = 2
# Checks recorded under a row since deleted as a repeat, and the row that
# computes the same slack: powers-stormer-lower was the expression of
# thm1-below-corollary-gap, and Lieb's value in lieb-triple-vs-trace-exp
# was Tr rho_B = 1.
RETIRED_CHECKS = {
    "powers-stormer-lower": "thm1-below-corollary-gap",
    "lieb-triple-vs-trace-exp": "trace-exp-at-most-one",
}


def _pure(psi, dims):
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return tripartite(np.outer(psi, psi.conj()), dims)


def sub_cutoff_classical():
    """Full-rank classical state; sigma*[000] = p_AB(00) p_BC(00) / p_B(0) ~ 3e-18."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[0, 0, 1] = p[1, 0, 0] = 5e-10
    p[1, 0, 1] = 0.3
    p[0, 1, 0] = p[1, 1, 0] = 0.2
    p[0, 1, 1] = 0.15
    p[1, 1, 1] = 1.0 - p.sum()
    return classical_state(ClassicalJoint(p))


def restricted_states():
    """States whose rho_AB or rho_BC is singular."""
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1.0
    w = np.zeros(8)
    w[[1, 2, 4]] = 1.0
    rng = substream(SEED, 0)
    pure = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[0, 0, 1] = 0.5
    return {
        "ghz": _pure(ghz, (2, 2, 2)),
        "w": _pure(w, (2, 2, 2)),
        "random-pure": _pure(pure, (2, 3, 2)),
        "singular-ab-classical": classical_state(ClassicalJoint(p)),
        "restricted-sub-cutoff-classical": restricted_sub_cutoff_classical(),
    }


def restricted_sub_cutoff_classical():
    """Classical state with singular rho_AB whose sigma* has an eigenvalue
    ~4e-11 between the support cutoff of sigma* (~1.25e-11) and 1e-10.

    In the support-restricted branch exp(P h P) carries eigenvalue 1 on
    the kernel of P; a cutoff taken from that spectrum would drop the
    small eigenvalue and move thm1 by ~2e-8.
    """
    p = np.zeros((3, 2, 3))
    p[0, 0, 0] = 2e-6
    p[0, 0, 1] = p[1, 0, 0] = 2.47e-6
    p[1, 0, 1] = p[1, 0, 2] = p[2, 0, 1] = 0.125
    p[2, 0, 2] = 0.5 - p[:, 0, :].sum()
    p[0, 1, :] = p[1, 1, :] = 0.5 / 6  # p(a=2, b=1) = 0 makes rho_AB singular
    return classical_state(ClassicalJoint(p))


def cases():
    """(case id, state, corpus) for every golden case."""
    out = []
    groups = [(dims, SAMPLES) for dims in CORPUS_DIMS]
    groups += [(dims, NONTRIVIAL_SAMPLES) for dims in NONTRIVIAL_DIMS]
    for dims, samples in groups:
        for corpus in CORPORA:
            cfg = ScanConfig(dims=dims, samples=samples, seed=SEED, corpus=corpus)
            for i in range(samples):
                tag = f"{corpus}-{dims[0]}{dims[1]}{dims[2]}-{i}"
                out.append((tag, corpus_state(cfg, i), corpus))
    for name, state in restricted_states().items():
        out.append((name, state, "hs-random"))
    out.append(("sub-cutoff-classical", sub_cutoff_classical(), "classical-random"))
    return out


def record(state, corpus: str) -> dict:
    """Every number a scan, info or classify call derives from one state."""
    row = evaluate_sample(state, 0)
    ent = state.analysis.entropies
    try:
        modular = modular_residual(state)
    except SingularMatrixError:
        modular = None
    return {
        "row": dataclasses.asdict(row),
        "checks": dict(_proven_checks(state.analysis, corpus)),
        "entropies": dataclasses.asdict(ent),
        "modular_residual": modular,
    }


@functools.cache
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


CASES = cases()


def _close(got, want) -> bool:
    if isinstance(want, float) and not isinstance(got, bool):
        if math.isinf(want):
            return got == want
        return abs(got - want) <= GOLDEN_ATOL
    return got == want


def test_every_case_has_a_golden_record():
    assert sorted(golden()) == sorted(tag for tag, _, _ in CASES)


@pytest.mark.parametrize("tag,state,corpus", CASES, ids=[c[0] for c in CASES])
def test_matches_golden(tag, state, corpus):
    want = golden()[tag]
    got = record(state, corpus)
    problems = []
    for section in ("row", "entropies"):
        for key, ref in want[section].items():
            if not _close(got[section][key], ref):
                problems.append(f"{section}.{key}: {got[section][key]!r} vs {ref!r}")
    # The recorded checks must all still run, with the same slacks; the
    # check list may only have grown, apart from the retired rows, whose
    # slacks their successors carry.
    for name, ref in want["checks"].items():
        name = RETIRED_CHECKS.get(name, name)
        if name not in got["checks"]:
            problems.append(f"check {name} missing")
        elif not _close(got["checks"][name], ref):
            problems.append(f"check {name}: {got['checks'][name]!r} vs {ref!r}")
    ref = want["modular_residual"]
    if (ref is None) != (got["modular_residual"] is None) or (
        ref is not None and not _close(got["modular_residual"], ref)
    ):
        problems.append(f"modular_residual: {got['modular_residual']!r} vs {ref!r}")
    assert not problems, "; ".join(problems)


def test_restricted_states_take_the_support_restricted_branch():
    for tag, state in restricted_states().items():
        assert state.analysis.support_restricted, tag
        assert golden()[tag]["row"]["support_restricted"] is True, tag
    assert not sub_cutoff_classical().analysis.support_restricted


if __name__ == "__main__":
    doc = {tag: record(state, corpus) for tag, state, corpus in cases()}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
