"""End-to-end acceptance checks.

Each test prints one `criterion N <name>: PASS/FAIL` line, so
`pytest -s tests/test_acceptance.py` doubles as a checklist. The random
corpora here are larger than in the per-module tests and pinned to
dedicated seeds.
"""

import json
import math
import time

import numpy as np
import pytest

from qcmi.analysis import ChannelAnalysis
from qcmi.bounds import bound_report, fidelity_lower_bound
from qcmi.channels import depolarizing_channel, random_channel
from qcmi.cli import main as cli_main
from qcmi.entropy import rel_entropy
from qcmi.harness import ScanConfig, run_conjecture, scan
from qcmi.inequalities import rotated_slacks
from qcmi.linalg import trace_norm
from qcmi.recovery import classify, modular_residual, recover_via_ab, recover_via_bc
from qcmi.sampling import (
    random_classical,
    random_density,
    random_hermitian,
    random_markov_state,
    random_tripartite,
    substream,
)
from qcmi.states import (
    ClassicalJoint,
    classical_state,
    embed,
    partial_trace,
    validate_density,
)
from qcmi.trace_inequalities import audenaert_gap, gt_gap, lieb_triple_rhs, pb_gap

LN2 = math.log(2)


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} {name} failed"


def parity_state():
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return classical_state(ClassicalJoint(p))


def random_psd(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


@pytest.fixture(scope="module")
def corpus():
    """1000 samples at (2,2,2) plus 200 at (2,3,2), with Lieb data for the latter."""
    start = time.monotonic()
    reports = []
    lieb_rows = []
    for seed, dims, count in ((900, (2, 2, 2), 1000), (901, (2, 3, 2), 200)):
        for i in range(count):
            st = random_tripartite(dims, substream(seed, i))
            rep = bound_report(st)
            reports.append(rep)
            if dims == (2, 3, 2):
                r = embed(partial_trace(st, "AB").mat, "AB", dims)
                s = embed(partial_trace(st, "B").mat, "B", dims)
                t = embed(partial_trace(st, "BC").mat, "BC", dims)
                lieb_rows.append(
                    (st.rho.is_full_rank(), rep.sigma_star_trace, lieb_triple_rhs(r, s, t))
                )
    elapsed = time.monotonic() - start
    return reports, lieb_rows, elapsed


def test_criterion_1_ssa_suite(corpus):
    reports, _, elapsed = corpus
    ok = len(reports) == 1200
    ok = ok and all(r.cmi >= -1e-9 for r in reports)
    ok = ok and elapsed < 120.0
    report(1, "ssa-nonnegative-cmi", ok)


def test_criterion_2_lower_bound_chain(corpus):
    reports, _, _ = corpus
    ok = all(
        r.cmi - r.thm1_bound >= -1e-8
        and r.cmi >= r.log_overlap_bound - 1e-8
        and r.log_overlap_bound >= r.thm1_bound - 1e-8
        and r.thm1_bound >= r.corollary_bound - 1e-8
        for r in reports
    )
    report(2, "cmi-lower-bound-chain", ok)


def test_criterion_3_trace_exp_fact(corpus):
    reports, lieb_rows, _ = corpus
    ok = all(r.sigma_star_trace <= 1.0 + 1e-9 for r in reports)
    ok = ok and len(lieb_rows) == 200
    ok = ok and all(full_rank for full_rank, _, _ in lieb_rows)
    ok = ok and all(tr <= rhs + 1e-9 for _, tr, rhs in lieb_rows)
    report(3, "trace-exp-at-most-one", ok)


def test_criterion_4_parity_state_values():
    st = parity_state()
    rep = bound_report(st)
    ok = abs(rep.cmi - LN2) <= 1e-9
    ok = ok and abs(rep.thm1_bound - (2.0 - math.sqrt(2.0))) <= 1e-9
    ok = ok and abs(rep.corollary_bound - 0.25) <= 1e-9
    ok = ok and abs(rep.log_overlap_bound - LN2) <= 1e-9
    ok = ok and abs(st.analysis.gap_m - 1.0) <= 1e-9
    ok = ok and classify(st).label == "D2"
    report(4, "parity-state-exact-values", ok)


def test_criterion_5_markov_equality_manifold():
    ok = True
    for i in range(20):
        dims = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        st = random_markov_state(dims, substream(902, i))
        rep = bound_report(st)
        a = st.analysis
        ok = ok and abs(rep.cmi) <= 1e-7
        ok = ok and abs(rep.thm1_bound) <= 1e-7
        ok = ok and a.ruskai <= 1e-7
        ok = ok and a.gap_m <= 1e-7 and a.gap_mprime <= 1e-7
        ok = ok and modular_residual(st) <= 1e-7
        ok = ok and classify(st).label == "D1"
        ok = ok and trace_norm(st.mat - recover_via_ab(st).mat) <= 1e-8
        ok = ok and trace_norm(st.mat - recover_via_bc(st).mat) <= 1e-8
    report(5, "markov-equality-manifold", ok)


def test_criterion_6_channel_gap_bound():
    ok = True
    for i in range(300):
        rng = substream(903, i)
        d = 2 + i % 3
        k = 1 + i % 4
        rho = random_density(d, rng)
        sigma = random_density(d, rng)
        phi = random_channel(d, d, k, rng)
        a = ChannelAnalysis(rho, sigma, phi)
        ok = ok and a.lhs >= a.rhs - 1e-8
        ok = ok and a.lhs >= -1e-9
    rho = validate_density(np.diag([0.75, 0.25]).astype(complex))
    sigma = validate_density(np.diag([0.25, 0.75]).astype(complex))
    a = ChannelAnalysis(rho, sigma, depolarizing_channel(2))
    ok = ok and abs(a.lhs - 0.5 * math.log(3.0)) <= 1e-9
    ok = ok and abs(a.rhs - math.log(4.0 / 3.0)) <= 1e-9
    report(6, "channel-data-processing-gap", ok)


def test_criterion_7_fidelity_bound():
    ok = True
    for i in range(300):
        rng = substream(904, i)
        d = 2 + i % 3
        f, bound = fidelity_lower_bound(random_density(d, rng), random_density(d, rng))
        ok = ok and f >= bound - 1e-9
    for d in (2, 3, 4):
        uniform = validate_density(np.eye(d, dtype=complex) / d)
        f, bound = fidelity_lower_bound(uniform, uniform)
        ok = ok and abs(f - bound) <= 1e-9
    report(7, "fidelity-spectral-bound", ok)


def test_criterion_8_trace_inequality_suites():
    rng = np.random.default_rng(905)
    ok = True
    for i in range(500):
        d = 2 + i % 3
        ok = ok and pb_gap(random_hermitian(d, rng), random_hermitian(d, rng)) >= -1e-9
    for i in range(500):
        d = 2 + i % 3
        ok = ok and gt_gap(random_hermitian(d, rng), random_hermitian(d, rng)) >= -1e-9
    for _ in range(50):
        a = random_hermitian(3, rng, scale=0.4)
        b = a @ a - 0.3 * a
        ok = ok and abs(gt_gap(a, b)) <= 1e-9
    for i in range(200):
        d = 2 + i % 3
        m = random_psd(d, rng)
        n = random_psd(d, rng)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            ok = ok and audenaert_gap(m, n, t) >= -1e-9
    report(8, "trace-inequality-suites", ok)


def test_criterion_9_classical_pinsker():
    ok = True
    for i in range(100):
        st = classical_state(random_classical((2, 2, 2), substream(906, i)))
        recovered = recover_via_ab(st)
        value = st.analysis.cmi
        gap = trace_norm(st.mat - recovered.mat)
        ok = ok and abs(value - rel_entropy(st.rho, recovered)) <= 1e-9
        ok = ok and value >= 0.5 * gap * gap - 1e-9
    report(9, "classical-pinsker-equality", ok)


def test_criterion_10_conjecture_harness(tmp_path):
    out = tmp_path / "half.json"
    rc = cli_main(
        [
            "conjecture",
            "--which", "half-recovery",
            "--dims", "2,2,2",
            "--samples", "500",
            "--corpus", "classical-random",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    ok = rc == 0
    ok = ok and doc["results"][0]["violations"] == 0
    for which in ("half-recovery", "commutator-eighth", "rotated-quarter"):
        path = tmp_path / f"{which}.json"
        cfg = ScanConfig(dims=(2, 2, 2), samples=10, seed=907, out=str(path))
        results = run_conjecture(cfg, which, unitary_samples=5)
        rep = json.loads(path.read_text())
        ok = ok and math.isfinite(results[0].min_slack)
        ok = ok and isinstance(rep["results"][0]["min_slack"], float)
    st = random_tripartite((2, 2, 2), substream(908, 0))
    identity_slack, _ = rotated_slacks(st.analysis, substream(908, 1), 0)
    ok = ok and abs(identity_slack - bound_report(st).slack_corollary) <= 1e-9
    report(10, "conjecture-harness-contract", ok)


def test_criterion_11_determinism(tmp_path):
    ok = True
    for corpus_name, fmt in (("hs-random", "csv"), ("markov", "json")):
        first = tmp_path / f"a-{corpus_name}.{fmt}"
        second = tmp_path / f"b-{corpus_name}.{fmt}"
        for out in (first, second):
            scan(
                ScanConfig(
                    dims=(2, 2, 2),
                    samples=15,
                    seed=909,
                    corpus=corpus_name,
                    out=str(out),
                    fmt=fmt,
                )
            )
        ok = ok and first.read_bytes() == second.read_bytes()
    report(11, "report-determinism", ok)
