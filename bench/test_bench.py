"""Smoke tests of the benchmark itself; run with ``python3 -m pytest bench``.

Each workload runs with a one-second budget. An untraced run still makes
at least 100 rounds, so scan-large takes about 20 s.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads as wl  # noqa: E402

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(final JSON object, environment/detail line) of a successful run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def assert_metrics(final: dict, section: str) -> None:
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = final["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit
        assert math.isfinite(got[name]["value"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    final, info = result(bench(workload, seed=5, trace=0))
    assert_metrics(final, "end_to_end")
    assert all(m["value"] > 0 for m in final["metrics"].values())
    env = info["environment"]
    assert env["seed"] == 5 and env["blas_threads"] == 1
    assert info["detail"]["rounds"] >= 100


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_and_self_times_cover_wall_time(workload):
    first, info = result(bench(workload, seed=7, trace=1))
    second, _ = result(bench(workload, seed=7, trace=1))
    assert_metrics(first, "per_layer")
    counts = {n: m["value"] for n, m in first["metrics"].items()
              if n.endswith("_per_sample") and "self_ms" not in n}
    assert counts == {n: second["metrics"][n]["value"] for n in counts}
    # Self times partition the traced wall time, up to the wrapper's own cost.
    assert 0.95 < first["metrics"]["trace.coverage_frac"]["value"] <= 1.0 + 1e-9
    if workload == "scan-large":
        # Every hs-random sample makes the same number of decompositions.
        hs = info["detail"]["kinds"]["hs-random"]
        assert len(hs["decompositions_per_sample"]) == 1
        assert len(hs["full_dim_per_sample"]) == 1


def test_seed_changes_inputs(tmp_path):
    w = wl.WORKLOADS["scan-small"]
    kind = w.kinds[0]

    def rows(seed):
        cfg = wl.make_config(w, kind, seed, 0, tmp_path / "report.csv")
        return wl.as_records(wl.run_call(kind, cfg))

    assert wl.chunk_seed(1, 0) != wl.chunk_seed(2, 0)
    assert rows(1) == rows(1)
    assert rows(1) != rows(2)


def test_reference_tolerance_passes_roundoff_and_fails_real_changes():
    want = wl.load_reference("scan-large")[0]
    assert wl.compare_records(want, want) == []
    drift = [{k: v * (1 + 1e-12) if isinstance(v, float) else v for k, v in r.items()} for r in want]
    assert wl.compare_records(drift, want) == []
    wrong = [dict(r, corollary_bound=r["corollary_bound"] * (1 + 1e-6)) for r in want]
    assert wl.compare_records(wrong, want)
    relabelled = [dict(r, label="D2" if r["label"] != "D2" else "D3") for r in want]
    assert wl.compare_records(relabelled, want)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOAD_NAMES[0], seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
