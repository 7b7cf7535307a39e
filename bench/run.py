"""Benchmark of the qcmi harness: scan throughput and a conjecture control.

    python3 bench/run.py --workload scan-small --seed 1 --seconds 30 --trace 0

runs the workload's rounds of ``harness.scan`` / ``harness.run_conjecture``
calls for at least ``--seconds`` seconds (and at least MIN_ROUNDS rounds),
checks every call's output, and prints a metric table, an environment
line and, as the last line, one JSON object:

    {"correct": ..., "attempted": calls, "failed": calls, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
repeats a fixed set of rounds untraced and traced (see tracing.py) and
reports the per-layer metrics. Without ``--workload`` it runs every
workload in both modes, one process each. The code under test is imported from
``src/`` of the checkout this file sits in; without it the run exits 2.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One process with one BLAS thread: steadier on a shared machine, and at
# n=125 no slower than two. Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9  # fresh processes timed for setup_s; the upper quartile is reported
MIN_ROUNDS = 100  # p90 needs at least ten rounds beyond it
MAX_MEASURE_S = 120.0  # stop extending a run for MIN_ROUNDS after this
SLICES = 10  # samples_per_s is the median over this many slices of a run
MAX_REPORTED_PROBLEMS = 5
# Printed but not gated in BENCHMARK.json: on a shared host whose speed
# shifts for minutes at a time they spread too widely between runs
# (see README.md).
INFO_UNITS = {"samples_per_s": "1/s", "sample_ms_p50": "ms", "failed_frac": "frac"}


class Run:
    """Makes checked calls and counts attempts and failures."""

    def __init__(self, w: wl.Workload, scratch: Path):
        self.w = w
        self.report = scratch / "report.csv"
        self.attempted = 0
        self.failed = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_PROBLEMS:
            print(f"FAILED: {message}", file=sys.stderr)

    def call(self, seed: int, call_index: int, kind: wl.Kind):
        """One timed entry-point call; returns (seconds, result or None)."""
        cfg = wl.make_config(self.w, kind, seed, call_index, self.report)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = wl.run_call(kind, cfg)
        except Exception:  # a failing call is counted, and the run goes on
            elapsed = time.perf_counter() - t0
            self._fail(f"{kind.label} call {call_index} seed {seed} raised\n{traceback.format_exc()}")
            return elapsed, None
        elapsed = time.perf_counter() - t0
        problems = wl.check_call(self.w, kind, result, cfg)
        if problems:
            self._fail(f"{kind.label} call {call_index} seed {seed}: " + "; ".join(problems))
        return elapsed, result

    def round(self, seed: int, r: int) -> float:
        kinds = self.w.kinds
        return sum(self.call(seed, r * len(kinds) + k, kind)[0] for k, kind in enumerate(kinds))

    def reference_round(self) -> list[list[dict]]:
        """Round 0 at the reference seed: the warm-up, checked like any call."""
        records = []
        for k, kind in enumerate(self.w.kinds):
            _, result = self.call(wl.REFERENCE_SEED, k, kind)
            records.append(wl.as_records(result) if result is not None else [])
        return records

    def check_reference(self, records: list[list[dict]]) -> None:
        want = wl.load_reference(self.w.name)
        for kind, got, ref in zip(self.w.kinds, records, want):
            problems = wl.compare_records(got, ref)
            if problems:
                self._fail(f"{kind.label} reference mismatch: " + "; ".join(problems[:3]))


def import_qcmi() -> None:
    sys.path.insert(0, str(SRC))
    import qcmi

    if not Path(qcmi.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qcmi imported from {qcmi.__file__}, not from {SRC}")


def setup_probe(w: wl.Workload, scratch: Path) -> float:
    """Seconds for `import qcmi` plus the warm-up round, in this fresh process."""
    t0 = time.perf_counter()
    import_qcmi()
    report = scratch / "report.csv"
    for k, kind in enumerate(w.kinds):
        wl.run_call(kind, wl.make_config(w, kind, wl.REFERENCE_SEED, k, report))
    return time.perf_counter() - t0


def setup_seconds(w: wl.Workload) -> float:
    """Run one set-up probe in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", w.name, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def measure_end_to_end(run: Run, seed: int, seconds: float) -> tuple[dict[str, float], dict]:
    """Time rounds for `seconds` (and at least MIN_ROUNDS rounds).

    The set-up probes are spread evenly over the run, between rounds, so
    that they sample the same host conditions as the rounds do.
    """
    import numpy as np

    times: list[float] = []
    setup: list[float] = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(setup) < SETUP_PROBES and elapsed >= seconds * len(setup) / SETUP_PROBES:
            setup.append(setup_seconds(run.w))
            continue
        short = len(times) < MIN_ROUNDS and elapsed < MAX_MEASURE_S
        if elapsed >= seconds and not short:
            break
        times.append(run.round(seed, len(times)))
    per_round = run.w.samples_per_round
    ms = [1e3 * t / per_round for t in times]
    slices = np.array_split(np.array(times), min(SLICES, len(times)))
    values = {
        "samples_per_s": statistics.median(per_round * len(s) / s.sum() for s in slices),
        "sample_ms_p50": statistics.median(ms),
        "sample_ms_p90": float(np.percentile(ms, 90)),
        "setup_s": statistics.quantiles(setup, n=4)[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"rounds": len(times), "setup_s_probes": setup}


def measure_traced(run: Run, seed: int, seconds: float, trace_path: Path):
    """Per-layer metrics, and the decompositions per sample of each call kind.

    Passes over the same trace_rounds rounds alternate untraced and traced
    until `seconds` have passed, so counts per sample do not depend on how
    many passes fit, and the overhead compares identical work.
    """
    import numpy as np
    from tracing import Tracer

    w = run.w
    tracer = Tracer()
    kind_of_call: list[int] = []
    untraced_s = traced_s = 0.0
    passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        untraced_s += sum(run.round(seed, r) for r in range(w.trace_rounds))
        tracer.install()
        try:
            for r in range(w.trace_rounds):
                for k, kind in enumerate(w.kinds):
                    tracer.call_id = len(kind_of_call)
                    kind_of_call.append(k)
                    traced_s += run.call(seed, r * len(w.kinds) + k, kind)[0]
        finally:
            tracer.uninstall()
        passes += 1
    full_dim = np.array([w.kinds[k].full_dim for k in kind_of_call])
    samples = passes * w.trace_rounds * w.samples_per_round
    metrics = tracer.summary(full_dim, samples, traced_s)
    metrics["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    decomps, full = tracer.decompositions_by_call(len(kind_of_call), full_dim)
    kinds = np.array(kind_of_call)
    detail = {
        kind.label: {
            "decompositions_per_sample": sorted(set((decomps[kinds == k] / w.chunk).tolist())),
            "full_dim_per_sample": sorted(set((full[kinds == k] / w.chunk).tolist())),
        }
        for k, kind in enumerate(w.kinds)
    }
    tracer.save(trace_path)
    return metrics, {"passes": passes, "samples": samples, "kinds": detail}


def blas_threads() -> int | str:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcmi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def emit(run: Run, section: str, values: dict[str, float], env: dict, detail: dict) -> None:
    """Print every metric with its unit; the last line carries the gated ones."""
    with open(SPEC, encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    values = dict(values, failed_frac=run.failed / run.attempted)
    for name, value in values.items():
        print(f"{name:40s} {value:16.6g} {units.get(name) or INFO_UNITS[name]}")
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in units.items()},
    }))


def write_reference(scratch: Path) -> None:
    import_qcmi()
    out = {"seed": wl.REFERENCE_SEED, "rtol": wl.RTOL, "atol": wl.ATOL, "workloads": {}}
    for name, w in wl.WORKLOADS.items():
        run = Run(w, scratch)
        out["workloads"][name] = run.reference_round()
        if run.failed:
            raise SystemExit(f"reference round of {name} failed its output check")
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT,
            )
            status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="omit to run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current sources")
    args = parser.parse_args(argv)
    if not (SRC / "qcmi" / "__init__.py").is_file():
        print(f"run.py: no qcmi sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_reference:
        return run_all(args)

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.write_reference:
            write_reference(scratch)
            return 0
        w = wl.WORKLOADS[args.workload]
        if args.setup_probe:
            print(repr(setup_probe(w, scratch)))
            return 0
        import_qcmi()
        run = Run(w, scratch)
        run.check_reference(run.reference_round())
        env = environment(args.seed)
        if args.trace:
            trace_path = WORK / f"trace-{w.name}-seed{args.seed}.npz"
            values, detail = measure_traced(run, args.seed, args.seconds, trace_path)
            detail["spans"] = str(trace_path.relative_to(ROOT))
            section = "per_layer"
        else:
            values, detail = measure_end_to_end(run, args.seed, args.seconds)
            section = "end_to_end"
        emit(run, section, values, env, detail)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
