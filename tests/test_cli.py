import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcmi import harness
from qcmi.analysis import ChannelAnalysis, StateAnalysis
from qcmi.cli import main
from qcmi.errors import InequalityViolationError
from qcmi.sampling import random_density, random_markov_state, random_tripartite, substream
from qcmi.states import MarkovBlock, MarkovSpec, TripartiteState
from qcmi.stateio import write_markov_spec, write_state
from oracles import parity_state

LN2 = math.log(2)


def text_fields(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.strip().splitlines())


class TestInfo:
    def test_markov_state_reports_zero_cmi_and_d1(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_state(random_markov_state((2, 2, 2), substream(50, 0)), path)
        assert main(["info", str(path)]) == 0
        fields = text_fields(capsys.readouterr().out)
        assert fields["dims"] == "2,2,2"
        assert abs(float(fields["cmi"])) <= 1e-9
        assert fields["label"] == "D1"

    def test_json_output_parses(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["info", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == [2, 2, 2]
        assert doc["cmi"] == pytest.approx(LN2, abs=1e-9)
        assert doc["corollary_bound"] == pytest.approx(0.25, abs=1e-9)
        assert doc["label"] == "D2"
        # rank-deficient state: the modular residual is undefined
        assert doc["modular_residual"] is None

    def test_text_output_marks_undefined_residual(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["info", str(path)]) == 0
        assert "modular_residual: n/a" in capsys.readouterr().out

    def test_regularize_defines_the_residual(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["info", str(path), "--regularize"]) == 0
        fields = text_fields(capsys.readouterr().out)
        float(fields["modular_residual"])

    def test_negative_slack_exits_two(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        monkeypatch.setattr(StateAnalysis, "cmi", property(lambda a: -1.0))
        assert main(["info", str(path)]) == 2
        assert "ssa-cmi-nonnegative" in capsys.readouterr().err

    def test_reports_every_failing_check(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        monkeypatch.setattr(StateAnalysis, "cmi", property(lambda a: -1.0))
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        for name in ("ssa-cmi-nonnegative", "log-overlap-below-cmi"):
            assert f"'{name}'" in err

    def test_asserts_the_scan_chain_checks(self, tmp_path, capsys, monkeypatch):
        # log_overlap above cmi violates only a chain link that scan checks.
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        monkeypatch.setattr(StateAnalysis, "log_overlap_bound", property(lambda a: a.cmi + 1e-3))
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'log-overlap-below-cmi'" in err
        assert "ssa-cmi-nonnegative" not in err

    @pytest.mark.parametrize(
        "tol,error",
        [
            ("nan", "tol must be positive, got nan"),
            ("-1", "tol must be positive, got -1.0"),
            ("0", "tol must be positive, got 0.0"),
            ("inf", "tol must be finite, got inf"),
            ("x", "argument --tol: invalid float value: 'x'"),
        ],
        ids=["nan-nan", "-1--1.0", "0-0.0", "inf", "x"],
    )
    def test_tol_that_is_not_positive_exits_one(self, tol, error, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["info", str(path), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

    def test_eigenvalue_below_minus_the_support_cutoff_exits_one(self, tmp_path, capsys):
        # The least eigenvalue -5e-11 is below -3e-11, minus the support
        # cutoff of a spectrum whose largest eigenvalue is 0.3: the state is
        # rejected when it is read, as tripartite rejects it.
        diag = [-5e-11, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2 + 5e-11]
        path = tmp_path / "negative.json"
        write_state(TripartiteState(np.diag(diag).astype(complex), (2, 2, 2)), path)
        assert main(["info", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: matrix: minimum eigenvalue -5.000e-11 is below -3.0e-11\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "entry, value, shown",
        [((0, 0), math.nan, "nan"), ((3, 3), math.inf, "inf")],
        ids=["NaN", "Infinity"],
    )
    def test_non_finite_entry_exits_one(self, entry, value, shown, tmp_path, capsys):
        # Python's json reads NaN and Infinity, and a NaN passes every check
        # written x > tol: the file must be rejected, not analysed.
        path = tmp_path / "bad.json"
        write_state(parity_state(), path)
        doc = json.loads(path.read_text())
        doc["matrix"][entry[0]][entry[1]][0] = value
        path.write_text(json.dumps(doc))
        assert main(["info", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: matrix entry {entry} is ({shown}+0j)\n"
        assert captured.out == ""

    def test_missing_file_exits_one(self, capsys):
        assert main(["info", "no-such-state.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["info", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestScanCommand:
    def test_writes_csv_and_reports_row_count(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(
            ["scan", "--dims", "2,2,2", "--samples", "3", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        assert "wrote 3 rows" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("sample_index,dA,dB,dC,cmi")

    def test_reruns_are_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = main(
                ["scan", "--dims", "2,3,2", "--samples", "4", "--seed", "9", "--out", str(out)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        rc = main(
            [
                "scan",
                "--dims", "2,2,2",
                "--samples", "2",
                "--corpus", "markov",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2
        assert doc["config"]["corpus"] == "markov"


# A corpus for each conjecture's report test: those it is asserted on,
# and the channel run's one corpus.
REPORT_CORPORA = {
    "half-recovery": "markov",
    "commutator-eighth": "classical-random",
    "rotated-quarter": "hs-random",
    "channel": "hs-random",
}


class TestConjectureCommand:
    def test_half_recovery_on_classical_corpus(self, tmp_path, capsys):
        out = tmp_path / "conj.json"
        rc = main(
            [
                "conjecture",
                "--which", "half-recovery",
                "--dims", "2,2,2",
                "--samples", "10",
                "--corpus", "classical-random",
                "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "half-recovery" in stdout
        assert "violations=0" in stdout
        doc = json.loads(out.read_text())
        assert doc["which"] == "half-recovery"

    def test_rotated_never_aborts_on_open_corpus(self, tmp_path, capsys):
        out = tmp_path / "rot.json"
        rc = main(
            [
                "conjecture",
                "--which", "rotated-quarter",
                "--dims", "2,2,2",
                "--samples", "3",
                "--unitary-samples", "3",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "min_slack=" in capsys.readouterr().out

    @pytest.mark.parametrize("which", harness.CONJECTURES)
    def test_writes_the_bytes_run_conjecture_writes(self, which, tmp_path, capsys):
        # One run through the library and through the command, to the same
        # path: the report and its argmin artifacts are the same files.
        corpus = REPORT_CORPORA[which]
        out = tmp_path / "report"
        cfg = harness.ScanConfig(dims=(2, 1, 2), samples=5, seed=3, corpus=corpus, out=str(out))
        harness.run_conjecture(cfg, which)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        argv = ["conjecture", "--which", which, "--dims", "2,1,2", "--samples", "5", "--seed", "3"]
        assert main(argv + ["--corpus", corpus, "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
        assert b'"format"' not in written["report"]

    def test_negative_unitary_samples_rejected(self, tmp_path, capsys):
        out = tmp_path / "rot.json"
        rc = main(
            [
                "conjecture",
                "--which", "rotated-quarter",
                "--dims", "2,2,2",
                "--samples", "1",
                "--unitary-samples", "-2",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "unitary_samples must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_channel_with_another_corpus_exits_one(self, tmp_path, capsys):
        out = tmp_path / "chan.json"
        rc = main(
            [
                "conjecture",
                "--which", "channel",
                "--dims", "2,1,1",
                "--samples", "4",
                "--corpus", "markov",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: channel runs take only corpus 'hs-random', got 'markov'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("tol,shown", [("nan", "nan"), ("-1", "-1.0")])
    def test_tol_that_is_not_positive_exits_one(self, tol, shown, tmp_path, capsys):
        argv = ["conjecture", "--which", "channel", "--dims", "2,1,1", "--samples", "1"]
        assert main(argv + ["--tol", tol, "--out", str(tmp_path / "chan.json")]) == 1
        assert capsys.readouterr().err == f"error: tol must be positive, got {shown}\n"
        assert list(tmp_path.iterdir()) == []

    def test_channel_prints_both_results(self, tmp_path, capsys):
        out = tmp_path / "chan.json"
        argv = ["conjecture", "--which", "channel", "--dims", "3,1,1", "--samples", "8", "--seed", "3"]
        assert main(argv + ["--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["channel-traceexp", "channel-petz-pinsker"]
        for line in lines[:2]:
            assert "samples=8 " in line
            assert line.endswith(" violations=0")
        assert lines[2:] == [f"wrote report to {out}"]

    def test_channel_violation_exits_two_and_writes_the_triple(self, tmp_path, capsys, monkeypatch):
        # A failing channel-dpi-nonnegative check at sample 0.
        monkeypatch.setattr(ChannelAnalysis, "lhs", property(lambda self: -1.0))
        out = tmp_path / "X"
        argv = ["conjecture", "--which", "channel", "--dims", "2,1,1", "--samples", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "violation: proven inequality 'channel-dpi-nonnegative' violated at sample 0: "
            f"slack -1.000000e+00 is below -1.0e-08; channel written to {out}.violation-channel.json\n"
        )
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["X.violation-channel.json"]
        triple = json.loads((tmp_path / "X.violation-channel.json").read_text())
        assert set(triple) == {"dim", "rho", "sigma", "kraus"}


class TestMarkovCommand:
    def test_assemble_then_info_round_trip(self, tmp_path, capsys):
        rng = substream(51, 0)
        spec = MarkovSpec(
            d_a=2,
            d_c=2,
            blocks=(
                MarkovBlock(
                    weight=0.6,
                    d_left=1,
                    d_right=2,
                    rho_al=random_density(2, rng),
                    rho_rc=random_density(4, rng),
                ),
                MarkovBlock(
                    weight=0.4,
                    d_left=2,
                    d_right=1,
                    rho_al=random_density(4, rng),
                    rho_rc=random_density(2, rng),
                ),
            ),
        )
        spec_path = tmp_path / "spec.json"
        write_markov_spec(spec, spec_path)
        out = tmp_path / "state.json"
        assert main(["markov", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert "cmi=" in capsys.readouterr().out
        assert main(["info", str(out)]) == 0
        fields = text_fields(capsys.readouterr().out)
        assert fields["dims"] == "2,4,2"
        assert abs(float(fields["cmi"])) <= 1e-8
        assert fields["label"] == "D1"

    def test_missing_spec_exits_one(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert main(["markov", "--spec", "no-such-spec.json", "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err


class TestClassifyCommand:
    def test_parity_state_json(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["classify", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label"] == "D2"
        assert doc["commutator_trace_norm"] <= 1e-10
        assert doc["reconstruction_gap"] == pytest.approx(1.0, abs=1e-9)

    def test_loose_tolerance_upgrades_label(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["classify", str(path), "--tol", "10"]) == 0
        assert "label: D1" in capsys.readouterr().out

    @pytest.mark.parametrize("tol,shown", [("nan", "nan"), ("-1", "-1.0")])
    def test_tol_that_is_not_positive_exits_one(self, tol, shown, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_state(parity_state(), path)
        assert main(["classify", str(path), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: tol must be positive, got {shown}\n"
        assert captured.out == ""


class TestErrorPaths:
    def test_no_arguments_exits_one(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err != ""

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_deleted_channel_gap_command_exits_one(self, capsys):
        assert main(["channel-gap", "--dim", "2", "--kraus", "1", "--samples", "1"]) == 1
        assert "invalid choice: 'channel-gap'" in capsys.readouterr().err

    def test_bad_dims_exit_one(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["scan", "--dims", "2,2", "--samples", "1", "--out", out]) == 1
        assert main(["scan", "--dims", "2,zero,2", "--samples", "1", "--out", out]) == 1
        assert main(["scan", "--dims", "2,0,2", "--samples", "1", "--out", out]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["scan", "--dims", "2,2,2", "--samples", "1"]) == 1
        capsys.readouterr()

    def test_nonpositive_samples_exit_one(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["scan", "--dims", "2,2,2", "--samples", "0", "--out", out]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--dims", "2,2,2", "--samples", "1"],
            ["conjecture", "--which", "channel", "--dims", "2,2,2", "--samples", "1"],
        ],
        ids=["scan", "conjecture"],
    )
    def test_negative_seed_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "report.out"
        assert main(argv + ["--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "markov"])
    def test_unwritable_out_exits_one(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "x.out"
        if command == "scan":
            argv = ["scan", "--dims", "2,2,2", "--samples", "1"]
        else:
            rng = substream(51, 1)
            block = MarkovBlock(
                weight=1.0,
                d_left=1,
                d_right=1,
                rho_al=random_density(2, rng),
                rho_rc=random_density(2, rng),
            )
            spec = tmp_path / "spec.json"
            write_markov_spec(MarkovSpec(d_a=2, d_c=2, blocks=(block,)), spec)
            argv = ["markov", "--spec", str(spec)]
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""

    def test_violation_with_unwritable_artifact_exits_two(self, tmp_path, capsys, inject_samples):
        # Sample 0 of the markov corpus replaced by an hs-random state, which
        # fails markov-cmi-zero; its artifact cannot be written.
        inject_samples({0: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))})
        out = tmp_path / "missing" / "r.csv"
        argv = ["scan", "--dims", "2,2,2", "--samples", "2", "--corpus", "markov"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "violation: proven inequality 'markov-cmi-zero' violated at sample 0: slack -"
        )
        assert f"; state not written: cannot write {out}.violation-state.json: " in captured.err
        assert captured.out == ""

    def test_violation_maps_to_exit_two(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, fmt):
            raise InequalityViolationError("synthetic failure", artifact_path="x.json")

        monkeypatch.setattr("qcmi.cli.scan", boom)
        rc = main(
            ["scan", "--dims", "2,2,2", "--samples", "1", "--out", str(tmp_path / "r.csv")]
        )
        assert rc == 2
        assert "violation" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["qcmi", "qcmi.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    out = tmp_path / "report.csv"
    done = run("scan", "--dims", "2,2,2", "--samples", "2", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wrote 2 rows to {out}\n"
    assert out.read_text().count("\n") == 3  # header and two rows
    failed = run("scan", "--dims", "2,2,2", "--samples", "2", "--seed", "-1", "--out", "x.csv")
    assert failed.returncode == 1
    assert failed.stderr == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered, tmp_path):
    # The read end of the child's stdout pipe is closed before it writes,
    # so its first write, or the flush of its buffer, meets a broken pipe.
    path = tmp_path / "p.json"
    write_state(parity_state(), path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qcmi", "info", str(path)],
            cwd=tmp_path, stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 1, done.stderr
    # No traceback and no "Exception ignored" from the flush at exit.
    assert done.stderr == ""
