"""Every writer and printer produces exactly the bytes it did at commit 5b4e976.

Each case below runs one command or writer and compares what it produces,
file by file, with tests/pins/<case>.<name>. The pins were recorded from
the writers of commit 5b4e976, before the report and artifact writers
were merged into one JSON encoder (stateio.to_json); they change only
when a format changes on purpose.
"""

from pathlib import Path

import numpy as np
import pytest

from qcmi.analysis import ChannelAnalysis
from qcmi.cli import main
from qcmi.errors import InequalityViolationError
from qcmi.harness import ScanConfig, channel_gap_scan, run_conjecture
from qcmi.sampling import random_markov_spec, random_tripartite, substream
from qcmi.states import ClassicalJoint, classical_state
from qcmi.stateio import write_markov_spec, write_state

PINS = Path(__file__).with_name("pins")


def parity_state():
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return classical_state(ClassicalJoint(p))


def _files(tmp_path) -> dict[str, bytes]:
    # The files a case wrote, with the temporary directory (reports name
    # their argmin artifacts by path) replaced by TMP.
    tmp = str(tmp_path).encode()
    return {
        p.name: p.read_bytes().replace(tmp, b"TMP")
        for p in sorted(tmp_path.iterdir())
        if p.is_file()
    }


def state_conjecture(tmp_path, monkeypatch, capsys):
    # A report and its argmin state artifact (markov slacks are ~1e-16 < tol).
    cfg = ScanConfig(dims=(2, 1, 2), samples=5, seed=3, corpus="markov", out=str(tmp_path / "hr"))
    run_conjecture(cfg, "half-recovery")
    return _files(tmp_path)


def rotated_conjecture(tmp_path, monkeypatch, capsys):
    cfg = ScanConfig(dims=(2, 1, 2), samples=4, seed=9, out=str(tmp_path / "rot"))
    run_conjecture(cfg, "rotated-quarter", unitary_samples=3)
    return _files(tmp_path)


def channel_conjecture(tmp_path, monkeypatch, capsys):
    cfg = ScanConfig(dims=(2, 1, 1), samples=4, seed=5, out=str(tmp_path / "chan"))
    run_conjecture(cfg, "channel")
    return _files(tmp_path)


def channel_violation(tmp_path, monkeypatch, capsys):
    # A failing channel-dpi-nonnegative check at sample 0 writes the triple.
    monkeypatch.setattr(ChannelAnalysis, "lhs", property(lambda self: -1.0))
    with pytest.raises(InequalityViolationError) as exc:
        channel_gap_scan(dim=2, kraus=2, samples=3, seed=4, out=str(tmp_path / "gap"))
    files = _files(tmp_path)
    files["message"] = str(exc.value).replace(str(tmp_path), "TMP").encode()
    return files


def _cli(argv, capsys) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def _state_files(tmp_path):
    full = tmp_path / "full.json"
    parity = tmp_path / "parity.json"
    write_state(random_tripartite((2, 1, 2), substream(71, 0)), full)
    write_state(parity_state(), parity)
    return full, parity


def info(tmp_path, monkeypatch, capsys):
    full, parity = _state_files(tmp_path)
    out = {}
    for path in (full, parity):
        out[f"{path.stem}.txt"] = _cli(["info", str(path)], capsys)
        out[f"{path.stem}.json"] = _cli(["info", str(path), "--json"], capsys)
    return out


def classify(tmp_path, monkeypatch, capsys):
    full, parity = _state_files(tmp_path)
    out = {}
    for path in (full, parity):
        out[f"{path.stem}.txt"] = _cli(["classify", str(path)], capsys)
        out[f"{path.stem}.json"] = _cli(["classify", str(path), "--json"], capsys)
    return out


def markov_spec(tmp_path, monkeypatch, capsys):
    write_markov_spec(random_markov_spec((2, 3, 2), substream(72, 0)), tmp_path / "spec.json")
    return _files(tmp_path)


CASES = (
    state_conjecture,
    rotated_conjecture,
    channel_conjecture,
    channel_violation,
    info,
    classify,
    markov_spec,
)


def _pinned(case) -> dict[str, bytes]:
    prefix = case.__name__ + "."
    return {
        p.name[len(prefix):]: p.read_bytes()
        for p in sorted(PINS.iterdir())
        if p.name.startswith(prefix)
    }


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_output_bytes_match_the_pins(case, tmp_path, monkeypatch, capsys):
    got = case(tmp_path, monkeypatch, capsys)
    want = _pinned(case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
