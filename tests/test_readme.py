"""The README shows what the code does.

Every command-line example that needs no input file (scan, conjecture,
channel-gap) is run through the installed entry point, qcmi.cli.run, in
a temporary directory, and its stdout is compared with the README text.
Every fenced python block runs, with warnings as errors, in a temporary
directory.
The README's table of inequalities is the table of qcmi.inequalities,
which lists each proven step once; print it with

    PYTHONPATH=src python tests/test_readme.py

The README's table of tolerances names every constant of qcmi.tolerances
with its value, in the module's order.
"""

import itertools
import re
import shlex
import sys
import warnings
from pathlib import Path

import pytest

from qcmi import tolerances
from qcmi.cli import run
from qcmi.harness import ScanConfig, corpus_state
from qcmi.inequalities import ALWAYS, CHANNEL, STATE, TABLE, proven_checks

README = Path(__file__).resolve().parent.parent / "README.md"
SELF_CONTAINED = ("scan", "conjecture", "channel-gap")


def examples():
    """(argv, expected stdout) of each self-contained README example."""
    out = []
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if not line.startswith("$ qcmi "):
            continue
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + next(lines).strip()
        printed = []
        for line in lines:
            if line.startswith("```"):
                break
            printed.append(line + "\n")
        argv = shlex.split(command)
        if argv[1] in SELF_CONTAINED:
            out.append(pytest.param(argv, "".join(printed), id=argv[1]))
    return out


def test_every_self_contained_subcommand_has_an_example():
    assert sorted(p.id for p in examples()) == sorted(SELF_CONTAINED)


@pytest.mark.parametrize("argv, printed", examples())
def test_readme_example_prints_what_the_readme_shows(argv, printed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out == printed


def python_blocks() -> list[str]:
    """The source of each fenced python block of the README, in order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_the_readme_has_python_examples():
    # Quick start and the Markov recovery example.
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_block_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = compile(python_blocks()[index], f"README.md python block {index}", "exec")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(code, {"__name__": "__readme__"})
    assert capsys.readouterr().out


def _where(row) -> str:
    if row.asserted == ALWAYS:
        where = "always"
    else:
        where = "on " + ", ".join(row.asserted) if row.asserted else "never"
    if not row.proven:
        where = f"conjecture; {where}"
    return where if row.applies == STATE else f"{where} ({row.applies})"


def inequality_table() -> str:
    """The README's markdown table of qcmi.inequalities.TABLE."""
    lines = ["| name | statement | asserted |", "|---|---|---|"]
    for row in TABLE:
        statement = row.statement.replace("|", "\\|")
        lines.append(f"| `{row.name}` | `{statement}` | {_where(row)} |")
    return "\n".join(lines) + "\n"


def test_readme_table_is_the_inequality_table():
    text = README.read_text(encoding="utf-8")
    start = text.index("<!-- inequalities -->\n") + len("<!-- inequalities -->\n")
    assert text[start:text.index("<!-- /inequalities -->")] == inequality_table()


def readme_tolerances() -> list[tuple[str, str]]:
    """(name, value text) of each row of the README's table of tolerances."""
    text = README.read_text(encoding="utf-8")
    start = text.index("<!-- tolerances -->\n") + len("<!-- tolerances -->\n")
    rows = text[start:text.index("<!-- /tolerances -->")].splitlines()[2:]
    return [tuple(cell.strip().strip("`") for cell in row.split("|")[1:3]) for row in rows]


def test_readme_tolerance_table_is_qcmi_tolerances():
    defined = [(name, repr(value)) for name, value in vars(tolerances).items() if name.isupper()]
    assert len(defined) >= 14
    assert readme_tolerances() == defined


def test_no_two_proven_rows_compute_the_same_slack():
    # Two rows whose slacks agree on every sample assert one step twice.
    cfg = ScanConfig(dims=(2, 2, 2), samples=20, seed=7)
    samples = []
    for i in range(cfg.samples):
        state = corpus_state(cfg, i)
        samples.append(dict(proven_checks(state.analysis, None)))
    repeats = [
        (a, b)
        for a, b in itertools.combinations(samples[0], 2)
        if all(abs(checks[a] - checks[b]) <= 1e-12 for checks in samples)
    ]
    assert repeats == []


def test_every_row_applies_to_every_state_or_to_channel_triples():
    # proven_checks evaluates a row on every sample of its kind; a row that
    # needs more of a state (full rank, say) says so in its statement.
    assert {row.applies for row in TABLE} == {STATE, CHANNEL}


if __name__ == "__main__":
    sys.stdout.write(inequality_table())
