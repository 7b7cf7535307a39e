"""The README shows what the code does.

Every command-line example that needs no input file (scan, conjecture,
channel-gap) is run through the installed entry point, qcmi.cli.run, in
a temporary directory, and its stdout is compared with the README text.
The README's table of inequalities is the table of qcmi.inequalities;
print it with

    PYTHONPATH=src python tests/test_readme.py
"""

import shlex
import sys
from pathlib import Path

import pytest

from qcmi.cli import run
from qcmi.inequalities import ALWAYS, STATE, TABLE

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


if __name__ == "__main__":
    sys.stdout.write(inequality_table())
