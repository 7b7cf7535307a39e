"""The README's command-line examples print what the README shows.

Every example that needs no input file (scan, conjecture, channel-gap)
is run through the installed entry point, qcmi.cli.run, in a temporary
directory, and its stdout is compared with the README text.
"""

import shlex
import sys
from pathlib import Path

import pytest

from qcmi.cli import run

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
