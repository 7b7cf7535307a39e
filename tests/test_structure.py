"""The package has one JSON encoder and one number formatter: stateio's.

Every other module hands values to stateio.to_json / to_text. A module
that formats with fmt17 itself, calls json.dump(s), or writes JSON
object text such as '{"key":' by hand would be a second encoder, whose
output could drift from the first.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcmi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "stateio.py")


def _encoding_by_hand(path: Path) -> list[str]:
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        line = getattr(node, "lineno", "?")
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        for name in names:
            if name in ("fmt17", "dumps", "dump"):
                problems.append(f"{path.name}:{line} uses {name}")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if '{"' in node.value or '":' in node.value:
                problems.append(f"{path.name}:{line} writes JSON text {node.value!r}")
    return problems


def test_the_guard_sees_every_module():
    assert {p.name for p in MODULES} >= {"harness.py", "cli.py", "inequalities.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_leaves_json_and_number_text_to_stateio(path):
    assert _encoding_by_hand(path) == []


def test_the_guard_catches_encoding_by_hand(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .stateio import fmt17\n"
        "text = f'{{\"cmi\":{fmt17(x)}}}'\n"
        "other = json.dumps(y)\n",
        encoding="utf-8",
    )
    assert len(_encoding_by_hand(path)) == 4
