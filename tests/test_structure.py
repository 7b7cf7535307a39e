"""Structural guards on the package's source.

The package has one JSON encoder and one number formatter: stateio's.
Every other module hands values to stateio.to_json / to_text. A module
that formats with fmt17 itself, calls json.dump(s), or writes JSON
object text such as '{"key":' by hand would be a second encoder, whose
output could drift from the first.

qcmi.__all__ names exactly the public names the package imports, so
neither list can drift from the other.

numpy.linalg is called from qcmi/linalg.py only, the package's one
spectral chokepoint: every decomposition and factorization (eigh,
eigvalsh, qr) goes through it, where it can be counted and timed.

Every numeric threshold is defined once, in qcmi/tolerances.py. A small
number literal (0 < |x| <= 1e-6) in any other module would be a second
definition of a tolerance, which could drift from the table.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import qcmi
from qcmi import tolerances

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


def _numpy_linalg_uses(path: Path) -> list[str]:
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        line = getattr(node, "lineno", "?")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            problems.append(f"{path.name}:{line} uses {node.value.id}.linalg")
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("numpy.linalg")]
            problems.extend(f"{path.name}:{line} imports {name}" for name in names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.startswith("numpy.linalg") or (
                node.module == "numpy" and any(a.name == "linalg" for a in node.names)
            ):
                problems.append(f"{path.name}:{line} imports from {node.module}")
    return problems


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
    ids=lambda p: p.name,
)
def test_module_leaves_numpy_linalg_to_linalg(path):
    assert _numpy_linalg_uses(path) == []


def test_the_guard_catches_numpy_linalg(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import qr\n"
        "from .linalg import _eigh\n"
        "w = np.linalg.eigvalsh(h)\n",
        encoding="utf-8",
    )
    assert len(_numpy_linalg_uses(path)) == 4


SMALL = 1e-6


def _small_literals(path: Path) -> list[str]:
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (float, complex))
            and 0.0 < abs(node.value) <= SMALL
        ):
            problems.append(f"{path.name}:{node.lineno} has the literal {node.value!r}")
    return problems


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"],
    ids=lambda p: p.name,
)
def test_module_leaves_tolerances_to_tolerances(path):
    assert _small_literals(path) == []


def test_the_guard_catches_small_literals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "if abs(total - 1.0) > 1e-9:\n"
        "    low = -1e-12\n"
        "tiny = 2e-7j\n"
        "mix = (1e-1, 1e-4, 0.0, 1, 2.0 - 1e-6, 2e-6)\n",
        encoding="utf-8",
    )
    assert len(_small_literals(path)) == 4


@pytest.mark.parametrize(
    "module, names",
    [
        ("linalg", ("HERMITIAN_RTOL", "SUPPORT_RTOL", "SUPPORT_FLOOR")),
        ("states", ("TRACE_ATOL", "REGULARIZE_EPS")),
        ("entropy", ("REL_ENTROPY_SUPPORT_TOL",)),
        ("analysis", ("ZERO_OVERLAP",)),
        ("channels", ("COMPLETENESS_TOL",)),
    ],
)
def test_former_homes_of_a_tolerance_read_the_table(module, names):
    found = importlib.import_module(f"qcmi.{module}")
    for name in names:
        assert getattr(found, name) is getattr(tolerances, name)


def test_all_names_exactly_the_public_names_the_package_binds():
    bound = {
        name
        for name, value in vars(qcmi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(qcmi.__all__) == sorted(set(qcmi.__all__))
    assert set(qcmi.__all__) == bound
