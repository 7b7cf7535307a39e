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
eigvalsh, qr, svd) goes through it, where it can be counted and timed.

Every numeric threshold is defined once, in qcmi/tolerances.py. A small
number literal (0 < |x| <= 1e-6) in any other module would be a second
definition of a tolerance, which could drift from the table.

The benchmark's tracer (bench/tracing.py) imports every module its LAYERS
tuple names; each entry must name a module of the package, so that
deleting or renaming one fails here rather than in a traced benchmark run.

The public value objects own read-only arrays: a caller can neither edit
an array a state, a channel or an analysis hands out, nor change a
channel by editing the operators it was built from.
"""

import ast
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import qcmi
from qcmi import states, tolerances
from qcmi.analysis import ChannelAnalysis
from qcmi.channels import (
    KrausChannel,
    partial_trace_channel,
    petz_dual,
    random_channel,
)
from qcmi.sampling import random_density, random_tripartite, substream
from qcmi.states import TripartiteState, tripartite
from oracles import depolarizing_channel, dirichlet_joint

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcmi"
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


def _layers_without_a_module(path: Path) -> list[str]:
    # The entries of a tracer's LAYERS tuple, read from its source without
    # importing it, that name no module of the package.
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [name for name in ast.literal_eval(node.value) if not (SRC / f"{name}.py").is_file()]
    raise AssertionError(f"{path} assigns no LAYERS")


def test_every_traced_layer_names_a_module_of_the_package():
    assert _layers_without_a_module(ROOT / "bench" / "tracing.py") == []


def test_the_layer_guard_catches_a_missing_module(tmp_path):
    path = tmp_path / "tracing.py"
    path.write_text('LAYERS = (\n    "harness",\n    "no_such_module",\n)\n', encoding="utf-8")
    assert _layers_without_a_module(path) == ["no_such_module"]


def _triple(i):
    rng = substream(38, i)
    return random_density(3, rng), random_density(3, rng), random_channel(3, 3, 2, rng)


def _petz_kraus(i):
    _, sigma, phi = _triple(i)
    return petz_dual(phi, sigma).kraus


# Each public array a value object holds, from a fresh object.
HELD_ARRAYS = {
    "DensityMatrix.mat": lambda: random_density(3, substream(38, 0)).mat,
    "TripartiteState.mat": lambda: random_tripartite((2, 2, 2), substream(38, 1)).mat,
    "ClassicalJoint.p": lambda: dirichlet_joint((2, 2, 2), substream(38, 2)).p,
    "KrausChannel.kraus from a tuple": lambda: KrausChannel(kraus=(np.eye(2, dtype=complex),)).kraus,
    "random_channel": lambda: _triple(3)[2].kraus,
    "partial_trace_channel": lambda: partial_trace_channel((2, 2, 2)).kraus,
    "depolarizing_channel": lambda: depolarizing_channel(2).kraus,
    "petz_dual": lambda: _petz_kraus(4),
    "ChannelAnalysis.exp_operator": lambda: ChannelAnalysis(*_triple(5)).exp_operator,
}


@pytest.mark.parametrize("name", sorted(HELD_ARRAYS))
def test_value_objects_hold_read_only_arrays(name):
    held = HELD_ARRAYS[name]()
    assert isinstance(held, np.ndarray)
    assert not held.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held[(0,) * held.ndim] = 0


def test_editing_a_channels_input_leaves_the_channel_unchanged():
    rho, x = np.eye(2) / 2, np.diag([1.0, 2.0])
    given = {"tuple": (np.eye(2, dtype=complex),), "array": np.eye(2, dtype=complex)[np.newaxis]}
    channels = {name: KrausChannel(kraus=ops) for name, ops in given.items()}
    before = {name: (phi.apply(rho), phi.dual(x)) for name, phi in channels.items()}
    given["tuple"][0][0, 0] = 3.0
    given["array"][0, 0, 0] = 3.0
    for name, phi in channels.items():
        assert phi.apply(rho).tobytes() == before[name][0].tobytes()
        assert phi.dual(x).tobytes() == before[name][1].tobytes()
        assert np.trace(phi.apply(rho)).real == 1.0


def test_tripartite_holds_its_symmetrized_copy_without_copying_it(monkeypatch):
    # require_hermitian's result is already a copy of the input; the state
    # holds that array itself, made read-only, so the matrix is copied once.
    made = []
    require_hermitian = states.require_hermitian

    def recorded(m):
        made.append(require_hermitian(m))
        return made[-1]

    monkeypatch.setattr(states, "require_hermitian", recorded)
    m = np.eye(8, dtype=complex) / 8
    st = tripartite(m, (2, 2, 2))
    assert st.mat is made[0]
    assert not st.mat.flags.writeable and m.flags.writeable


@pytest.mark.parametrize("given", ["array", "view"])
def test_editing_a_states_input_leaves_the_state_unchanged(given):
    # The state copies its matrix: the caller's array, and the base of a
    # view, stay writable and their edits do not reach the state.
    base = np.eye(8, dtype=complex) / 8
    m = base if given == "array" else base[:]
    st = TripartiteState(m, (2, 2, 2))
    assert m.flags.writeable and base.flags.writeable
    m[1, 1] = 5
    base[0, 0] = 5
    untouched = TripartiteState(np.eye(8, dtype=complex) / 8, (2, 2, 2))
    assert st.mat.tobytes() == untouched.mat.tobytes()
    assert st.analysis.cmi == untouched.analysis.cmi
