"""Reading and writing state and Markov-spec files.

State files are JSON objects
    {"dims": [dA, dB, dC], "matrix": [[[re, im], ...], ...]}
with one [re, im] pair per entry, rows in the row-major basis order.
Markov-spec files are JSON objects
    {"dA": int, "dC": int,
     "blocks": [{"p": w, "dL": int, "dR": int,
                 "rho_AL": <matrix>, "rho_RC": <matrix>}, ...]}
with matrices in the same pair encoding.

Every JSON file and JSON line the package writes goes through to_json,
and every number it prints as text through to_text. Both emit 17
significant digits, which round-trips IEEE doubles exactly, and are
byte deterministic for a fixed input.
"""

from __future__ import annotations

import json
import math
import os
import stat
from typing import Any

import numpy as np

from .errors import ConfigError, ParseError, QcmiError, ValidationError
from .linalg import _require_finite
from .states import (
    DensityMatrix,
    MarkovBlock,
    MarkovSpec,
    TripartiteState,
    tripartite,
    validate_density,
)


def fmt17(x: float) -> str:
    """Decimal form with 17 significant digits (exact double round trip)."""
    return format(float(x), ".17g")


def to_text(value) -> str:
    """Plain-text form of a report value: CSV cells and printed fields.

    Floats have 17 significant digits, booleans are true/false, None is
    n/a, and a list or tuple is its items' forms joined by commas.
    """
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, (list, tuple)):
        return ",".join(map(to_text, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return "n/a" if value is None else str(value)


def to_json(value) -> str:
    """Compact JSON text of dicts, lists, tuples, numbers, None and strings.

    Floats are to_text's, except that infinities are the strings "inf"
    and "-inf". A complex matrix (numpy array) is a list of rows of
    [re, im] pairs.
    """
    if isinstance(value, dict):
        return "{" + ",".join(f"{to_json(str(k))}:{to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, np.ndarray):
        m = np.asarray(value, dtype=complex)
        value = np.stack((m.real, m.imag), axis=-1).tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in value) + "]"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, float) and not math.isfinite(value):
        return f'"{value}"'
    return "null" if value is None else to_text(value)


def _require_path(path, error: type[QcmiError], verb: str) -> None:
    # open() takes an integer, bools and numpy integers included, as a file
    # descriptor, which it would write to and then close, and raises
    # TypeError on anything else that is not a string, bytes or a path
    # object.
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise error(f"cannot {verb} {path!r}: a path must be a string or a path object")


def _write_text(path: str | os.PathLike, text: str) -> None:
    """Write text as UTF-8 to path, rewriting an existing file in place.

    The file is opened without truncating it, every byte is written from
    the start, and then a regular file is cut at the end of the text, so
    it holds exactly the text; devices such as /dev/null and pipes are
    written and not cut. Truncating first would free the old file's
    blocks before the same number are allocated again, which costs more
    than the write on file systems that discard freed blocks. The
    trade-off: a crash in mid-rewrite can leave a longer old file's tail
    after the new bytes, where truncating first could leave a short file.
    A new file gets mode 0o666 less the umask, as open() gives it.
    """
    _require_path(path, ConfigError, "write")
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_json(path: str | os.PathLike, value) -> None:
    """Write to_json(value) and a newline."""
    _write_text(path, to_json(value) + "\n")


def write_state(state: TripartiteState, path: str | os.PathLike) -> None:
    write_json(path, {"dims": list(state.dims), "matrix": state.mat})


def _load_json(path: str | os.PathLike) -> Any:
    _require_path(path, ParseError, "read")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _is_number(value) -> bool:
    # A JSON number; true and false are bools, which Python counts as ints.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    # A JSON integer >= 1.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _parse_matrix(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where}: expected a nonempty list of rows")
    n = len(obj)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{where}: row {i} does not have {n} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(_is_number(v) for v in cell)
            ):
                raise ValidationError(f"{where}: entry ({i},{j}) is not an [re,im] pair")
            out[i, j] = complex(float(cell[0]), float(cell[1]))
    # Python's json reads NaN and Infinity. Rejected here, before the
    # Hermiticity check subtracts an infinity from itself.
    _require_finite(out, where)
    return out


def _validated(matrix: np.ndarray, where: str) -> DensityMatrix:
    try:
        return validate_density(matrix)
    except QcmiError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_state(path: str | os.PathLike) -> TripartiteState:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected a JSON object")
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(_is_count(d) for d in dims)
    ):
        raise ValidationError("dims: expected three positive integers")
    matrix = _parse_matrix(doc.get("matrix"), "matrix")
    if matrix.shape[0] != dims[0] * dims[1] * dims[2]:
        raise ValidationError(
            f"matrix: dimension {matrix.shape[0]} does not equal "
            f"the product of dims {dims}"
        )
    try:
        return tripartite(matrix, dims)
    except QcmiError as exc:
        raise ValidationError(f"matrix: {exc}") from exc


def write_markov_spec(spec: MarkovSpec, path: str | os.PathLike) -> None:
    blocks = [
        {"p": b.weight, "dL": b.d_left, "dR": b.d_right,
         "rho_AL": b.rho_al.mat, "rho_RC": b.rho_rc.mat}
        for b in spec.blocks
    ]
    write_json(path, {"dA": spec.d_a, "dC": spec.d_c, "blocks": blocks})


def read_markov_spec(path: str | os.PathLike) -> MarkovSpec:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected a JSON object")
    for key in ("dA", "dC"):
        if not _is_count(doc.get(key)):
            raise ValidationError(f"{key}: expected a positive integer")
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ValidationError("blocks: expected a nonempty list")
    blocks = []
    for i, rb in enumerate(raw_blocks):
        where = f"blocks[{i}]"
        if not isinstance(rb, dict):
            raise ValidationError(f"{where}: expected an object")
        if not _is_number(rb.get("p")):
            raise ValidationError(f"{where}.p: expected a number")
        for key in ("dL", "dR"):
            if not _is_count(rb.get(key)):
                raise ValidationError(f"{where}.{key}: expected a positive integer")
        blocks.append(
            MarkovBlock(
                weight=float(rb["p"]),
                d_left=rb["dL"],
                d_right=rb["dR"],
                rho_al=_validated(_parse_matrix(rb.get("rho_AL"), f"{where}.rho_AL"), f"{where}.rho_AL"),
                rho_rc=_validated(_parse_matrix(rb.get("rho_RC"), f"{where}.rho_RC"), f"{where}.rho_RC"),
            )
        )
    try:
        return MarkovSpec(d_a=doc["dA"], d_c=doc["dC"], blocks=tuple(blocks))
    except QcmiError as exc:
        raise ValidationError(str(exc)) from exc
