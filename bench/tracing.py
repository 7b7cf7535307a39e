"""Span tracing of the qcmi modules and of numpy's LAPACK entry points.

``Tracer.install`` replaces every public function of the traced qcmi
modules, every public method of the classes they define, and
``numpy.linalg.eigh``, ``eigvalsh`` and ``qr`` with a wrapper that records
a span. The package binds names with ``from .linalg import ...``, so each
wrapper is written into every ``qcmi`` module that holds the original;
``uninstall`` puts the originals back. Nothing inside ``src/qcmi`` changes.

A span is (name, start, end, parent span, call id, matrix size); the
benchmark runs one chunk of samples per call, so the call id identifies
the sample (chunk) a span belongs to. Spans stay in flat arrays in memory
and are written out once, at the end of the run. A span's self time is
its duration minus the durations of its children; children of one span
never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# The layers are the qcmi modules the benchmark reaches.
LAYERS = (
    "harness",
    "bounds",
    "recovery",
    "entropy",
    "states",
    "linalg",
    "trace_inequalities",
    "sampling",
    "channels",
    "stateio",
)
LAPACK = ("eigh", "eigvalsh", "qr")
DECOMPOSITIONS = ("lapack.eigh", "lapack.eigvalsh")

# Matrix sizes the three workloads decompose: marginals and Markov blocks
# at 2,2,2 (2, 4, 8), 3,3,3 (3, 9, 27) and 5,5,5 (5..25, 125). Any other
# size is counted under decomp_nother.
SIZES = (2, 3, 4, 5, 8, 9, 10, 15, 20, 25, 27, 125)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.size = array("i")
        self.call_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, sized: bool):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.call.append(self.call_id)
            self.size.append(np.shape(args[0])[-1] if sized else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg as nla

        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"qcmi.{layer}")
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrappers[id(val)] = (val, self._wrap(f"{layer}.{attr}", val, False))
                elif inspect.isclass(val):
                    for meth, fn in list(vars(val).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(val, meth, self._wrap(f"{layer}.{attr}.{meth}", fn, False))
        for attr in LAPACK:
            fn = getattr(nla, attr)
            wrappers[id(fn)] = (fn, self._wrap(f"lapack.{attr}", fn, True))
        holders = [m for n, m in sys.modules.items() if n == "qcmi" or n.startswith("qcmi.")]
        for mod in holders + [nla]:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self, full_dim: np.ndarray, samples: int, wall_s: float) -> dict[str, float]:
        """Per-sample layer metrics over all spans.

        full_dim[c] is the dimension of the state of call c; samples and
        wall_s are the traced samples and the traced calls' wall time.
        """
        col = self.columns()
        dur = col["end"] - col["start"]
        child = np.zeros_like(dur)
        has_parent = col["parent"] >= 0
        np.add.at(child, col["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        n_names = len(self.names)
        count = dict(zip(self.names, np.bincount(col["name"], minlength=n_names)))
        self_ms = dict(zip(self.names, 1e3 * np.bincount(col["name"], self_s, n_names)))
        layer_calls = dict.fromkeys(LAYERS + ("lapack",), 0)
        layer_ms = dict.fromkeys(LAYERS + ("lapack",), 0.0)
        for n in self.names:
            layer = n.split(".", 1)[0]
            layer_calls[layer] += int(count[n])
            layer_ms[layer] += float(self_ms[n])

        out: dict[str, float] = {}
        for m in LAYERS:
            out[f"{m}.calls_per_sample"] = layer_calls[m] / samples
            out[f"{m}.self_ms_per_sample"] = layer_ms[m] / samples
        for n in ("states.partial_trace", "states.validate_density", "lapack.eigh",
                  "lapack.eigvalsh", "lapack.qr"):
            out[f"{n}_per_sample"] = int(count.get(n, 0)) / samples
        out["lapack.self_ms_per_sample"] = layer_ms["lapack"] / samples
        decomp, size, full = self._decompositions(full_dim)
        out["lapack.decomp_per_sample"] = np.count_nonzero(decomp) / samples
        out["lapack.full_dim_decomp_per_sample"] = np.count_nonzero(full) / samples
        for k in SIZES:
            out[f"lapack.decomp_n{k}_per_sample"] = np.count_nonzero(size == k) / samples
        other = ~np.isin(size, SIZES)
        out["lapack.decomp_nother_per_sample"] = np.count_nonzero(other) / samples
        out["lapack.n3_sum_per_sample"] = float(np.sum(size.astype(np.float64) ** 3)) / samples
        out["trace.coverage_frac"] = float(self_s.sum()) / wall_s
        return out

    def _decompositions(self, full_dim: np.ndarray):
        # Mask of decomposition spans, their matrix sizes, and which of
        # them are at the full dimension of their call's state.
        col = self.columns()
        ids = [self._name_ids[n] for n in DECOMPOSITIONS if n in self._name_ids]
        decomp = np.isin(col["name"], ids)
        size = col["size"][decomp]
        return decomp, size, size == full_dim[col["call"][decomp]]

    def decompositions_by_call(self, calls: int, full_dim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(decompositions, full-dimension decompositions) made in each call."""
        decomp, _, full = self._decompositions(full_dim)
        call = self.columns()["call"][decomp]
        return (
            np.bincount(call, minlength=calls),
            np.bincount(call[full], minlength=calls),
        )
