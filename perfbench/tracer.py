"""Outside-in span tracer for the entcharge layers.

The tracer never edits the program. While installed it replaces every public
function of each entcharge module, in every ``entcharge`` / ``entcharge.*``
namespace that holds a reference to it (the modules import each other with
``from .x import y``, so patching only the defining module would miss most
calls), plus ``numpy.linalg.{eigvalsh,eigh,svd}`` as the kernel layer.
Spans live in memory as (name id, start, end, parent span, op id) tuples and
are written out once, when the run ends. ``remove`` puts every original
object back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

import numpy as np

LAYERS = ("cli", "fileio", "bounds", "accessible", "ensembles", "entropy", "states", "linalg", "generators")
KERNELS = ("eigvalsh", "eigh", "svd")


def _kernel_n3(kernel: str, a) -> int:
    """Computed (not measured) work of one eigen or SVD call: n^3 per matrix,
    m*n*min(m, n) for a rectangular SVD."""
    shape = np.shape(a)
    m, n = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    work = n**3 if kernel != "svd" else m * n * min(m, n)
    return batch * work


class Tracer:
    """Span recorder; ``install`` / ``remove`` bracket the traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.eig_n3 = 0
        self.patches: list[tuple[types.ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, kernel: str | None = None):
        nid = self._name_id(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if kernel is not None:
                tracer.eig_n3 += _kernel_n3(kernel, args[0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"entcharge.{layer}")
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, module in list(sys.modules.items()):
            if modname != "entcharge" and not modname.startswith("entcharge."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self.patches.append((module, attr, obj))
        for kernel in KERNELS:
            original = getattr(np.linalg, kernel)
            setattr(np.linalg, kernel, self._wrap(original, f"numpy.{kernel}", kernel))
            self.patches.append((np.linalg, kernel, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        idx = self.stack.pop()
        self.spans[idx] = (self._name_id("op"), self._op_start, time.perf_counter(), -1, self.op)
        self.op = -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name ("op" is the benchmark's own root span)."""
        out: dict[str, dict[str, float]] = {}
        for (nid, _, _, _, _), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def write(self, path, meta: dict) -> None:
        """One header line (meta, name table, start of the clock), then one
        ``[name_id, start_s, end_s, parent, op]`` line per span, times relative
        to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "names": self.names, "clock": "perf_counter", "origin": origin}) + "\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"[{nid}, {start - origin:.9f}, {end - origin:.9f}, {parent}, {op}]\n")
