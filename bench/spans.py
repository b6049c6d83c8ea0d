"""Per-layer tracing by wrapping blindprep's public functions from outside.

``Tracer.install`` replaces module attributes such as
``blindprep.statevector.measure`` with timing wrappers. The library calls
its own layers through module attributes (``sv.measure``, ``mbqc.run_pattern``),
and a module's functions find each other through the same module dict, so
calls inside and across modules are all intercepted. ``uninstall`` restores
the originals.

Every wrapped call, and every op the benchmark runs, is one span: name,
start, end, parent span and op id. Spans stay in memory until ``write``.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

# layer (package module) -> public functions traced
LAYERS = {
    "statevector": ("apply_gate", "measure", "tensor", "fidelity"),
    "mbqc": ("run_pattern", "enumerate_branches", "apply_byproducts"),
    "steane": (
        "compile_encoder",
        "encoder_unitary",
        "prepare_encoded_mbqc",
        "encode_circuit",
        "extract_syndrome",
        "apply_correction",
    ),
    "resources": ("sweep", "estimate"),
    "cli": ("main",),
}
TRACED = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
OP = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (id, name, start, end, parent id, op id)
        self.stack: list = []  # open spans: [id, name, start, child seconds]
        self.next_id = 0
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.active: Counter = Counter()  # open spans per name
        self.amp_bytes = 0
        self.peak_live = 0
        self.enum_measures = 0
        self.branches = 0
        self.unaccounted_ops = 0
        self._op_self = 0.0
        self._saved: list = []

    # -- spans --

    def _open(self, name: str) -> None:
        self.stack.append([self.next_id, name, perf_counter(), 0.0])
        self.next_id += 1
        self.active[name] += 1

    def _close(self) -> float:
        end = perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._op_self += dur - child
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self.op_id))
        return dur

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of one op; re-raises its errors."""
        self.op_id = op_id
        self._op_self = 0.0
        self._open(OP)
        try:
            return fn(*args)
        finally:
            # self times of every span in the op must add up to its wall time
            dur = self._close()
            if self.stack or abs(self._op_self - dur) > 1e-9 + 1e-9 * dur:
                self.unaccounted_ops += 1
                self.stack.clear()

    # -- interception --

    def _observe(self, name: str, args) -> None:
        if name in ("statevector.apply_gate", "statevector.measure"):
            self.amp_bytes += args[0].amps.nbytes
        elif name == "statevector.tensor":
            self.amp_bytes += args[0].amps.nbytes + args[1].amps.nbytes
        if name == "statevector.measure":
            if self.active["mbqc.run_pattern"]:
                self.peak_live = max(self.peak_live, args[0].n)
            if self.active["mbqc.enumerate_branches"]:
                self.enum_measures += 1

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per resume of the generator, so the work of each
            # yielded item lands in the op that asked for it
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    self.branches += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            self._observe(name, args)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``TRACED``."""
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"blindprep.{layer}")
            for fn in fns:
                orig = getattr(module, fn)
                self._saved.append((module, fn, orig))
                setattr(module, fn, self._wrap(f"{layer}.{fn}", orig))

    def uninstall(self) -> None:
        for module, fn, orig in reversed(self._saved):
            setattr(module, fn, orig)
        self._saved.clear()

    # -- results --

    def metrics(self, ops: int) -> dict:
        """Per-op means of each traced function's calls and self time, plus
        the derived counts; ``mbqc.peak_live_qubits`` is the maximum over
        the run. ``amp_mb`` is computed from array sizes, not measured."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3 / ops, "ms")
        out[f"{OP}.self_ms"] = (self.self_s[OP] * 1e3 / ops, "ms")
        out["statevector.amp_mb"] = (self.amp_bytes / 1e6 / ops, "MB_computed")
        out["mbqc.peak_live_qubits"] = (self.peak_live, "qubits")
        per_branch = self.enum_measures / self.branches if self.branches else 0.0
        out["mbqc.measures_per_branch"] = (per_branch, "count")
        return out

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[n], start, end, parent, op] for sid, n, start, end, parent, op in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "names": names, "spans": rows}, fh)
