"""Spans and counters around equivar's public layer functions, from outside.

``Tracer.install()`` replaces each function in ``TRACED`` by a wrapper that
records a span (name, start, end, parent span, request id) and bumps the
deterministic counters.  A function that other modules imported by name is
replaced in every ``equivar`` module that holds it, so calls through
``homcalc``'s own bindings are seen too.  Methods are replaced on their class.
``SparseRationalMatrix.set`` and ``vec_axpy`` stay unwrapped: each runs about
a million times per pass and a wrapper would dominate what it measures.

Spans stay in memory; ``write_spans`` writes them when the pass ends and
``summary`` turns them into per-function self times.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

REQUEST_SPAN = "bench.request"


def _count_apply(counters, args, result):
    mat, vec = args
    counters["linalg.SparseRationalMatrix.apply.rows_scanned"] += mat.nrows
    counters["linalg.SparseRationalMatrix.apply.input_nnz"] += len(vec)


def _count_pivot(counters, args, result):
    if result is not None:
        counters["linalg.Echelon.add.pivots"] += 1


def _count_dim(name):
    def count(counters, args, result):
        counters[name + ".dim_sum"] += result.dim
    return count


# (span name, module, owning class or None, attribute, counter hook)
TRACED = [
    ("linalg.SparseRationalMatrix.apply", "linalg", "SparseRationalMatrix", "apply", _count_apply),
    ("linalg.SparseRationalMatrix.matmul", "linalg", "SparseRationalMatrix", "__matmul__", None),
    ("linalg.Echelon.add", "linalg", "Echelon", "add", _count_pivot),
    ("linalg.Echelon.kernel_basis", "linalg", "Echelon", "kernel_basis", None),
    ("linalg.SpanBasis", "linalg", "SpanBasis", "__init__", None),
    ("linalg.nullspace", "linalg", None, "nullspace", None),
    ("linalg.matrix_rank", "linalg", None, "matrix_rank", None),
    ("linalg.rank_of_vectors", "linalg", None, "rank_of_vectors", None),
    ("linalg.kernel_of_vectors", "linalg", None, "kernel_of_vectors", None),
    ("equivariant.build_P", "equivariant", None, "build_P", _count_dim("equivariant.build_P")),
    ("equivariant.build_Q", "equivariant", None, "build_Q", _count_dim("equivariant.build_Q")),
    ("equivariant.direct_sum", "equivariant", None, "direct_sum", _count_dim("equivariant.direct_sum")),
    ("equivariant.EquivModule.perm_matrix", "equivariant", "EquivModule", "perm_matrix", None),
    ("equivariant.q_into_p_embedding", "equivariant", None, "q_into_p_embedding", None),
    ("homcalc.stable_hom", "homcalc", None, "stable_hom", None),
    ("homcalc.ext_stable", "homcalc", None, "ext_stable", None),
    ("homcalc.coresolution_Q", "homcalc", None, "coresolution_Q", None),
    ("homcalc.ext_truncated", "homcalc", None, "ext_truncated", None),
]
LAYERS = ("linalg", "equivariant", "homcalc")
COUNTERS = (
    "linalg.SparseRationalMatrix.apply.rows_scanned",
    "linalg.SparseRationalMatrix.apply.input_nnz",
    "linalg.Echelon.add.pivots",
    "equivariant.build_P.dim_sum",
    "equivariant.build_Q.dim_sum",
    "equivariant.direct_sum.dim_sum",
    "runtime.gc.collections",
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        # One entry per span in parallel arrays, which the cyclic GC does not
        # track, so that recording 10^5 spans leaves the GC metrics alone.
        self.names: list = [name for name, *_ in TRACED] + [REQUEST_SPAN]
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")  # index of the enclosing span, or -1
        self.request_id = array("l")
        self.counters: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.request = -1
        self._stack: list = []
        self._restore: list = []
        self._gc_start = 0.0
        self.gc_pause_s = 0.0

    def span(self, name, fn, count=None):
        """``fn`` wrapped so that every call records a span named ``name``."""
        nid = self.names.index(name)
        name_id, start, end, parent, request_id = (
            self.name_id, self.start, self.end, self.parent, self.request_id)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request_id.append(self.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "equivar" or k.startswith("equivar.")]
        for name, modname, cls, attr, count in TRACED:
            home = sys.modules["equivar." + modname]
            if cls is not None:
                owner = getattr(home, cls)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self.span(name, orig, count))
                self._restore.append((owner, attr, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self.span(name, orig, count)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.counters["runtime.gc.collections"] += 1

    def summary(self) -> tuple:
        """(counters, timings): call counts and counters that repeat exactly
        for one seed, and self times in seconds per span name and per layer."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(durations)
        for parent, dur in zip(self.parent, durations):
            if parent >= 0:
                child[parent] += dur
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for nid, dur, inner in zip(self.name_id, durations, child):
            self_s[self.names[nid]] += dur - inner
            calls[self.names[nid]] += 1
        counters = dict(self.counters)
        timings = {}
        for name, *_ in TRACED:
            counters[name + ".calls"] = calls[name]
            timings[name + ".self_s"] = self_s[name]
        adds = calls["linalg.Echelon.add"]
        if adds:  # a ratio of no adds would read as no pivots
            counters["linalg.Echelon.add.pivot_ratio"] = counters["linalg.Echelon.add.pivots"] / adds
        for layer in LAYERS:
            timings[layer + ".self_s"] = sum(
                t for name, t in self_s.items() if name.split(".")[0] == layer)
        timings["bench.self_s"] = self_s[REQUEST_SPAN]
        timings["runtime.gc.pause_s"] = self.gc_pause_s
        return counters, timings

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, request id."""
        with open(path, "w") as fh:
            for nid, *rest in zip(self.name_id, self.start, self.end, self.parent, self.request_id):
                fh.write(json.dumps([self.names[nid], *rest], separators=(",", ":")))
                fh.write("\n")
