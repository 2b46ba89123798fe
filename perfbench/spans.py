"""Span recorder for the traced benchmark mode.

The benchmark measures idstab from outside: in a traced run only, it replaces
the public functions callers use with wrappers that record one span per call
(name, start, end, parent span, item id).  A function imported by name into
another module (``auditor`` imports ``decode_graph6``, ``delete_vertices``,
``join`` and others that way) is replaced at every module binding, because
patching only the defining module would miss those calls.  Modules are taken
from ``sys.modules``: ``idstab.stability`` as an attribute of the package is
the *function*, since the package ``__init__`` rebinds it over the module.

Spans stay in memory (flat arrays) and are written out once, when the run
ends.  Self time and call counts are accumulated as spans close.
"""

from __future__ import annotations

import json
import sys
from array import array
from math import comb
from pathlib import Path
from time import perf_counter

# (span name, defining module, attribute)
FUNCTIONS = (
    ("codec.decode_graph6", "idstab.codec", "decode_graph6"),
    ("codec.encode_graph6", "idstab.codec", "encode_graph6"),
    ("core.build_graph", "idstab.core", "build_graph"),
    ("core.delete_vertices", "idstab.core", "delete_vertices"),
    ("core.complement", "idstab.core", "complement"),
    ("solver.gamma_i_value", "idstab.solver", "gamma_i_value"),
    ("solver.gamma_value", "idstab.solver", "gamma_value"),
    ("solver.max_induced_star", "idstab.solver", "max_induced_star"),
    ("solver.gamma_i", "idstab.solver", "gamma_i"),
    ("solver.oracle_gamma_i", "idstab.solver", "oracle_gamma_i"),
    ("stability.stability", "idstab.stability", "stability"),
    ("stability.oracle_stability", "idstab.stability", "oracle_stability"),
    ("ops.join", "idstab.ops", "join"),
    ("ops.lexicographic", "idstab.ops", "lexicographic"),
    ("ops.corona", "idstab.ops", "corona"),
)
GRAPH_INIT = "core.Graph"  # Graph.__init__: construction plus validation
NAMES = tuple(name for name, _, _ in FUNCTIONS) + (GRAPH_INIT,)
OPS = ("ops.join", "ops.lexicographic", "ops.corona")
SOLVES = (
    "solver.gamma_i_value",
    "solver.gamma_value",
    "solver.max_induced_star",
    "solver.gamma_i",
    "stability.stability",
)


def scanned_subsets(order: int, cert) -> int:
    """Removal subsets ``stability`` scanned to reach ``cert``.

    The scan visits k = 1, 2, ... and the k-subsets of each size in
    lexicographic order, stopping at the witness; with no witness it visits
    all 2^n - 1 nonempty subsets.
    """
    if cert.value is None:
        return (1 << order) - 1
    k = cert.value
    count = sum(comb(order, j) for j in range(1, k))
    prev = -1
    for i, c in enumerate(cert.witness.members()):
        for v in range(prev + 1, c):
            count += comb(order - v - 1, k - i - 1)
        prev = c
    return count + 1


class Recorder:
    """In-memory spans plus per-name call counts and self times."""

    def __init__(self) -> None:
        self.item = 0
        self.name = array("i")
        self.parent = array("q")
        self.item_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children, per span
        self.stack: list[int] = []
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.total_s = dict.fromkeys(NAMES, 0.0)
        self.top_s = 0.0  # time inside spans that have no parent
        self.scan_subsets = 0
        self._ids = {name: i for i, name in enumerate(NAMES)}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        rec = self
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.item_id.append(rec.item)
            rec.child.append(0.0)
            rec.stack.append(idx)
            t0 = perf_counter()
            rec.start.append(t0)
            rec.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                rec.end[idx] = t1
                dur = t1 - t0
                rec.calls[name] += 1
                rec.self_s[name] += dur - rec.child[idx]
                rec.total_s[name] += dur
                parent = rec.parent[idx]
                if parent >= 0:
                    rec.child[parent] += dur
                else:
                    rec.top_s += dur
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in loaded idstab modules."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "idstab" or key.startswith("idstab."))
        ]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            hook = self._count_scan if name == "stability.stability" else None
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        graph = sys.modules["idstab.core"].Graph
        self._restore.append((graph, "__init__", graph.__init__))
        graph.__init__ = self.wrap(GRAPH_INIT, graph.__init__)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _count_scan(self, args, cert) -> None:
        self.scan_subsets += scanned_subsets(args[0].order, cert)

    # -- results ----------------------------------------------------------

    def spans_by_item(self, name: str) -> dict[int, float]:
        """Total duration of the spans called ``name``, per item id."""
        nid = self._ids[name]
        out: dict[int, float] = {}
        for i, n in enumerate(self.name):
            if n == nid:
                item = self.item_id[i]
                out[item] = out.get(item, 0.0) + self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the span columns as raw native arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (
            ("name", self.name),
            ("parent", self.parent),
            ("item", self.item_id),
            ("start", self.start),
            ("end", self.end),
        )
        header = {
            "names": list(NAMES),
            "count": len(self.start),
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)
