"""Spans around the public functions of fourlines, installed from outside.

The program has no tracing of its own.  ``Tracer.install`` replaces each
target function with a wrapper that records one span per call: its name,
start, end and the span that was open when it was called.  Module-level
functions are replaced in every ``fourlines`` module that holds them, so
calls through ``from .x import f`` bindings are caught as well; methods
are replaced on the class.  ``uninstall`` puts the originals back.

Spans live in flat arrays while the run lasts and are written out once,
when it ends.  A span's self time is its duration minus the time its
direct child spans cover; spans of one thread nest, so the children's
durations add up to the covered time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: (span name, module, attribute path); several targets may share a name
TARGETS = (
    ("graph.parse", "fourlines.graph", "parse"),
    ("graph.serialize", "fourlines.graph", "serialize"),
    ("graph.build", "fourlines.graph", "VisibleGraph.__init__"),
    ("graph.insert", "fourlines.graph", "VisibleGraph.insert"),
    ("graph.canonical_form", "fourlines.graph", "VisibleGraph.canonical_form"),
    ("graph.normalized", "fourlines.graph", "VisibleGraph.normalized"),
    ("singularities.black_components", "fourlines.singularities", "black_components"),
    ("singularities.solve_discrepancies", "fourlines.singularities", "solve_discrepancies"),
    ("certify.certify", "fourlines.certify", "certify"),
    ("certify.volume_lattice", "fourlines.certify", "volume_lattice"),
    ("search.run_search", "fourlines.search", "run_search"),
    ("search.edge_enumerate", "fourlines.search", "cy_edge_enumerate"),
    ("search.edge_enumerate", "fourlines.search", "step_edge_enumerate"),
    ("lattice.pairing", "fourlines.lattice", "pairing"),
    ("lattice.class_of", "fourlines.lattice", "class_of"),
    ("invisible.search_orthogonal", "fourlines.invisible", "search_orthogonal"),
    ("cli.main", "fourlines.cli", "main"),
)


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        #: certify calls whose report came back certified
        self.certified = 0
        #: distinct strings returned by canonical_form
        self.forms: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _observer(self, name: str):
        if name == "certify.certify":
            def count_certified(report) -> None:
                if report.certified:
                    self.certified += 1
            return count_certified
        if name == "graph.canonical_form":
            return self.forms.add
        return None

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that do not exist."""
        missing = []
        packages = [
            m for n, m in sys.modules.items()
            if n == "fourlines" or n.startswith("fourlines.")
        ]
        for name, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{modname}.{path}")
                continue
            wrapper = self.wrap(name, original, self._observer(name))
            for holder in [owner] if outer else packages:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in seconds)."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - covered[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """One line per span: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )
