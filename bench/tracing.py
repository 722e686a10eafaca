"""Outside-in layer tracing: spans around msic functions, from the benchmark.

The package imports names directly (``msic.cli.hyperminrank``,
``msic.codec.build``, ...), so a function is wrapped at every module that
binds it, not only where it is defined.  Each wrapper records a span
(name, start, end, parent) and, for some layers, a few attributes taken
from the arguments or the result.  Spans of one CLI call share a call id.
Nothing inside the program changes; ``gf2`` is not wrapped because it
runs inside ``solver`` and ``codec`` per basis row and wrapping it would
distort the timing.

Work done inside forked solver workers is invisible from here: it shows
only as ``solver.pool_s`` (the self time of a solve that forked) and the
report's ``candidates_examined``.  It is not estimated.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    call: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)


def _note_rows(span, args, kwargs, result):
    span.attrs["rows"] = sum(len(t.keys) for t in result)


def _note_value(span, args, kwargs, result):
    span.attrs["value"] = result


def _note_solve(span, args, kwargs, result):
    span.attrs["value"] = result.hyperminrank
    span.attrs["leaves"] = result.candidates_examined


def _note_mode(span, args, kwargs, result):
    span.attrs["mode"] = kwargs.get("mode", args[2] if len(args) > 2 else "algebraic")


def _note_cover(span, args, kwargs, result):
    span.attrs["exact"] = result[1].exact


# (module, function, span name, annotate)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("msic.cli", "main", "cli.main", None),
    ("msic.instance", "parse_instance", "instance.parse", None),
    ("msic.solver", "hyperminrank", "solver.hyperminrank", _note_solve),
    ("msic.solver", "_build_tables", "solver.build_tables", _note_rows),
    ("msic.solver", "_greedy_dive", "solver.greedy", _note_value),
    ("msic.solver", "_search", "solver.search", None),
    ("msic.hypergraph", "build", "hypergraph.build", None),
    ("msic.hypergraph", "fits", "hypergraph.fits", None),
    ("msic.hypergraph", "sub_adjacency", "hypergraph.sub_adjacency", None),
    ("msic.codec", "code_from_fitting", "codec.code_from_fitting", None),
    ("msic.codec", "load_code", "codec.load_code", None),
    ("msic.codec", "verify_code", "codec.verify_code", _note_mode),
    ("msic.bounds", "clique_cover_upper", "bounds.cover", _note_cover),
    ("msic.bounds", "complement_clique_lower", "bounds.lower", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.call = 0
        self._stack: List[Span] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), tracer.call, name, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every msic module that binds it."""
        wrappers = {}
        for module, attr, name, annotate in TARGETS:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = self._wrap(fn, name, annotate)
        for module_name, module in list(sys.modules.items()):
            if module_name != "msic" and not module_name.startswith("msic."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover.

    The benchmark runs one call at a time in one thread, so the children
    of a span never overlap and their durations simply add up.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: List[Span], e2_by_call: Dict[int, int]) -> Dict[str, float]:
    """Per-layer totals for one traced pass.

    ``e2_by_call`` maps the call id of each solve to the instance's E2, the
    base of ``solver.leaf_fraction`` (leaves over the sum of 2**E2).
    """
    own = self_times(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str, **attrs) -> float:
        return sum(
            own[s.id] for s in spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        )

    solves = [s for s in spans if s.name == "solver.hyperminrank" and "leaves" in s.attrs]
    forked = [
        s for s in solves
        if not any(c.name == "solver.search" for c in children.get(s.id, ()))
    ]
    greedy = {s.parent: s.attrs["value"] for s in spans if s.name == "solver.greedy"}
    leaves = sum(s.attrs["leaves"] for s in solves)
    space = sum(1 << e2_by_call[s.call] for s in solves)
    return {
        "cli.main_self_s": total("cli.main"),
        "instance.parse_s": total("instance.parse"),
        "solver.build_tables_s": total("solver.build_tables"),
        "solver.table_rows": sum(s.attrs["rows"] for s in spans if s.name == "solver.build_tables"),
        "solver.greedy_s": total("solver.greedy"),
        "solver.seed_gap": sum(greedy[s.id] - s.attrs["value"] for s in solves),
        "solver.search_s": total("solver.search"),
        "solver.leaves": leaves,
        "solver.leaf_fraction": leaves / space if space else 0.0,
        "solver.forked_solves": len(forked),
        "solver.pool_s": sum(own[s.id] for s in forked),
        "hypergraph.build_s": total("hypergraph.build"),
        "hypergraph.build_calls": sum(1 for s in spans if s.name == "hypergraph.build"),
        "hypergraph.fits_s": total("hypergraph.fits"),
        "hypergraph.sub_adjacency_s": total("hypergraph.sub_adjacency"),
        "codec.code_from_fitting_s": total("codec.code_from_fitting"),
        "codec.load_code_s": total("codec.load_code"),
        "codec.verify_algebraic_s": total("codec.verify_code", mode="algebraic"),
        "codec.verify_simulate_s": total("codec.verify_code", mode="simulate"),
        "bounds.lower_s": total("bounds.lower"),
        "bounds.cover_s": total("bounds.cover"),
        "bounds.cover_inexact": sum(
            1 for s in spans if s.name == "bounds.cover" and s.attrs.get("exact") is False
        ),
    }
