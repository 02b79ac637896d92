"""Span tracing of edgeideal's layers from outside the package.

Tracer.install rebinds every public function of each layer module, in
every loaded edgeideal module that holds it, to a wrapper that records a
span (name, start, end, parent, count, repeat).  Tracer.uninstall puts the
originals back.  Nothing in the package changes on disk, and only the
process that installs the tracer sees the wrappers.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# The modules timed as layers; graphs, families, limits and cli do too
# little work to time on their own.
LAYERS = (
    "smallgraphs",
    "invariants",
    "chordal",
    "monomials",
    "betti",
    "homology",
    "evenconnection",
    "regbounds",
)


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _cone(args, kwargs, result) -> int:
    return 1 if result.is_cone() else 0


def _matrix_entries(args, kwargs, result) -> int:
    rows = args[0] if args else kwargs["rows"]
    return sum(len(row) for row in rows)


def _generators(args, kwargs, result) -> int:
    return len(result.generators)


# Counters read from a traced call's arguments or return value.
COUNTERS: Dict[str, Callable] = {
    **{
        f"smallgraphs.{name}": _len_result
        for name in (
            "all_graphs", "connected_bipartite_graphs", "connected_graphs",
            "enumerate_family", "forests", "trees",
        )
    },
    "betti.lcm_lattice": _len_result,
    "betti.koszul_complex": _cone,
    "homology.matrix_rank": _matrix_entries,
    "monomials.power": _generators,
}


def _call_key(name: str, args, kwargs) -> Optional[tuple]:
    key = (name, args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return None
    return key


class Tracer:
    """Collects spans while installed; one per traced function call."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._seen: set = set()
        self._originals: List[Tuple[object, str, Callable]] = []

    def begin_op(self) -> None:
        """Start a new operation; repeat calls are counted within one."""
        self._seen = set()

    def take(self) -> List[tuple]:
        """Hand over the spans recorded so far and start a fresh list.

        Call only between operations, when no traced call is open.
        """
        spans = [tuple(s) for s in self.spans]
        self.spans = []
        return spans

    def wrap(self, qualname: str, fn: Callable) -> Callable:
        """fn, recording a span named qualname for each call."""
        stack = self._stack
        counter = COUNTERS.get(qualname)
        check_repeat = qualname.startswith("invariants.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            repeat = False
            if check_repeat and (parent < 0 or not tracer.spans[parent][0].startswith("invariants.")):
                key = _call_key(qualname, args, kwargs)
                if key is not None:
                    repeat = key in tracer._seen
                    tracer._seen.add(key)
            span = [qualname, 0.0, 0.0, parent, 0, repeat]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind each layer's public functions wherever edgeideal holds them."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "edgeideal" or name.startswith("edgeideal.")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"edgeideal.{layer}"]
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    if getattr(holder, name, None) is fn:
                        self._originals.append((holder, name, fn))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._originals):
            setattr(holder, name, fn)
        self._originals = []
