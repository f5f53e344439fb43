"""Spans recorded from outside the package, around calls into each layer.

Nothing under ``src/tcran`` knows it is being traced.  The tracer swaps
in wrappers for the attributes the callers actually look up at call
time: module attributes the engine reaches through ``checker.*`` and
``P.*``, and class attributes of ``Engine`` and ``NodeState``.  Names a
module bound with ``from ... import`` are left alone, because patching
the defining module would not reach them.  The benchmark's own calls
into ``scenario``, ``trace`` and ``mattern`` go through a ``Calls``
table that the tracer wraps the same way.

Spans are kept in memory as ``(name, start_ns, end_ns, parent_index)``
and written out at the end; self time is a span's duration minus the
time its direct children cover (one thread, so children nest).
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

from tcran import checker
from tcran import protocol
from tcran import trace as tracefile
from tcran.engine import Engine
from tcran.mattern import run_reference
from tcran.scenario import gen_random_scenario, load_scenario, render_scenario


@dataclass(frozen=True)
class Calls:
    """The benchmark's own entry points into scenario, trace and mattern.

    Field names are span names with the dot replaced by an underscore.
    """

    scenario_gen: Callable = gen_random_scenario
    scenario_load: Callable = load_scenario
    scenario_render: Callable = render_scenario
    trace_render: Callable = tracefile.render_trace
    trace_parse: Callable = tracefile.parse_trace
    trace_replay: Callable = tracefile.replay
    mattern_reference: Callable = run_reference


# Checker functions the engine calls, with their span names.
_CHECKER = (
    ("assert_conservation", "checker.conservation"),
    ("assert_state_invariant", "checker.state_invariant"),
    ("assert_single_ce", "checker.single_ce"),
    ("tree_height", "checker.tree_height"),
    ("assert_announcement", "checker.announcement"),
)


def _targets() -> list[tuple[object, str, str]]:
    """Every (owner, attribute, span name) the tracer wraps."""
    out = [(checker, attr, name) for attr, name in _CHECKER]
    for attr in sorted(vars(protocol)):
        fn = getattr(protocol, attr)
        if (
            (attr.startswith("on_") or attr == "distribute")
            and callable(fn)
            and getattr(fn, "__module__", None) == protocol.__name__
        ):
            out.append((protocol, attr, f"protocol.{attr}"))
    out += [
        (protocol.NodeState, "snapshot", "trace.snapshot"),
        (Engine, "step", "engine.step"),
        (Engine, "__init__", "engine.init"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self):
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_calls(self, calls: Calls) -> Calls:
        return replace(
            calls,
            **{
                f.name: self.wrap(f.name.replace("_", ".", 1), getattr(calls, f.name))
                for f in fields(calls)
            },
        )

    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, lo: int, hi: int) -> "SpanSummary":
        """Self time and call count per span name over spans[lo:hi]."""
        child = [0] * (hi - lo)
        top = 0
        for i in range(lo, hi):
            _name, start, end, parent = self.spans[i]
            if parent >= lo:
                child[parent - lo] += end - start
            else:
                top += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i in range(lo, hi):
            name, start, end, _parent = self.spans[i]
            self_ns[name] += end - start - child[i - lo]
            calls[name] += 1
        return SpanSummary(self_ns, calls, top)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


@dataclass
class SpanSummary:
    self_ns: Counter
    calls: Counter
    covered_ns: int  # wall time under some top-level span
