"""Trace files: a run's event log plus everything needed to repeat it.

A trace file embeds the scenario text verbatim, so replaying needs only
the file itself.  Replay re-executes the run and demands a line-identical
event log; any divergence is an error, because with exact rationals and
seeded randomness there is nothing platform-dependent left to excuse.
A run that ended in a safety violation replays to the same violation
once its recorded lines compare equal.

Layout::

    # tcran-trace v1
    seed = 7
    horizon = 1000        (only present when the run overrode the scenario)
    mutate = a5-keep-inmap,c2-skip-hold-check
                          (only present when the run had mutations on)
    --- scenario ---
    <scenario text, verbatim>
    --- trace ---
    <one line per traced event>
    --- end ---
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .engine import RunReport, run_scenario
from .errors import ParseError, ReplayDivergence
from .protocol import KNOWN_MUTATIONS
from .scenario import _float, _int, _num, check_time, load_scenario

HEADER = "# tcran-trace v1"
_SCN_MARK = "--- scenario ---"
_TRACE_MARK = "--- trace ---"
_END_MARK = "--- end ---"


@dataclass
class TraceFile:
    seed: int
    horizon: float | None
    scenario_text: str
    lines: list[str]
    mutations: tuple[str, ...] = ()


def render_trace(
    scenario_text: str,
    seed: int,
    lines: list[str],
    horizon: float | None = None,
    mutations: Iterable[str] = (),
) -> str:
    parts = [HEADER, f"seed = {seed}"]
    if horizon is not None:
        parts.append(f"horizon = {_num(horizon)}")
    if mutations:
        parts.append(f"mutate = {','.join(sorted(mutations))}")
    parts.append(_SCN_MARK)
    parts.append(scenario_text.rstrip("\n"))
    parts.append(_TRACE_MARK)
    parts.extend(lines)
    parts.append(_END_MARK)
    return "\n".join(parts) + "\n"


def write_trace(
    path: str | Path,
    scenario_text: str,
    seed: int,
    lines: list[str],
    horizon: float | None = None,
    mutations: Iterable[str] = (),
):
    Path(path).write_text(
        render_trace(scenario_text, seed, lines, horizon, mutations)
    )


def parse_trace(text: str) -> TraceFile:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"expected {HEADER!r} header", 1)
    seed: int | None = None
    horizon: float | None = None
    mutations: tuple[str, ...] = ()
    seen: set[str] = set()
    i = 1
    while i < len(lines) and lines[i].strip() != _SCN_MARK:
        key, sep, value = lines[i].partition("=")
        if not sep:
            raise ParseError("expected key = value before scenario", i + 1)
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError(f"repeated trace field {key!r}", i + 1)
        seen.add(key)
        if key == "seed":
            seed = _int(value, i + 1)
        elif key == "horizon":
            horizon = _float(value, i + 1)
            check_time("horizon", horizon)
        elif key == "mutate":
            mutations = tuple(name.strip() for name in value.split(","))
            unknown = [name for name in mutations if name not in KNOWN_MUTATIONS]
            if unknown:
                raise ParseError(f"unknown mutation {unknown[0]!r}", i + 1)
        else:
            raise ParseError(f"unknown trace field {key!r}", i + 1)
        i += 1
    if seed is None:
        raise ParseError("trace file missing seed")
    if i == len(lines):
        raise ParseError(f"missing {_SCN_MARK!r}")
    i += 1
    scn_lines = []
    while i < len(lines) and lines[i].strip() != _TRACE_MARK:
        scn_lines.append(lines[i])
        i += 1
    if i == len(lines):
        raise ParseError(f"missing {_TRACE_MARK!r}")
    i += 1
    body = []
    while i < len(lines) and lines[i].strip() != _END_MARK:
        body.append(lines[i])
        i += 1
    if i == len(lines):
        raise ParseError(f"missing {_END_MARK!r}")
    return TraceFile(
        seed=seed,
        horizon=horizon,
        scenario_text="\n".join(scn_lines) + "\n",
        lines=body,
        mutations=mutations,
    )


def replay(text: str) -> RunReport:
    """Re-execute a trace file and verify the event log is identical."""
    return rerun(parse_trace(text))


def rerun(tf: TraceFile) -> RunReport:
    """Re-execute a parsed trace file and verify the event log is identical.

    A run that ends in a SafetyViolation is compared too: a divergence
    replaces the violation, and a match raises it.
    """
    scn = load_scenario(tf.scenario_text)
    run = run_scenario(scn, tf.seed, tf.horizon, tf.mutations)
    lines = run.engine.trace
    if lines != tf.lines:
        for k, (a, b) in enumerate(zip(tf.lines, lines)):
            if a != b:
                raise ReplayDivergence(
                    f"trace line {k + 1}: recorded {a!r}, replay produced {b!r}"
                )
        raise ReplayDivergence(
            f"trace length changed: recorded {len(tf.lines)} lines, "
            f"replay produced {len(lines)}"
        )
    if run.violation is not None:
        raise run.violation
    return run.report
