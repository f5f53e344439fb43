"""Trace files: a run's event log plus everything needed to repeat it.

A trace file embeds the scenario text verbatim, so replaying needs only
the file itself.  Replay re-executes the run and demands a line-identical
event log; any divergence is an error, because with exact rationals and
seeded randomness there is nothing platform-dependent left to excuse.

Layout::

    # tcran-trace v1
    seed = 7
    horizon = 1000        (only present when the run overrode the scenario)
    --- scenario ---
    <scenario text, verbatim>
    --- trace ---
    <one line per traced event>
    --- end ---
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .engine import RunReport, run_scenario
from .errors import ParseError, ReplayDivergence
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


def render_trace(
    scenario_text: str, seed: int, lines: list[str], horizon: float | None = None
) -> str:
    parts = [HEADER, f"seed = {seed}"]
    if horizon is not None:
        parts.append(f"horizon = {_num(horizon)}")
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
):
    Path(path).write_text(render_trace(scenario_text, seed, lines, horizon))


def parse_trace(text: str) -> TraceFile:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"expected {HEADER!r} header", 1)
    seed: int | None = None
    horizon: float | None = None
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
    )


def replay(text: str) -> RunReport:
    """Re-execute a trace file and verify the event log is identical."""
    return rerun(parse_trace(text))


def rerun(tf: TraceFile) -> RunReport:
    """Re-execute a parsed trace file and verify the event log is identical."""
    scn = load_scenario(tf.scenario_text)
    report, lines = run_scenario(scn, seed=tf.seed, horizon=tf.horizon)
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
    return report
