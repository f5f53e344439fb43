"""The benchmark's workloads, the checks on every run, and the golden pre-flight.

Every run is a closed loop on one thread: the next scenario starts only
when the previous one has been generated (or loaded), run and checked.
A workload's corpus is a block of consecutive scenario seeds derived
from the benchmark seed, so the same seed always gives the same inputs.

Each run gets the verdict ``tcran --fuzz`` gives it (safety, liveness,
bounds), plus the reference cross-check on ``scale_ff`` and the
line-identical replay on ``record_replay``.  No seed is skipped: a run
that fails a check is counted, not dropped.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from tcran.checker import assert_bounds
from tcran.engine import Engine
from tcran.errors import BoundsViolation, ReplayDivergence, SafetyViolation

from tracing import Calls

# Every send the engine counts; all but COM are the protocol's control cost.
MSG_KINDS = ("COM", "ImPC", "ImP", "AcK", "AAcK", "PaN", "NaP", "TM", "special", "retry")
CTRL_KINDS = MSG_KINDS[1:]

FUZZ_NODES = 28  # tcran --fuzz uses 3 + seed % 28 nodes


@dataclass
class Outcome:
    """One checked run of one scenario."""

    seed: int
    failure: str | None = None  # safety, liveness, bounds, replay, reference
    detail: str = ""
    terminated: str | None = None
    delay: float | None = None  # announce_time - ground_truth, strong only
    events: int = 0  # events of the run the workload measures
    ctrl_msgs: int = 0  # sends of that run other than COM
    engine_events: int = 0  # every event any Engine processed, replay included
    msgs: Counter = field(default_factory=Counter)  # sends, replay included
    trace_lines: int = 0
    digest: bytes = b""

    def fail(self, kind: str, detail: str):
        if self.failure is None:
            self.failure, self.detail = kind, detail


def _sends(report) -> dict[str, int]:
    return {k: report.counters.get(k, 0) for k in MSG_KINDS}


def _run_checked(eng: Engine, out: Outcome, failure_free: bool):
    """Run to the end and give the verdict cmd_fuzz gives; None on safety."""
    try:
        report = eng.run()
    except SafetyViolation as e:
        out.fail("safety", str(e))
        out.engine_events += eng.events_processed
        return None
    out.terminated = report.terminated
    out.events = report.events_processed
    out.ctrl_msgs = sum(report.counters.get(k, 0) for k in CTRL_KINDS)
    out.engine_events += report.events_processed
    out.msgs.update(_sends(report))
    if report.terminated == "strong":
        out.delay = report.announce_time - report.ground_truth
    if failure_free and report.terminated is None:
        out.fail("liveness", "failure-free run never announced")
    try:
        assert_bounds(report.bounds)
    except BoundsViolation as e:
        out.fail("bounds", str(e))
    return report


def _seal(out: Outcome, *parts):
    blob = json.dumps(
        [out.seed, out.failure, out.detail, *parts], sort_keys=True, default=str
    )
    out.digest = hashlib.sha256(blob.encode()).digest()


def run_fuzz_mixed(seed: int, calls: Calls) -> Outcome:
    out = Outcome(seed)
    scn = calls.scenario_gen(seed, n_nodes=3 + seed % FUZZ_NODES)
    report = _run_checked(Engine(scn, seed, collect_trace=False), out, not scn.events)
    _seal(out, report and asdict(report))
    return out


def run_scale_ff(seed: int, calls: Calls) -> Outcome:
    out = Outcome(seed)
    scn = calls.scenario_gen(seed, n_nodes=100, failure_free=True)
    report = _run_checked(Engine(scn, seed, collect_trace=False), out, True)
    ref = calls.mattern_reference(scn, seed)
    if report is not None and ref.ground_truth != report.ground_truth:
        out.fail(
            "reference",
            f"ground truth {report.ground_truth!r} != reference {ref.ground_truth!r}",
        )
    _seal(out, report and asdict(report), asdict(ref))
    return out


def _replay_problems(calls: Calls, text: str, seed: int, lines: list[str], report,
                     horizon: float | None = None):
    """Render and parse the trace, then replay it; (problems, replayed report)."""
    trace_text = calls.trace_render(text, seed, lines, horizon)
    parsed = calls.trace_parse(trace_text)
    problems = []
    if (parsed.seed, parsed.lines) != (seed, lines):
        problems.append("trace changed through render and parse")
    try:
        replayed = calls.trace_replay(trace_text)
    except ReplayDivergence as e:
        return problems + [str(e)], None
    if asdict(replayed) != asdict(report):
        problems.append("replayed report differs from the recorded one")
    return problems, replayed


def run_record_replay(seed: int, calls: Calls) -> Outcome:
    out = Outcome(seed)
    scn = calls.scenario_gen(seed, n_nodes=3 + seed % FUZZ_NODES)
    text = calls.scenario_render(scn)
    loaded = calls.scenario_load(text)
    if loaded != scn:
        out.fail("replay", "scenario changed through render and load")
    eng = Engine(loaded, seed)
    report = _run_checked(eng, out, not scn.events)
    out.trace_lines = len(eng.trace)
    if report is not None:
        problems, replayed = _replay_problems(calls, text, seed, eng.trace, report)
        for problem in problems:
            out.fail("replay", problem)
        if replayed is not None:
            out.engine_events += replayed.events_processed
            out.msgs.update(_sends(replayed))
    _seal(out, report and asdict(report), eng.trace)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_size: int  # scenarios per pass
    run: Callable[[int, Calls], Outcome]

    def seeds(self, seed: int, size: int | None = None) -> range:
        k = size or self.corpus_size
        return range(seed * k, seed * k + k)


# Why each workload exists is recorded in BENCHMARK.json.  Corpus sizes
# keep one pass to a few seconds, so a run repeats every scenario and a
# run that stops after a whole pass overshoots its time by little; fuzz
# corpora are whole multiples of the 28 node counts so every size appears
# equally often.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz_mixed", 280, run_fuzz_mixed),
        Workload("scale_ff", 20, run_scale_ff),
        Workload("record_replay", 140, run_record_replay),
    )
}


# --- golden pre-flight ----------------------------------------------------------


@dataclass
class Preflight:
    problems: list[str]
    engine_events: int
    msgs: Counter
    trace_lines: int


def preflight(root: Path, calls: Calls) -> Preflight:
    """Re-run the goldens and compare with goldens/expected.json.

    Each golden is also round-tripped through scenario and trace text and
    replayed, and the failure-free ones are run under the reference
    detector, so every layer is exercised before the first timed run.
    """
    goldens = root / "goldens"
    expected = json.loads((goldens / "expected.json").read_text())
    pf = Preflight([], 0, Counter(), 0)
    for name, spec in expected.items():
        if not isinstance(spec, dict):
            continue
        text = (goldens / f"{name}.scn").read_text()
        scn = calls.scenario_load(text)
        seed = spec["seed"]
        horizon = (
            scn.horizon * spec["horizon_multiplier"]
            if "horizon_multiplier" in spec
            else None
        )
        eng = Engine(scn, seed, horizon=horizon)
        report = eng.run()
        got = asdict(report)
        for key, want in spec.items():
            if key not in ("seed", "horizon_multiplier") and got[key] != want:
                pf.problems.append(f"{name}: {key} = {got[key]!r}, expected {want!r}")
        pf.engine_events += report.events_processed
        pf.msgs.update(_sends(report))
        pf.trace_lines += len(eng.trace)

        if calls.scenario_load(calls.scenario_render(scn)) != scn:
            pf.problems.append(f"{name}: scenario changed through render and load")
        problems, replayed = _replay_problems(calls, text, seed, eng.trace, report, horizon)
        pf.problems += [f"{name}: {p}" for p in problems]
        if replayed is not None:
            pf.engine_events += replayed.events_processed
            pf.msgs.update(_sends(replayed))
        if not scn.events:
            ref = calls.mattern_reference(scn, seed)
            if ref.ground_truth != report.ground_truth:
                pf.problems.append(
                    f"{name}: reference ground truth {ref.ground_truth!r} "
                    f"!= {report.ground_truth!r}"
                )
    return pf
