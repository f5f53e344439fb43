"""Timed passes over a workload's corpus, and the metrics computed from them."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import Calls, Tracer
from workloads import MSG_KINDS, Outcome, Preflight, Workload, preflight

TAIL_BEYOND = 10  # a tail percentile needs this many runs beyond it
CHECKS = ("conservation", "state_invariant", "single_ce", "tree_height", "announcement")


@dataclass
class Measurement:
    outcomes: list[Outcome]  # first pass, one per scenario
    run_s: list[float]  # host time of every timed run, all passes
    passes: int
    wall_s: float
    unstable: list[int]  # seeds whose later pass differed from the first
    digest: str

    @property
    def failed(self) -> int:
        """Scenarios whose checked run failed; later passes must agree."""
        return sum(o.failure is not None for o in self.outcomes)

    @property
    def runs(self) -> int:
        return len(self.run_s)

    @property
    def events_per_s(self) -> float:
        """Events of every timed run over their host time, all passes."""
        return self.passes * sum(o.events for o in self.outcomes) / sum(self.run_s)


def measure(
    workload: Workload,
    seeds: range,
    seconds: float,
    calls: Calls,
    between_passes: Callable[[], None] | None = None,
) -> Measurement:
    """Whole passes over the corpus until `seconds` have passed, at least one.

    Time spent in `between_passes` is not part of the measurement.
    """
    outcomes: list[Outcome] = []
    run_s: list[float] = []
    unstable: list[int] = []
    passes = 0
    paused = 0.0
    clock = time.perf_counter
    start = clock()
    while True:
        for i, seed in enumerate(seeds):
            t0 = clock()
            out = workload.run(seed, calls)
            run_s.append(clock() - t0)
            if passes == 0:
                outcomes.append(out)
            elif out.digest != outcomes[i].digest:
                unstable.append(seed)
        passes += 1
        if between_passes is not None:
            t0 = clock()
            between_passes()
            paused += clock() - t0
        if clock() - start - paused >= seconds:
            break
    wall = clock() - start - paused
    digest = hashlib.sha256(b"".join(o.digest for o in outcomes)).hexdigest()
    return Measurement(outcomes, run_s, passes, wall, unstable, digest)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND values above it."""
    xs = sorted(values)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(m: Measurement, setup_s: float) -> tuple[dict, list[str]]:
    """Metric name -> (value, unit), plus notes to print beside them."""
    outs, n = m.outcomes, len(m.outcomes)
    run_tail, run_pct = tail(m.run_s)
    metrics = {
        "events_per_s": (m.events_per_s, "1/s"),
        "runs_per_s": (m.runs / sum(m.run_s), "1/s"),
        "run_ms_p50": (statistics.median(m.run_s) * 1e3, "ms"),
        "run_ms_tail": (run_tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_share": (m.failed / n, "share"),
        "strong_share": (sum(o.terminated == "strong" for o in outs) / n, "share"),
        "ctrl_msgs_per_run": (sum(o.ctrl_msgs for o in outs) / n, "count"),
    }
    notes = [f"run_ms_tail is p{run_pct:.4g} of {m.runs} timed runs"]
    delays = [o.delay for o in outs if o.delay is not None]
    if delays:
        delay_tail, delay_pct = tail(delays)
        metrics["detect_delay_p50"] = (statistics.median(delays), "sim_s")
        metrics["detect_delay_tail"] = (delay_tail, "sim_s")
        notes.append(f"detect_delay_tail is p{delay_pct:.4g} of {len(delays)} strong runs")
    return metrics, notes


def traced_run(
    root: Path, workload: Workload, seeds: range, seconds: float, spans_out: Path | None
) -> tuple[dict, Measurement, list[str]]:
    """Half the time untraced, then the pre-flight and half the time traced.

    Returns the per-layer metrics, the untraced measurement, and any
    problem found, such as tracing changing the simulated output.
    """
    plain = measure(workload, seeds, seconds / 2, Calls())
    tracer = Tracer()
    tracer.install()
    try:
        calls = tracer.wrap_calls(Calls())
        lo = tracer.mark()
        t0 = time.perf_counter()
        pf = preflight(root, calls)
        pre_wall = time.perf_counter() - t0
        mid = tracer.mark()
        traced = measure(workload, seeds, seconds / 2, calls)
        hi = tracer.mark()
    finally:
        tracer.uninstall()
    problems = [f"traced pre-flight: {p}" for p in pf.problems]
    if traced.digest != plain.digest:
        problems.append("tracing changed the simulated output")
    problems += [f"traced pass: seed {s} changed between passes" for s in traced.unstable]
    metrics = per_layer(tracer, (lo, mid, hi), pre_wall, pf, traced)
    metrics["trace_overhead"] = (1.0 - traced.events_per_s / plain.events_per_s, "share")
    if spans_out is not None:
        tracer.write(spans_out)
    return metrics, plain, problems


def per_layer(
    tracer: Tracer, marks: tuple[int, int, int], pre_wall: float, pf: Preflight, traced: Measurement
) -> dict:
    """Layer metrics for the pre-flight plus one average pass over the corpus."""
    lo, mid, hi = marks
    pre, run = tracer.summarize(lo, mid), tracer.summarize(mid, hi)
    p = traced.passes

    def self_s(pred) -> float:
        ns = sum(v for k, v in pre.self_ns.items() if pred(k))
        ns += sum(v for k, v in run.self_ns.items() if pred(k)) / p
        return ns / 1e9

    def calls(pred) -> float:
        c = sum(v for k, v in pre.calls.items() if pred(k))
        c += sum(v for k, v in run.calls.items() if pred(k)) / p
        return int(c) if c == int(c) else c

    def named(name):
        return lambda k: k == name

    def layer(prefix):
        return lambda k: k.startswith(prefix)

    wall = pre_wall + traced.wall_s / p
    outs = traced.outcomes
    events = pf.engine_events + sum(o.engine_events for o in outs)
    step_s = self_s(named("engine.step"))
    proto_s, proto_n = self_s(layer("protocol.")), calls(layer("protocol."))
    m = {}
    for check in CHECKS:
        m[f"checker.{check}.self_s"] = (self_s(named(f"checker.{check}")), "s")
        m[f"checker.{check}.calls"] = (calls(named(f"checker.{check}")), "count")
    m["checker.share"] = (self_s(layer("checker.")) / wall, "share")
    m["engine.step.self_s"] = (step_s, "s")
    m["engine.init_s"] = (self_s(named("engine.init")), "s")
    m["engine.events"] = (events, "count")
    m["engine.us_per_event"] = (step_s / events * 1e6, "us")
    m["protocol.self_s"] = (proto_s, "s")
    m["protocol.calls"] = (proto_n, "count")
    m["protocol.us_per_call"] = (proto_s / proto_n * 1e6, "us")
    for kind in MSG_KINDS:
        m[f"protocol.msgs.{kind}"] = (pf.msgs[kind] + sum(o.msgs[kind] for o in outs), "count")
    for part in ("gen", "load", "render"):
        m[f"scenario.{part}.self_s"] = (self_s(named(f"scenario.{part}")), "s")
        m[f"scenario.{part}.calls"] = (calls(named(f"scenario.{part}")), "count")
    m["trace.snapshot.self_s"] = (self_s(named("trace.snapshot")), "s")
    m["trace.snapshot.calls"] = (calls(named("trace.snapshot")), "count")
    for part in ("render", "parse", "replay"):
        m[f"trace.{part}.self_s"] = (self_s(named(f"trace.{part}")), "s")
    m["trace.lines"] = (pf.trace_lines + sum(o.trace_lines for o in outs), "count")
    m["mattern.reference.self_s"] = (self_s(named("mattern.reference")), "s")
    m["mattern.reference.calls"] = (calls(named("mattern.reference")), "count")
    m["other.self_s"] = (wall - (pre.covered_ns + run.covered_ns / p) / 1e9, "s")
    return m
