"""Command-line front end: run one scenario, fuzz many, or replay a trace.

Exit codes are a total function of what went wrong:

    0  clean run, every check passed
    2  scenario or trace file failed to parse or validate
    3  safety violation (conservation, false announcement, ...)
    4  liveness violation (a failure-free run never announced)
    5  message-complexity bound exceeded
    6  replay produced a different event log than the recorded one

``TCRAN_HORIZON`` supplies a default horizon override when ``--horizon``
is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from . import protocol as P
from . import trace as tracefile
from .checker import assert_bounds
from .engine import Engine, RunReport
from .errors import (
    BoundsViolation,
    ParseError,
    ReplayDivergence,
    SafetyViolation,
    TcranError,
    ValidationError,
)
from .scenario import check_time, gen_random_scenario, load_scenario, render_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SAFETY = 3
EXIT_LIVENESS = 4
EXIT_BOUNDS = 5
EXIT_REPLAY = 6

# Verdict kinds, most serious first, and the exit code of each.
VERDICT_EXIT = {"safety": EXIT_SAFETY, "liveness": EXIT_LIVENESS, "bounds": EXIT_BOUNDS}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tcran",
        description="Run, fuzz, or replay credit-conserving termination detection.",
    )
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario", metavar="PATH", help="scenario file to run")
    mode.add_argument(
        "--fuzz", metavar="N", type=int, help="run N random scenarios and summarize"
    )
    mode.add_argument(
        "--replay", metavar="PATH", help="re-execute a trace file and diff it"
    )
    ap.add_argument(
        "--seed",
        type=int,
        default=None,
        help="run seed, or base seed for --fuzz (defaults: 1 / 42)",
    )
    ap.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="simulation-time cutoff; overrides the scenario and $TCRAN_HORIZON",
    )
    ap.add_argument(
        "--trace-out", metavar="PATH", help="write a replayable trace file"
    )
    ap.add_argument(
        "--report",
        choices=("text", "machine-readable"),
        default="text",
        help="report style on stdout (default: text)",
    )
    ap.add_argument(
        "--mutate",
        action="append",
        default=[],
        choices=sorted(P.KNOWN_MUTATIONS),
        help="enable a protocol mutation (testing aid; repeatable)",
    )
    ap.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="--fuzz: fix the node count instead of varying it by seed",
    )
    ap.add_argument(
        "--failure-free",
        action="store_true",
        help="--fuzz: generate scenarios without primary users or crashes",
    )
    return ap


def _effective_horizon(args: argparse.Namespace) -> float | None:
    horizon = args.horizon
    env = os.environ.get("TCRAN_HORIZON")
    if horizon is None and env:
        try:
            horizon = float(env)
        except ValueError:
            raise ValidationError(f"TCRAN_HORIZON={env!r} is not a number") from None
    if horizon is not None:
        check_time("horizon", horizon)
    return horizon


def _execute(scn, seed: int, horizon: float | None, mutations=()):
    """Run one scenario; returns (report|None, trace, safety error|None)."""
    eng = Engine(scn, seed, horizon=horizon, mutations=mutations)
    try:
        return eng.run(), eng.trace, None
    except SafetyViolation as e:
        return None, eng.trace, e


def _verdict(scn, report: RunReport | None, err) -> tuple[str, str] | None:
    """The most serious thing wrong with one run, as (kind, detail)."""
    if err is not None:
        return "safety", str(err)
    assert report is not None
    if not scn.events and report.terminated is None:
        return "liveness", "failure-free run never announced"
    try:
        assert_bounds(report.bounds)
    except BoundsViolation as e:
        return "bounds", str(e)
    return None


def _text_report(title: str, seed: int, rep: RunReport) -> str:
    if rep.terminated:
        outcome = (
            f"{rep.terminated} by node {rep.announcer} at t={rep.announce_time:g}"
        )
    elif rep.horizon_hit:
        outcome = "no announcement (horizon reached)"
    else:
        outcome = "no announcement (network drained)"
    lines = [
        f"scenario: {title}",
        f"seed: {seed}",
        f"outcome: {outcome}",
        f"ground truth: t={rep.ground_truth:g}",
        f"end of run: t={rep.end_time:g}, {rep.events_processed} events",
        f"tree height: max {rep.height_max}"
        + (
            f", at announcement {rep.height_at_announce}"
            if rep.height_at_announce is not None
            else ""
        ),
        f"credit sum: {rep.final_sum}",
        "messages:",
    ]
    for kind, row in sorted(rep.bounds.items()):
        if row["count"] == 0 and row["bound"] == -1:
            continue
        limit = "(unbounded)" if row["bound"] == -1 else f"<= {row['bound']}"
        flag = "" if row["ok"] else "  EXCEEDED"
        lines.append(f"  {kind:<6} {row['count']:>5}  {limit}{flag}")
    extras = sorted(set(rep.counters) - set(rep.bounds))
    for kind in extras:
        lines.append(f"  {kind:<6} {rep.counters[kind]:>5}  (uncounted)")
    lines.append(
        "anomalies: " + ("; ".join(rep.anomalies) if rep.anomalies else "none")
    )
    return "\n".join(lines)


def _machine_report(title: str, seed: int, rep: RunReport) -> str:
    return json.dumps(
        {"scenario": title, "seed": seed, "report": asdict(rep)},
        indent=2,
        sort_keys=True,
    )


def _emit(args, title: str, seed: int, rep: RunReport):
    if args.report == "machine-readable":
        print(_machine_report(title, seed, rep))
    else:
        print(_text_report(title, seed, rep))


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    try:
        text = path.read_text()
        scn = load_scenario(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, ValidationError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return EXIT_PARSE

    seed = args.seed if args.seed is not None else 1
    horizon = _effective_horizon(args)
    report, lines, err = _execute(scn, seed, horizon, tuple(args.mutate))

    if args.trace_out:
        tracefile.write_trace(args.trace_out, text, seed, lines, horizon)

    if report is not None:
        _emit(args, str(path), seed, report)
    verdict = _verdict(scn, report, err)
    if verdict is None:
        return EXIT_OK
    kind, detail = verdict
    print(f"{kind} violation: {detail}", file=sys.stderr)
    return VERDICT_EXIT[kind]


def _fuzz_nodes(seed: int, fixed: int | None) -> int:
    return fixed if fixed is not None else 3 + seed % 28


def cmd_fuzz(args: argparse.Namespace) -> int:
    n = args.fuzz
    if n < 1:
        print("error: --fuzz needs N >= 1", file=sys.stderr)
        return EXIT_PARSE
    base = args.seed if args.seed is not None else 42
    horizon = _effective_horizon(args)
    verdicts: Counter = Counter()
    failures: list[tuple[int, str, str]] = []

    for i in range(n):
        seed = base + i
        scn = gen_random_scenario(
            seed,
            n_nodes=_fuzz_nodes(seed, args.nodes),
            failure_free=args.failure_free,
        )
        report, lines, err = _execute(scn, seed, horizon, tuple(args.mutate))
        verdict = _verdict(scn, report, err)
        if verdict:
            kind, detail = verdict
            verdicts[kind] += 1
            failures.append((seed, kind, detail))
            scn_path = Path(f"tcran-fail-{seed}.scn")
            scn_path.write_text(render_scenario(scn))
            tracefile.write_trace(
                f"tcran-fail-{seed}.trace", render_scenario(scn), seed, lines, horizon
            )
            print(
                f"violation ({kind}) at seed {seed}: {detail}\n"
                f"  dumped {scn_path} and tcran-fail-{seed}.trace",
                file=sys.stderr,
            )

    total_bad = sum(verdicts.values())
    if args.report == "machine-readable":
        print(
            json.dumps(
                {
                    "runs": n,
                    "base_seed": base,
                    "violations": total_bad,
                    "by_class": dict(sorted(verdicts.items())),
                    "failing_seeds": [s for s, _, _ in failures],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"{n} runs, base seed {base} -> {total_bad} violations")
        for kind, count in sorted(verdicts.items()):
            print(f"  {kind}: {count}")

    return next(
        (code for kind, code in VERDICT_EXIT.items() if verdicts[kind]), EXIT_OK
    )


def cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.replay)
    try:
        text = path.read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = tracefile.replay(text)
    except (ParseError, ValidationError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ReplayDivergence as e:
        print(f"replay divergence: {e}", file=sys.stderr)
        return EXIT_REPLAY
    except SafetyViolation as e:
        print(f"safety violation: {e}", file=sys.stderr)
        return EXIT_SAFETY
    _emit(args, str(path), tracefile.parse_trace(text).seed, report)
    print("replay: identical")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.replay:
            return cmd_replay(args)
        if args.fuzz is not None:
            return cmd_fuzz(args)
        return cmd_run(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TcranError as e:
        # Anything not mapped above is a bug surfacing; make it loud but typed.
        print(f"unexpected failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SAFETY


if __name__ == "__main__":
    sys.exit(main())
