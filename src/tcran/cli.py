"""Command-line front end: run one scenario, fuzz many, or replay a trace.

Exit codes are a total function of what went wrong:

    0  clean run, every check passed
    2  scenario or trace file failed to parse or validate, or an option
       was given that the chosen mode ignores
    3  safety violation (conservation, false announcement, ...)
    4  liveness violation (a failure-free run never announced)
    5  message-complexity bound exceeded
    6  replay produced a different event log than the recorded one
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from . import checker
from . import protocol as P
from . import trace as tracefile
from .engine import Run, RunReport, run_scenario
from .errors import (
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
        help="run seed, or base seed for --fuzz (defaults: 1 / 42); not with --replay",
    )
    ap.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="simulation-time cutoff over the scenario's horizon; not with --replay",
    )
    ap.add_argument(
        "--trace-out", metavar="PATH", help="--scenario: write a replayable trace file"
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
        help="enable a protocol mutation (testing aid; repeatable; not with --replay)",
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


# Mode -> the options it would silently ignore; giving one is an error.
_IGNORED = {
    "scenario": ("nodes", "failure_free"),
    "fuzz": ("trace_out",),
    "replay": ("seed", "horizon", "mutate", "trace_out", "nodes", "failure_free"),
}


def _checked_horizon(args: argparse.Namespace) -> float | None:
    if args.horizon is not None:
        check_time("horizon", args.horizon)
    return args.horizon


def _verdict(run: Run) -> tuple[str, str] | None:
    """The most serious thing wrong with one run, as (kind, detail)."""
    cls, detail = run.cell
    if cls.startswith("safety:"):
        return "safety", detail
    if not run.engine.scn.events and run.report.terminated is None:
        return "liveness", "failure-free run never announced"
    if cls == "bounds":
        return "bounds", detail.removesuffix(f"; {checker.HORIZON_REACHED}")
    return None


def _text_report(title: str, seed: int, rep: RunReport, cell=None) -> str:
    if rep.terminated:
        outcome = (
            f"{rep.terminated} by node {rep.announcer} at t={rep.announce_time:g}"
        )
    elif rep.horizon_hit:
        outcome = "no announcement (horizon reached)"
    else:
        outcome = "no announcement (network drained)"
    lines = [f"scenario: {title}", f"seed: {seed}", f"outcome: {outcome}"]
    if cell not in (None, checker.STRONG_RUN):
        lines.append("class: " + " ".join(cell))
    lines += [
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


def _machine_report(title: str, seed: int, rep: RunReport, cell=None) -> str:
    doc = {"scenario": title, "seed": seed, "report": asdict(rep)}
    if cell is not None:
        doc["class"], doc["detail"] = cell
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(args, title: str, seed: int, rep: RunReport, cell=None):
    """Print the report; a run's (class, detail) joins it unless replayed."""
    if args.report == "machine-readable":
        print(_machine_report(title, seed, rep, cell))
    else:
        print(_text_report(title, seed, rep, cell))


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
    horizon = _checked_horizon(args)
    run = run_scenario(
        scn, seed, horizon, tuple(args.mutate), collect_trace=bool(args.trace_out)
    )

    if args.trace_out:
        tracefile.write_trace(
            args.trace_out, text, seed, run.engine.trace, horizon, args.mutate
        )

    if run.report is not None:
        _emit(args, str(path), seed, run.report, run.cell)
    verdict = _verdict(run)
    if verdict is None:
        return EXIT_OK
    kind, detail = verdict
    print(f"{kind} violation: {detail}", file=sys.stderr)
    return VERDICT_EXIT[kind]


def cmd_fuzz(args: argparse.Namespace) -> int:
    n = args.fuzz
    if n < 1:
        print("error: --fuzz needs N >= 1", file=sys.stderr)
        return EXIT_PARSE
    if args.nodes is not None and args.nodes < 2:
        print("error: --nodes needs K >= 2", file=sys.stderr)
        return EXIT_PARSE
    base = args.seed if args.seed is not None else 42
    horizon = _checked_horizon(args)
    verdicts: Counter = Counter()
    failures: list[tuple[int, str, str]] = []

    for i in range(n):
        seed = base + i
        scn = gen_random_scenario(
            seed,
            n_nodes=args.nodes or 3 + seed % 28,
            failure_free=args.failure_free,
        )
        run = run_scenario(scn, seed, horizon, tuple(args.mutate), collect_trace=False)
        verdict = _verdict(run)
        if verdict:
            kind, detail = verdict
            verdicts[kind] += 1
            failures.append((seed, kind, detail))
            # The engine is deterministic: a traced rerun of the seed logs
            # the very run that just failed.
            lines = run_scenario(scn, seed, horizon, tuple(args.mutate)).engine.trace
            text = render_scenario(scn)
            scn_path = Path(f"tcran-fail-{seed}.scn")
            scn_path.write_text(text)
            tracefile.write_trace(
                f"tcran-fail-{seed}.trace", text, seed, lines, horizon, args.mutate
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
        tf = tracefile.parse_trace(text)
        report = tracefile.rerun(tf)
    except (ParseError, ValidationError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ReplayDivergence as e:
        print(f"replay divergence: {e}", file=sys.stderr)
        return EXIT_REPLAY
    except SafetyViolation as e:
        print(f"safety violation: {e}", file=sys.stderr)
        return EXIT_SAFETY
    _emit(args, str(path), tf.seed, report)
    print("replay: identical")
    return EXIT_OK


_COMMANDS = {"scenario": cmd_run, "fuzz": cmd_fuzz, "replay": cmd_replay}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    mode = "replay" if args.replay else "fuzz" if args.fuzz is not None else "scenario"
    for dest in _IGNORED[mode]:
        if getattr(args, dest) != ap.get_default(dest):
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} does nothing with --{mode}", file=sys.stderr)
            return EXIT_PARSE
    try:
        return _COMMANDS[mode](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TcranError as e:
        # Anything not mapped above is a bug surfacing; make it loud but typed.
        print(f"unexpected failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SAFETY


if __name__ == "__main__":
    sys.exit(main())
