"""Benchmark for the tcran simulator: one workload, one process, one thread.

    python3 bench/run.py --workload fuzz_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the goldens from ``goldens/``.  Workloads, metric names,
units and directions are listed in ``BENCHMARK.json``.

The run first re-checks the goldens against ``goldens/expected.json``,
then loops over the workload's seeded corpus, one checked scenario at a
time, until ``--seconds`` have passed (whole passes, at least one).
Host-time figures cover every timed run of every pass, so a short slow
or fast stretch of a shared host is averaged over the run rather than
picked out.  Simulated figures, the verdicts and the output digest come
from the first pass and repeat exactly at a fixed seed; every later pass
must reproduce them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half with span wrappers installed, and prints the
per-layer metrics for the pre-flight plus one pass over the corpus; the
spans go to ``.bench_out/spans-<workload>.tsv.gz``.  The last line of
standard output is one JSON object; everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by the set-up timer: start, import, pre-flight, exit.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class SetupTimer:
    """Wall time of fresh processes that start, import tcran and pre-flight.

    One is timed after each pass, so the samples spread over the run
    rather than all landing in one stretch of host load.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []
        self._run()  # warms the bytecode cache; not counted

    def _run(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def sample(self):
        self.times.append(self._run())

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tcran" / "__init__.py").is_file():
        print(f"error: no tcran package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tcran
    from metrics import end_to_end, measure, traced_run
    from tracing import Calls
    from workloads import WORKLOADS, preflight

    if not Path(tcran.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tcran from {tcran.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pf = preflight(ROOT, Calls())
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0  # the measuring process reports pre-flight problems

    seeds = workload.seeds(args.seed)
    print(f"workload {workload.name}, seed {args.seed}: scenario seeds "
          f"{seeds.start}..{seeds.stop - 1}, closed loop on one thread")
    print(f"environment: python {platform.python_version()}, tcran backend "
          f"{tcran.BACKEND}, nproc {os.cpu_count()}")
    problems = [f"pre-flight: {p}" for p in pf.problems]
    if args.trace == 0:
        setup = SetupTimer(workload.name, args.seed)
        m = measure(workload, seeds, args.seconds, Calls(), between_passes=setup.sample)
        metrics, notes = end_to_end(m, setup.median())
        wanted = [e["name"] for e in spec["end_to_end"]]
    else:
        spans = ROOT / ".bench_out" / f"spans-{workload.name}.tsv.gz"
        metrics, m, traced_problems = traced_run(ROOT, workload, seeds, args.seconds, spans)
        problems += traced_problems
        notes = ["per-layer figures are for the pre-flight plus one pass over the corpus"]
        wanted = [e["name"] for e in spec["per_layer"]]
    problems += [f"seed {s} changed between passes" for s in m.unstable]

    print(f"{m.passes} untraced passes, {m.runs} runs in {m.wall_s:.3f} s")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(f"digest: sha256:{m.digest}")
    for o in m.outcomes:
        if o.failure is not None:
            print(f"failed seed {o.seed} ({o.failure}): {o.detail}")
    for p in problems:
        print(f"INCORRECT: {p}")
    result = {
        "correct": not problems,
        # One operation is one scenario of the corpus, checked on every
        # pass; the count does not depend on how many passes fit.
        "attempted": len(m.outcomes),
        "failed": m.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
