"""One table of outcomes for every pinned corpus: tests/outcomes.tsv.

A run ends strong, weak, silent, in a bounds failure or in a safety
failure; engine.run_scenario runs it and classes it with
checker.outcome, as it does for the CLI.  This
module owns the named corpora and how each corpus is hashed;
tests/outcomes.tsv holds the result.

The corpora (a "mixed seed" is gen_random_scenario(seed, 3 + seed % 28)):

    identity  the goldens at seeds 1..3, both deliberate mutations run
              through cli.main, and mixed seeds 100..199
    rare      RARE_PATH_RUNS, mixed runs that take rare surrender paths
    grid      mixed seeds 0..2999 under each timing variant of VARIANTS
    ff        failure-free mixed seeds 0..9999
    ff100     failure-free runs at N = 100, seeds 0..49
    n60       mixed runs at N = 60, seeds 0..299
    n100      mixed runs at N = 100, seeds 0..149

The classes, from checker.outcome:

    strong, weak
    bounds              a row of message_bounds_report is exceeded
    safety:<words>      a SafetyViolation, by its first words
    silent:<why>        no announcement: no-exec or exec-dark, or else
                        protocol.blocker's name for what holds the
                        executive back at the end of the run, or
                        weak-armed when nothing does (checker.SILENT,
                        in order)

The table has five tab-separated columns: corpus, seed, variant, class
and detail.  Each run that does not end strong has a row, and so has a
strong run that reaches the horizon.  Each corpus has a "sha256" line
and "counts" lines in the seed column: the hash covers every trace and
every report or violation text of the corpus, and the counts give the
runs of each class.  identity and rare hash each run's
trace and outcome alone (for a mutation: the exit code, stderr and trace
file of the CLI run) and count all their runs on one line.  The other
corpora also hash each run's "{variant}|{seed}" key and, for a run
without world events, the reference detector's report, and count each
variant on its own line.  Run from the repo root:

    PYTHONPATH=src python tests/outcomes.py            # check
    PYTHONPATH=src python tests/outcomes.py --update   # rewrite the table

A check recomputes every corpus, prints the runs whose outcome moved,
grouped as "old class -> new class", and each corpus line that moved,
and exits 1 if anything moved.  A change that moves behaviour on
purpose rewrites the table and says which runs moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from tcran import checker, cli
from tcran.engine import run_scenario
from tcran.mattern import run_reference
from tcran.protocol import KNOWN_MUTATIONS
from tcran.scenario import Scenario, gen_random_scenario, load_scenario, render_scenario

TABLE = Path(__file__).resolve().parent / "outcomes.tsv"
GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
GOLDEN_NAMES = ("sec6", "sec6_pu", "b4_cluster", "b4_cluster_nopu")
GOLDEN_SEEDS = (1, 2, 3)
# Seeds 145 and 164 take the role-requeue path of delivery.
FUZZ_SEEDS = range(100, 200)

# Mixed runs (seed, node count) that reach the rare surrender paths the
# corpus above misses: a returned handover parcel (924, 1094, 517, 1095,
# 1126), a SpecialReclaim (950), and an ordinary parcel bounced back to
# escrow and re-sent (22, 67).
RARE_PATH_RUNS = (
    (924, 3),
    (1094, 5),
    (517, 60),
    (1095, 60),
    (1126, 60),
    (950, 60),
    (22, 60),
    (67, 14),
)

# Timing fields replaced in each grid variant; the first keeps the
# generated ones.
VARIANTS = (
    {},
    {"delay": (1.0, 1.0), "weak_wait": 0.0},
    {"delay": (0.5, 2.0), "weak_wait": 1.0},
    {"delay": (1.0, 1.0), "weak_wait": 5.0},
    {"delay": (0.1, 20.0), "weak_wait": 50.0},
    {"delay": (0.1, 20.0), "weak_wait": 0.0},
)

STRONG = checker.STRONG_RUN

# (corpus, seed or "sha256" or "counts", variant) -> (class, detail)
Key = tuple[str, str, str]
Cell = tuple[str, str]


@dataclass(frozen=True)
class Run:
    seed: int
    variant: str
    scn: Scenario
    # A mutated run also goes through cli.main, which reads the scenario
    # from a file of this text.
    mutation: str | None = None
    text: str = ""


def mixed(
    seed: int, n_nodes: int | None = None, failure_free: bool = False
) -> Scenario:
    n_nodes = 3 + seed % 28 if n_nodes is None else n_nodes
    return gen_random_scenario(seed, n_nodes, failure_free=failure_free)


def identity() -> Iterator[Run]:
    for name in GOLDEN_NAMES:
        scn = load_scenario((GOLDENS / f"{name}.scn").read_text())
        for seed in GOLDEN_SEEDS:
            yield Run(seed, name, scn)
    # The walkthrough trips the in-map bug; the announce-guard bug needs
    # a run whose executive settles before all credit is back.
    bait = {
        "a5-keep-inmap": (GOLDENS / "sec6.scn").read_text(),
        "c2-skip-hold-check": render_scenario(gen_random_scenario(1)),
    }
    for mutation in KNOWN_MUTATIONS:
        text = bait[mutation]
        yield Run(1, mutation, load_scenario(text), mutation, text)
    for seed in FUZZ_SEEDS:
        yield Run(seed, "-", mixed(seed))


def rare() -> Iterator[Run]:
    for seed, n_nodes in RARE_PATH_RUNS:
        yield Run(seed, f"N={n_nodes}", mixed(seed, n_nodes))


def grid(
    seeds: Iterable[int] = range(3000),
    variants: Iterable[int] = range(len(VARIANTS)),
) -> Iterator[Run]:
    for i in variants:
        for seed in seeds:
            yield Run(seed, str(i), dataclasses.replace(mixed(seed), **VARIANTS[i]))


def _sized(
    seeds: range, n_nodes: int | None, failure_free: bool
) -> Callable[[], Iterator[Run]]:
    def runs() -> Iterator[Run]:
        for seed in seeds:
            yield Run(seed, "-", mixed(seed, n_nodes, failure_free))

    return runs


@dataclass(frozen=True)
class Corpus:
    runs: Callable[[], Iterable[Run]]
    keyed: bool  # hash run keys and reference reports, count per variant


CORPORA = {
    "identity": Corpus(identity, keyed=False),
    "rare": Corpus(rare, keyed=False),
    "grid": Corpus(grid, keyed=True),
    "ff": Corpus(_sized(range(10000), None, True), keyed=True),
    "ff100": Corpus(_sized(range(50), 100, True), keyed=True),
    "n60": Corpus(_sized(range(300), 60, False), keyed=True),
    "n100": Corpus(_sized(range(150), 100, False), keyed=True),
}


# --- one run ------------------------------------------------------------------


def play(run: Run, h=None, keyed: bool = False) -> Cell:
    """Run once through engine.run_scenario and return its (class, detail).
    Given a sha256 object h, the run is traced and its bytes go into h,
    with its key and reference report when keyed."""
    mutations = (run.mutation,) if run.mutation else ()
    traced = h is not None
    ended = run_scenario(run.scn, run.seed, mutations=mutations, collect_trace=traced)
    if h is not None:
        if keyed:
            h.update(f"{run.variant}|{run.seed}\n".encode())
        if run.mutation:
            h.update(_cli_bytes(run))
        else:
            if ended.violation is not None:
                outcome = f"safety violation: {ended.violation}"
            else:
                outcome = json.dumps(dataclasses.asdict(ended.report), sort_keys=True)
            h.update("\n".join(ended.engine.trace).encode())
            h.update(f"\n{outcome}\n".encode())
        if keyed and not run.scn.events:
            ref = dataclasses.asdict(run_reference(run.scn, run.seed))
            h.update(f"{json.dumps(ref, sort_keys=True)}\n".encode())
    return ended.cell


def _cli_bytes(run: Run) -> bytes:
    """The exit code, stderr and trace file of the run through cli.main."""
    with tempfile.TemporaryDirectory() as tmp:
        scn_path = Path(tmp, "run.scn")
        scn_path.write_text(run.text)
        out = Path(tmp, "run.trace")
        stderr = io.StringIO()
        argv = ["--scenario", str(scn_path), "--seed", str(run.seed)]
        argv += ["--mutate", run.mutation, "--trace-out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        head = f"{run.mutation}|{code}|{stderr.getvalue()}"
        return head.encode() + out.read_bytes()


# --- the table ------------------------------------------------------------------


def _rank(cls: str) -> tuple:
    kind, _, why = cls.partition(":")
    order = ("strong", "weak", "bounds", "safety", "silent")
    return order.index(kind), checker.SILENT.index(why) if kind == "silent" else why


def compute(name: str) -> dict[Key, Cell]:
    """The table's lines for one corpus, by running it traced."""
    corpus = CORPORA[name]
    h = hashlib.sha256()
    rows: dict[Key, Cell] = {}
    counts: defaultdict[str, Counter] = defaultdict(Counter)
    for run in corpus.runs():
        cell = play(run, h, corpus.keyed)
        if cell != STRONG:
            rows[(name, str(run.seed), run.variant)] = cell
        counts[run.variant if corpus.keyed else "-"][cell[0]] += 1
    lines: dict[Key, Cell] = {(name, "sha256", "-"): ("-", h.hexdigest())}
    for variant, count in counts.items():
        ordered = sorted(count.items(), key=lambda kv: _rank(kv[0]))
        tally = ", ".join(f"{cls} {n}" for cls, n in ordered)
        lines[(name, "counts", variant)] = ("-", tally)
    return lines | rows


def read(path: Path) -> dict[Key, Cell]:
    lines = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            corpus, seed, variant, cls, detail = line.split("\t")
            lines[(corpus, seed, variant)] = (cls, detail)
    return lines


def write(lines: dict[Key, Cell], path: Path):
    header = [
        "# The outcome of every run of the pinned corpora: see tests/outcomes.py.",
        "# A run that ends strong has no row.",
        "# corpus\tseed\tvariant\tclass\tdetail",
    ]
    body = ["\t".join((*key, *cell)) for key, cell in lines.items()]
    path.write_text("\n".join(header + body) + "\n")


def moved(old: dict[Key, Cell], new: dict[Key, Cell]) -> list[str]:
    """What moved from the table to the runs, for the corpora in new."""
    corpora = {key[0] for key in new}
    old = {key: cell for key, cell in old.items() if key[0] in corpora}
    runs: defaultdict[tuple[str, str], list[str]] = defaultdict(list)
    corpus_lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        corpus, seed, variant = key
        was, now = old.get(key, STRONG), new.get(key, STRONG)
        if was == now:
            continue
        if seed.isdigit():
            run = f"  {corpus} {seed} {variant}: {was[1]} -> {now[1]}"
            runs[(was[0], now[0])].append(run)
        else:
            line = f"{corpus} {seed} {variant} moved: {was[1]} -> {now[1]}"
            corpus_lines.append(line)
    report = []
    for (was, now), found in runs.items():
        report.append(f"{was} -> {now} ({len(found)})")
        report += found
    return report + corpus_lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the table")
    args = ap.parse_args(argv)
    new: dict[Key, Cell] = {}
    for name in CORPORA:
        new |= compute(name)
    if args.update:
        write(new, TABLE)
        return 0
    report = moved(read(TABLE), new)
    print("\n".join(report) if report else f"{TABLE.name}: nothing moved")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
