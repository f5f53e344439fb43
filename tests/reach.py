"""Which statements of protocol.py and engine.py a corpus of runs never reaches.

Reach comes from sys.settrace alone, so the tool needs nothing beyond the
standard library.  Every run of the corpus is traced line by line inside
the two modules; a statement counts as reached when a line event lands
on one of its own lines (for an if, for, while or with: its header).
Each statement is named by its function and its source text, with the
headers of the blocks around it, so the names survive edits elsewhere in
the file:

    on_special | if isinstance(m, SpecialForward): > if not _live(st, out): > return out

The fixed corpus is the identity and rare corpora of tests/outcomes.py
(the goldens at seeds 1..3, both deliberate mutations and mixed fuzz
runs), every scenario under tests/regressions/ at the seed its header
names, and REACH_RUNS.  The wide corpus adds mixed fuzz seeds 0..3999
and 100 mixed runs at N = 60.
UNREACHED pins what the fixed corpus leaves unreached; test_reach.py
holds the tier-1 check.  Run from the repo root:

    PYTHONPATH=src python tests/reach.py           # fixed corpus
    PYTHONPATH=src python tests/reach.py --wide    # wide corpus

Either prints the unreached statements and exits 1 unless they are
exactly UNREACHED: a new unreached statement is a path to reach or
delete, and a pinned one that a run now reaches should leave the pin.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator

from tcran import engine, protocol
from tcran.engine import run_scenario
from tcran.scenario import Scenario, load_scenario

from outcomes import identity, mixed, rare
from test_regressions import REGRESSIONS, run_seed

MODULES = (protocol, engine)
WIDE_MIXED_SEEDS = range(4000)
WIDE_N60_SEEDS = range(100)

# Mixed fuzz runs (seed, node count) that take paths the rest of the
# fixed corpus misses.  They run untraced, which takes the engine's
# untraced path too.
REACH_RUNS = (
    (756, 3),  # an event past the horizon
    (784, 3),  # a PaN that lands after the announcement or the recovery
    (1915, 14),  # a claim cancel that arrives ahead of its claim
    (392, 3),  # a node that recovers active with its work done
    (1489, 8),  # a plan larger than the credit in hand is skipped
    (1681, 4),  # a weak timer whose books moved since arming
    (1717, 12),  # a second PaN for one ledger row
)

# What the fixed corpus never reaches.  The wide corpus reaches none of
# it either.
UNREACHED = frozenset(
    {
        # Safety raises: a correct run never takes them.
        'engine.Engine._announce | if self.announce is not None: > first, at, by = self.announce',
        'engine.Engine._announce | if self.announce is not None: > raise SafetyViolation(',
        'engine.Engine._find_ce | if len(holders) > 1: > raise SafetyViolation(',
        'engine.Engine.full_check | if stale: > raise AssertionError(',
        'protocol.choose_new_ce | if not candidates: > raise NoActivePeer("no active candidate for the executive role")',
        'protocol.distribute | if shares >= st.hold: > raise InsufficientCredit(',
        'protocol.distribute | if st.state != ACTIVE: > raise InsufficientCredit(f"node {st.id} is passive, cannot distribute")',
        'protocol.on_aack_timeout | if st.hold < rec.amount: > raise NegativeCredit(',
        'protocol.on_external_start | if st.state == ACTIVE: > raise AlreadyActive(f"node {st.id} already active")',
        'protocol.on_pan | if not st.is_ce(): > raise NotChiefExecutive(f"node {st.id} got a PaN without the role")',
        # A raise on input the scenario parser and the engine never make.
        'engine.Engine.__init__ | if unknown: > raise ValueError(f"unknown mutations {unknown}")',
        # A SpecialReclaim that reaches the executive after it announced.
        # No run of the wide corpus takes it, and no argument rules it
        # out.
        'protocol.on_special | if not _live(st, out): > return out',
    }
)

# A scenario, its run seed, its mutations, and whether to trace it.
Run = tuple[Scenario, int, tuple[str, ...], bool]


def fixed_corpus() -> Iterator[Run]:
    for run in (*identity(), *rare()):
        yield run.scn, run.seed, (run.mutation,) if run.mutation else (), True
    for path in sorted(REGRESSIONS.glob("*.scn")):
        text = path.read_text()
        yield load_scenario(text), run_seed(text), (), True
    for seed, n_nodes in REACH_RUNS:
        yield mixed(seed, n_nodes), seed, (), False


def wide_corpus() -> Iterator[Run]:
    yield from fixed_corpus()
    for seed in WIDE_MIXED_SEEDS:
        yield mixed(seed), seed, (), False
    for seed in WIDE_N60_SEEDS:
        yield mixed(seed, 60), seed, (), False


def statements(path: Path) -> dict[str, frozenset[int]]:
    """Every statement inside a function of the file, by name: its own lines."""
    src = path.read_text().splitlines()
    found: dict[str, frozenset[int]] = {}

    def first(node: ast.AST) -> str:
        return src[node.lineno - 1].strip()

    def add(func: str, context: tuple[str, ...], lines: range, text: str):
        name = f"{func} | {' > '.join((*context, text))}"
        n = 1
        while (key := name if n == 1 else f"{name} #{n}") in found:
            n += 1
        found[key] = frozenset(lines)

    def block(func: str, context: tuple[str, ...], body: list[ast.stmt]):
        for i, stmt in enumerate(body):
            if (
                i == 0
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                continue  # a docstring is no statement
            statement(func, context, stmt)

    def statement(func: str, context: tuple[str, ...], stmt: ast.stmt):
        if isinstance(stmt, ast.FunctionDef):
            add(func, context, range(stmt.lineno, stmt.body[0].lineno), first(stmt))
            function(f"{func}.{stmt.name}", stmt)
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
            header = first(stmt)
            add(func, context, range(stmt.lineno, stmt.body[0].lineno), header)
            block(func, (*context, header), stmt.body)
            if stmt.orelse:
                elif_ = (
                    isinstance(stmt, ast.If)
                    and len(stmt.orelse) == 1
                    and isinstance(stmt.orelse[0], ast.If)
                    and first(stmt.orelse[0]).startswith("elif")
                )
                block(func, context if elif_ else (*context, "else:"), stmt.orelse)
        elif isinstance(stmt, ast.Try):
            # A try: line runs no code of its own on every version.
            block(func, (*context, "try:"), stmt.body)
            for h in stmt.handlers:
                header = first(h)
                add(func, context, range(h.lineno, h.body[0].lineno), header)
                block(func, (*context, header), h.body)
            block(func, (*context, "else:"), stmt.orelse)
            block(func, (*context, "finally:"), stmt.finalbody)
        else:
            add(func, context, range(stmt.lineno, stmt.end_lineno + 1), first(stmt))

    def function(name: str, fn: ast.FunctionDef):
        block(name, (), fn.body)

    for node in ast.parse("\n".join(src)).body:
        if isinstance(node, ast.FunctionDef):
            function(node.name, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    function(f"{node.name}.{item.name}", item)
    return found


def reached_lines(runs: Iterator[Run]) -> dict[str, set[int]]:
    """Run the corpus under a line tracer confined to MODULES."""
    files = {m.__file__: set() for m in MODULES}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    outer = sys.gettrace()
    sys.settrace(global_)
    try:
        for scn, seed, mutations, traced in runs:
            run = run_scenario(scn, seed, mutations=mutations, collect_trace=traced)
            # Mutation bait and pinned findings end in a violation.
            if run.violation is None:
                run.engine.full_check()
    finally:
        sys.settrace(outer)
    return files


def unreached(runs: Iterator[Run]) -> set[str]:
    reached = reached_lines(runs)
    missed = set()
    for module in MODULES:
        hit = reached[module.__file__]
        stem = Path(module.__file__).stem
        for name, lines in statements(Path(module.__file__)).items():
            if not lines & hit:
                missed.add(f"{stem}.{name}")
    return missed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--wide",
        action="store_true",
        help="add mixed seeds 0..3999 and 100 mixed runs at N = 60",
    )
    args = ap.parse_args(argv)
    missed = unreached(wide_corpus() if args.wide else fixed_corpus())
    for name in sorted(missed):
        mark = "" if name in UNREACHED else "  (not pinned)"
        print(f"{name}{mark}")
    for name in sorted(UNREACHED - missed):
        print(f"reached but pinned: {name}")
    return 0 if missed == UNREACHED else 1


if __name__ == "__main__":
    sys.exit(main())
