"""The incremental per-event checker against its full recompute.

After every event the engine re-verifies only the nodes that event
touched and keeps the global figures as running totals in a
checker.Figures.  Engine.full_check recomputes them all from the raw
node states and the messages in the queue, so stepping a corpus with a
full check after every step shows that no event changes a node the
engine did not mark as touched, or moves a message it did not count.
"""

from pathlib import Path

import pytest

from tcran.core import COM
from tcran.credit import credit
from tcran.engine import CLS_MSG, Engine
from tcran.errors import HorizonExceeded, SafetyViolation
from tcran.protocol import KNOWN_MUTATIONS
from tcran.scenario import gen_random_scenario, load_scenario

from outcomes import GOLDEN_NAMES, rare

ROOT = Path(__file__).resolve().parent.parent
REGRESSION_SEEDS = (1006, 2434, 5089)


def golden(name):
    return load_scenario((ROOT / "goldens" / f"{name}.scn").read_text())


def run_checked(eng: Engine):
    """Run to the end with a full recompute after every event."""
    try:
        while eng.step():
            eng.full_check()
    except HorizonExceeded:
        eng.full_check()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_goldens_agree_with_full_recompute(name, seed):
    run_checked(Engine(golden(name), seed))


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_regressions_agree_with_full_recompute(seed):
    text = (ROOT / "tests" / "regressions" / f"fuzz_{seed}.scn").read_text()
    run_checked(Engine(load_scenario(text), seed, collect_trace=False))


def test_rare_surrender_paths_agree_with_full_recompute():
    # Returned handover parcels, a SpecialReclaim and re-sent parcels:
    # the paths that move the count of handover parcels in flight.
    parcels = 0
    for run in rare():
        eng = Engine(run.scn, run.seed, collect_trace=False)
        try:
            while eng.step():
                eng.full_check()
                parcels = max(parcels, eng.figures.handover_parcels)
        except HorizonExceeded:
            eng.full_check()
    assert parcels > 0


def test_fuzz_corpus_agrees_with_full_recompute():
    for seed in range(200):
        scn = gen_random_scenario(seed, n_nodes=3 + seed % 28)
        run_checked(Engine(scn, seed, collect_trace=False))


@pytest.mark.parametrize("seed", range(5))
def test_failure_free_hundred_nodes_agree_with_full_recompute(seed):
    scn = gen_random_scenario(seed, n_nodes=100, failure_free=True)
    eng = Engine(scn, seed, collect_trace=False)
    run_checked(eng)
    assert eng.announce[0] == "strong"


@pytest.mark.parametrize("seed", [0, 4])
def test_failure_free_three_hundred_nodes_agree_with_full_recompute(seed):
    # These seeds grow trees of height 11 and 6, so a moved node can have
    # a subtree under it; many seeds at this size stay at height 1 or 2.
    scn = gen_random_scenario(seed, n_nodes=300, failure_free=True)
    eng = Engine(scn, seed, collect_trace=False)
    run_checked(eng)
    assert eng.announce[0] == "strong"


def _failure(eng: Engine, full: bool) -> tuple[int, str]:
    with pytest.raises(SafetyViolation) as caught:
        while eng.step():
            if full:
                eng.full_check()
    return eng.events_processed, str(caught.value)


@pytest.mark.parametrize("mutation", KNOWN_MUTATIONS)
def test_mutants_fail_at_the_same_event_with_full_recompute(mutation):
    # The same bait as the identity pin: the walkthrough trips the in-map
    # bug, random scenario 1 the announce-guard bug.
    scn = golden("sec6") if mutation == "a5-keep-inmap" else gen_random_scenario(1)
    fast = _failure(Engine(scn, 1, mutations=(mutation,)), full=False)
    full = _failure(Engine(scn, 1, mutations=(mutation,)), full=True)
    assert fast == full


@pytest.mark.parametrize(
    "edit, stale",
    [
        ("hold", "credit, held"),
        ("parent", "executives, shape"),
        ("adopt", "shape, children, depth, levels, height"),
        ("cycle", "executives, shape, children, depth, levels"),
        ("com", "inflight, coms"),
    ],
)
def test_edit_behind_the_engines_back_is_caught(edit, stale):
    eng = Engine(golden("sec6"), 1)
    for _ in range(12):
        eng.step()
    eng.full_check()
    # No event touched the edited node, so only the full recompute can
    # see the edit.  Node 5 is passive and out of the tree; node 4 is an
    # orphan (its parent 3 is passive), and executive 1 has child 2.  A
    # message queued without _launch was never counted into flight.
    nodes = eng.nodes
    if edit == "hold":
        nodes[5].hold = nodes[5].hold + credit(1, 7)
    elif edit == "parent":
        nodes[5].parent = 5
    elif edit == "adopt":
        nodes[4].parent = 2  # from a flat depth 2 to depth 3
    elif edit == "cycle":
        nodes[1].parent = 2  # a pointer cycle 1 <-> 2, no executive on it
    else:
        eng._push(eng.now + 1, CLS_MSG, Engine._deliver, (5, 1, COM(credit(1, 7))))
    with pytest.raises(AssertionError, match=f"stale checker caches: {stale}$"):
        eng.full_check()
