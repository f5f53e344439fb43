"""Acceptance sweep: nine independently checkable claims, one line each.

Every test prints exactly one `criterion N: PASS/FAIL` line (visible with
-s or in the captured output), and the test name itself carries the same
verdict under plain pytest.  Budgets are asserted, not assumed: the two
walkthrough scenarios must finish inside a second, the thousand-run fuzz
sweep inside two minutes.
"""

import json
import re
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import pytest

from tcran import trace as tracefile
from tcran.checker import assert_bounds
from tcran.credit import ONE, credit_sum
from tcran.engine import Engine, run_scenario
from tcran.mattern import run_reference
from tcran.scenario import gen_random_scenario, load_scenario

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
EXPECTED = json.loads((GOLDENS / "expected.json").read_text())

FUZZ_RUNS = 1000
FUZZ_BUDGET_S = 120.0
WALKTHROUGH_BUDGET_S = 1.0


def golden(name):
    return load_scenario((GOLDENS / f"{name}.scn").read_text())


@contextmanager
def criterion(num, claim):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {claim}", flush=True)
        raise
    print(f"criterion {num}: PASS - {claim}", flush=True)


@pytest.fixture(scope="module")
def mixed_corpus():
    """1000 seeded scenarios, 3..30 nodes, full event mix; shared by 3/4/6."""
    t0 = time.monotonic()
    runs, violations = [], []
    for seed in range(FUZZ_RUNS):
        scn = gen_random_scenario(seed, n_nodes=3 + seed % 28)
        run = run_scenario(scn, seed, collect_trace=False)
        if run.violation is None:
            runs.append((seed, scn, run.report))
        else:
            violations.append((seed, str(run.violation)))
    return runs, violations, time.monotonic() - t0


def test_criterion_1_walkthrough_credit_sequence():
    with criterion(1, "six-node walkthrough reproduces the exact credit flow"):
        t0 = time.monotonic()
        run = run_scenario(golden("sec6"), seed=1)
        elapsed = time.monotonic() - t0
        rep = run.report
        text = "\n".join(run.engine.trace)
        # initiator keeps exactly a tenth, grants the other nine
        assert "0|1|A2|fanout|hold=1/10" in text
        assert "COM(9/10) from 1 activated" in text
        # node 3 books node 5's lend: in_3[5] = 1/10
        assert "5|3|A3|COM(1/10) from 5|hold=1/10,in=1/10" in text
        # node 5 surrenders 1/10 with one child record to node 4
        assert "8|4|A5|ImPC(1/10,b=1,children[6>2/5],parcel=5.1) from 5" in text
        # node 3 pays node 6 its fifth and hands node 2 the child claim
        assert "7.5|6|A5|ImPC(1/5,b=0,parcel=3.2) from 3|hold=3/10" in text
        assert "7.5|2|A5|ImPC(1/10,b=1,children[4>7/10],parcel=3.3) from 3" in text
        # node 4 climbs to six tenths
        assert "10.5|4|A5|ImPC(3/10,b=0,parcel=6.1) from 6|hold=3/5" in text
        # node 2 takes the role holding the full unit, then announces
        assert "from 1 became-CE|hold=1" in text
        assert "14.5|2|announce|strong|hold=1" in text
        spec = EXPECTED["sec6"]
        assert rep.terminated == "strong" and rep.announcer == 2
        assert rep.announce_time == spec["announce_time"] == 14.5
        assert rep.final_sum == "1" and rep.counters == spec["counters"]
        assert elapsed < WALKTHROUGH_BUDGET_S


def test_criterion_2_spectrum_walkthrough():
    with criterion(2, "primary-user walkthrough: reports, balance, weak verdict"):
        scn = golden("sec6_pu")
        t0 = time.monotonic()
        eng = Engine(scn, 1)
        rep = eng.run()
        elapsed = time.monotonic() - t0
        text = "\n".join(eng.trace)
        # the channel-5 user silences exactly nodes 3 and 4
        assert "6|world|pu-appear|ch=5 hit=[3, 4] retuned=[1, 2, 5, 6]" in text
        # both affected nodes get reported to the executive
        assert "8|1|B2|PaN(3,in=0,out=3/10) from 2" in text
        assert "8|1|B2|PaN(4,in=0,out=1/20) from 6" in text
        # held credit plus ledgered credit covers the whole unit while dark
        mid = Engine(scn, 1, horizon=40)
        mid.run()
        boss = mid.nodes[1]
        assert boss.settled
        assert boss.hold + boss.ledger_balance() == ONE
        # the weak claim waits out the full grace period
        assert "13|1|A4|workload done weak-armed@63|hold=13/20" in text
        assert "63|1|announce|weak|hold=13/20" in text
        assert rep.terminated == "weak" and rep.announcer == 1
        assert rep.announce_time == 13 + scn.weak_wait
        # once the user leaves, the credit physically sits at 1, 3 and 4
        located = {
            nid: st.hold + credit_sum(st.in_map.values())
            for nid, st in eng.nodes.items()
            if st.local_credit() != 0
        }
        assert set(located) == {1, 3, 4}
        assert credit_sum(located.values()) == ONE
        assert rep.counters == EXPECTED["sec6_pu"]["counters"]
        assert elapsed < WALKTHROUGH_BUDGET_S


def test_criterion_3_fuzz_sweep_is_safe(mixed_corpus):
    with criterion(3, f"{FUZZ_RUNS} random scenarios: no false or early claims"):
        runs, violations, elapsed = mixed_corpus
        assert violations == []
        assert len(runs) == FUZZ_RUNS
        assert elapsed < FUZZ_BUDGET_S
        # the sweep actually covers the advertised hostile conditions
        sizes = {len(scn.workload) for _, scn, _ in runs}
        assert max(sizes) == 30 and min(sizes) == 3
        kinds = {e.kind for _, scn, _ in runs for e in scn.events}
        assert kinds == {"pu-appear", "pu-disappear", "fail", "recover", "crash"}
        assert any(scn.delay != (1.0, 1.0) for _, scn, _ in runs)  # reordering
        assert any(rep.counters.get("drop") for _, _, rep in runs)  # lost handshakes


def test_criterion_4_conservation_every_event(mixed_corpus):
    with criterion(4, "credit conserved after every event; leak mutant caught"):
        runs, violations, _ = mixed_corpus
        # the engine audits the global sum after each event; any slip
        # would have surfaced as a violation in the sweep
        assert violations == []
        assert all(rep.final_sum == "1" for _, _, rep in runs if rep.terminated)
        run = run_scenario(golden("sec6"), seed=1, mutations=("a5-keep-inmap",))
        assert re.search("credit sum", str(run.violation))
        assert run.cell[0].startswith("safety:")


def test_criterion_5_liveness_and_tree_heights(mixed_corpus):
    with criterion(5, "failure-free runs all end strong; heights 1 (strong) / 2 (weak)"):
        runs, _, _ = mixed_corpus
        quiet = [(seed, rep) for seed, scn, rep in runs if not scn.events]
        assert quiet, "sweep produced no event-free scenarios"
        for seed, rep in quiet:
            assert rep.terminated == "strong", f"seed {seed} never announced"
            assert not rep.horizon_hit
            assert rep.height_at_announce == 1
        for seed in range(150):
            scn = gen_random_scenario(seed, n_nodes=3 + seed % 28, failure_free=True)
            rep = run_scenario(scn, seed, collect_trace=False).report
            assert rep.terminated == "strong" and not rep.horizon_hit
            assert rep.height_at_announce == 1
        for name in ("sec6_pu", "b4_cluster"):
            assert EXPECTED[name]["terminated"] == "weak"
            assert EXPECTED[name]["height_at_announce"] == 2


def test_criterion_6_message_counts_within_bounds(mixed_corpus):
    with criterion(6, "per-kind message counts never exceed their ceilings"):
        runs, _, _ = mixed_corpus
        for seed, _, rep in runs:
            assert_bounds(rep.bounds)
        for name in sorted(k for k in EXPECTED if k != "comment"):
            scn = golden(name)
            spec = EXPECTED[name]
            horizon = scn.horizon * spec.get("horizon_multiplier", 1)
            rep = run_scenario(scn, seed=spec["seed"], horizon=horizon).report
            assert rep.counters == spec["counters"]
            assert_bounds(rep.bounds)


def test_criterion_7_persistent_user_forces_weak():
    with criterion(7, "four-cluster user: weak now, strong only once it leaves"):
        scn = golden("b4_cluster")
        rep = run_scenario(scn, seed=1, horizon=scn.horizon * 10).report
        assert rep.terminated == "weak" and rep.announcer == 1
        # the queue drained long before the stretched horizon: nothing is
        # left that could ever upgrade the verdict
        assert not rep.horizon_hit
        assert rep.end_time < scn.horizon * 10
        twin = golden("b4_cluster_nopu")
        rep2 = run_scenario(twin, seed=1).report
        assert rep2.terminated == "strong"
        assert rep2.announce_time == rep2.ground_truth == 20.0


def test_criterion_8_reference_detector_agrees():
    with criterion(8, "reference detector agrees on ground truth, 100 scenarios"):
        for seed in range(100):
            scn = gen_random_scenario(seed, n_nodes=3 + seed % 12, failure_free=True)
            rep = run_scenario(scn, seed, collect_trace=False).report
            ref = run_reference(scn, seed)
            assert ref.ground_truth == rep.ground_truth, f"seed {seed}"
            assert rep.announce_time >= rep.ground_truth
            assert ref.announce_time >= ref.ground_truth


def test_criterion_9_replay_is_bit_identical():
    with criterion(9, "same seed replays to a bit-identical trace"):
        for name in ("sec6", "sec6_pu"):
            scn_text = (GOLDENS / f"{name}.scn").read_text()
            scn = load_scenario(scn_text)
            one, two = run_scenario(scn, seed=1), run_scenario(scn, seed=1)
            assert one.engine.trace == two.engine.trace
            assert asdict(one.report) == asdict(two.report)
            rendered = tracefile.render_trace(scn_text, 1, one.engine.trace)
            assert asdict(tracefile.replay(rendered)) == asdict(one.report)
        evented = gen_random_scenario(5, n_nodes=12)
        one, two = run_scenario(evented, seed=5), run_scenario(evented, seed=5)
        assert one.violation is None
        assert one.engine.trace == two.engine.trace
