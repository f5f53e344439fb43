"""Whole-run engine behavior: committed scenarios, determinism, message
reordering, darkness handling, and fault injection."""

import gc
import itertools
import json
import random
import re
import types
import weakref
from pathlib import Path

import pytest

from tcran import checker, scenario
from tcran.core import COM, ImP, NaP, PaN, TM
from tcran.credit import ZERO, Credit, credit
from tcran.engine import CLS_MSG, Engine, run_scenario
from tcran.errors import HorizonExceeded, SafetyViolation
from tcran.scenario import Draws, gen_random_scenario, load_scenario

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
EXPECTED = json.loads((GOLDENS / "expected.json").read_text())


def golden(name):
    return load_scenario((GOLDENS / f"{name}.scn").read_text())


def run_golden(name):
    scn = golden(name)
    spec = EXPECTED[name]
    horizon = (
        scn.horizon * spec["horizon_multiplier"]
        if "horizon_multiplier" in spec
        else None
    )
    run = run_scenario(scn, seed=spec["seed"], horizon=horizon)
    assert run.violation is None
    return spec, run.report, run.engine.trace


@pytest.mark.parametrize("name", sorted(k for k in EXPECTED if k != "comment"))
def test_committed_scenarios_match_expected_reports(name):
    spec, report, _ = run_golden(name)
    assert report.terminated == spec["terminated"]
    assert report.announcer == spec["announcer"]
    assert report.announce_time == spec["announce_time"]
    assert report.ground_truth == spec["ground_truth"]
    assert report.end_time == spec["end_time"]
    assert report.height_max == spec["height_max"]
    assert report.height_at_announce == spec["height_at_announce"]
    assert report.final_sum == spec["final_sum"]
    assert report.counters == spec["counters"]
    assert report.anomalies == []
    assert not report.horizon_hit
    assert all(row["ok"] for row in report.bounds.values())


def test_sec6_walkthrough_checkpoints():
    _, report, trace = run_golden("sec6")
    text = "\n".join(trace)
    # the initiator keeps a tenth and grants the rest
    assert "0|1|A2|fanout|hold=1/10" in text
    assert "COM(9/10) from 1 activated" in text
    # node 3 books node 5's lend as an in-entry
    assert "5|3|A3|COM(1/10) from 5|hold=1/10,in=1/10" in text
    # node 5 hands its credit and its child record for 6 up to node 4
    assert "8|4|A5|ImPC(1/10,b=1,children[6>2/5],parcel=5.1) from 5" in text
    # node 3's split: lend returns, then the main parcel to its parent
    assert "7.5|6|A5|ImPC(1/5,b=0,parcel=3.2) from 3|hold=3/10" in text
    assert "7.5|2|A5|ImPC(1/10,b=1,children[4>7/10],parcel=3.3) from 3" in text
    # node 4 aggregates to six tenths
    assert "10.5|4|A5|ImPC(3/10,b=0,parcel=6.1) from 6|hold=3/5" in text
    # node 2 inherits the executive role with the full credit in hand
    assert "from 1 became-CE|hold=1" in text
    assert "14.5|2|announce|strong|hold=1" in text


def test_sec6_pu_walkthrough_checkpoints():
    _, report, trace = run_golden("sec6_pu")
    text = "\n".join(trace)
    # the primary user empties exactly the channel sets of nodes 3 and 4
    assert "pu-appear|ch=5 hit=[3, 4]" in text
    # both report lines reach node 1
    assert "8|1|B2|PaN(3,in=0,out=3/10) from 2" in text
    assert "8|1|B2|PaN(4,in=0,out=1/20) from 6" in text
    # books balance the moment node 1 settles; announcement waits out the timer
    assert "13|1|A4|workload done weak-armed@63|hold=13/20" in text
    assert "63|1|announce|weak|hold=13/20" in text
    # after the channel frees up, the parked credits still sum to one
    final = {}
    for ln in trace:
        parts = ln.split("|")
        if parts[1] in ("1", "3", "4"):
            final[parts[1]] = parts[4]
    assert final["1"] == "hold=13/20"
    assert final["3"] == "hold=1/5"
    assert final["4"] == "hold=1/10,in=1/20"


def test_cluster_chain_weak_but_never_strong():
    spec, report, trace = run_golden("b4_cluster")
    assert report.terminated == "weak"
    # ten times the scenario horizon and the queue still drained long ago
    assert report.end_time < golden("b4_cluster").horizon
    text = "\n".join(trace)
    assert "pu-appear|ch=4 hit=[10, 11, 12]" in text
    assert text.count("|B2|") == 1  # only head 7 can observe the dark cluster


def test_cluster_chain_without_pu_is_strong():
    _, report, _ = run_golden("b4_cluster_nopu")
    assert report.terminated == "strong"
    assert report.announce_time == report.ground_truth == 20.0


# --- determinism -----------------------------------------------------------


def test_same_seed_same_trace_bit_for_bit():
    scn = gen_random_scenario(7)
    a, b = run_scenario(scn, seed=7), run_scenario(scn, seed=7)
    assert a.violation is None
    assert a.engine.trace == b.engine.trace
    assert a.report == b.report


def test_different_seed_changes_delivery_times():
    scn = gen_random_scenario(7)
    assert scn.delay[0] < scn.delay[1], "generator should produce a delay range"
    a, b = run_scenario(scn, seed=7), run_scenario(scn, seed=8)
    assert a.violation is None and b.violation is None
    assert a.engine.trace != b.engine.trace


def test_trace_does_not_perturb_the_run():
    scn = gen_random_scenario(11)
    traced = run_scenario(scn, seed=11, collect_trace=True)
    untraced = run_scenario(scn, seed=11, collect_trace=False)
    assert untraced.engine.trace == []
    assert traced.violation is None
    assert traced.report == untraced.report
    assert traced.engine.trace


# --- message reordering ------------------------------------------------------


REORDER = """\
tcran-scenario v1

[params]
delay = 0.5..2
horizon = 100

[channels]
5 9

[nodes]
1: 5 9 @5
2: 5 9 @5
3: 5 @5
4: 5 @5

[topology]
1-2
2-3
2-4

[start]
at 0 node 1

[workload]
1: 30
2: 30
3: 30
4: 30

[plan]
1: 2=1/2
2: 3=1/8 4=1/8

[events]
at 6 pu-appear 5
"""


def test_channel_is_not_fifo_between_a_fixed_pair():
    # Node 2 reports both dark neighbors in the order 3-then-4 on the same
    # link to node 1; with a spread delay range some seed delivers them
    # swapped.  Scanning a handful of seeds keeps this deterministic.
    scn = load_scenario(REORDER)
    for seed in range(40):
        run = run_scenario(scn, seed=seed)
        assert run.violation is None
        arrivals = [
            ln.split("|")[3].split(",")[0]
            for ln in run.engine.trace
            if "|1|B2|PaN(" in ln
        ]
        if arrivals == ["PaN(4", "PaN(3"]:
            return
    pytest.fail("no seed reordered the two reports; channel looks FIFO")


# --- darkness, drops, and the escrow path -------------------------------------


DARK_PARENT = """\
tcran-scenario v1

[params]
horizon = 100

[channels]
5 9

[nodes]
1: 5 @5
2: 5 9 @5

[topology]
1-2

[start]
at 0 node 1

[workload]
1: 20
2: 3

[plan]
1: 2=1/2

[events]
at 4.5 pu-appear 5
at 7 pu-disappear 5
"""


def test_parcel_to_dark_parent_returns_to_escrow_and_retries():
    run = run_scenario(load_scenario(DARK_PARENT), seed=1)
    text = "\n".join(run.engine.trace)
    assert "escrow-return" in text
    assert "re-sent" in text
    assert run.report.counters["drop"] == 1
    assert run.report.counters["retry"] == 1
    assert run.report.terminated == "strong"
    assert run.report.final_sum == "1"


def test_crashed_node_never_recovers():
    text = DARK_PARENT.replace("at 4.5 pu-appear 5", "at 4.5 crash 1").replace(
        "at 7 pu-disappear 5", "at 7 recover 1"
    )
    report = run_scenario(load_scenario(text), seed=1).report
    assert report.terminated is None
    assert any("recover on crashed node 1" in a for a in report.anomalies)
    assert report.final_sum == "1"


# --- injection ---------------------------------------------------------------


def finished_engine(name="sec6"):
    eng = Engine(golden(name), seed=1)
    eng.run()
    return eng


def inject(eng, frm, dst, msg):
    """Put an arbitrary message on the air, one time unit from now."""
    eng._launch(eng.now + 1, CLS_MSG, dst, frm, msg)


def test_stale_zero_cargo_messages_change_nothing_after_tm():
    # Late messages reach nodes that already heard the announcement.
    eng = finished_engine()
    holds = {nid: st.hold for nid, st in eng.nodes.items()}
    inject(eng, 3, 2, COM(ZERO))
    inject(eng, 3, 2, ImP(p=1))
    inject(eng, 3, 2, TM(mode="strong"))
    eng.run()
    assert {nid: st.hold for nid, st in eng.nodes.items()} == holds
    assert eng.announce[0] == "strong"  # still the one announcement


def test_injected_foreign_credit_is_caught_by_conservation():
    eng = finished_engine()
    inject(eng, 3, 2, COM(credit(1, 3)))
    with pytest.raises(SafetyViolation, match="credit sum"):
        eng.run()


def test_moved_claim_on_a_reactivated_node_is_cancelled():
    # A node surrenders, is reactivated under a new parent, and only then
    # hears that its old debt's claim moved in a handover. The claim
    # holder must be paid or told; otherwise its books never close and no
    # announcement can ever happen. Seed 4 hits exactly this interleaving.
    scn = gen_random_scenario(4, n_nodes=7)
    assert not scn.events
    run = run_scenario(scn, 4)
    assert run.report.terminated == "strong"
    assert any("claim-cancel->" in ln for ln in run.engine.trace)


def test_second_announcement_is_a_safety_violation():
    # An executive that forgets it spoke must not speak again: a NaP
    # makes it re-check its books, which are still complete.
    eng = finished_engine()
    mode, _, boss = eng.announce
    eng.nodes[boss].terminated = None
    inject(eng, boss, None, NaP(boss))
    with pytest.raises(SafetyViolation, match=f"node {boss} announced {mode} after"):
        eng.run()


def test_two_executives_at_role_delivery_are_a_safety_violation():
    # A second node takes the role in the event before a role-addressed
    # message is resolved.
    eng = finished_engine()
    boss = eng.announce[2]
    other = next(k for k in eng.nodes if k != boss)
    eng.nodes[other].parent = other
    eng._touched.add(other)
    inject(eng, other, None, COM(ZERO))
    with pytest.raises(SafetyViolation, match="two executives"):
        eng.step()


# --- the per-event checks --------------------------------------------------------


def test_every_event_is_checked(monkeypatch):
    calls = {}

    def counting(name):
        check = getattr(checker, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(checker, name, counted)

    names = ("assert_conservation", "assert_state_invariant", "assert_single_ce")
    for name in names:
        counting(name)
    runs = [(gen_random_scenario(s, n_nodes=3 + s % 28), s) for s in (17, 20, 164)]
    runs.append((gen_random_scenario(5, n_nodes=100, failure_free=True), 5))
    for scn, seed in runs:
        calls.update(dict.fromkeys(names, 0))
        report = run_scenario(scn, seed, collect_trace=False).report
        assert report.events_processed > 0
        assert calls == dict.fromkeys(names, report.events_processed), seed


def test_an_engine_is_freed_without_the_cyclic_collector():
    # Nothing the engine keeps may hold one of its bound methods: that
    # would make a cycle, and only the cyclic collector could free it.
    # Queue entries count too, so one engine of each pair is dropped
    # mid-run, as a SafetyViolation leaves it.
    runs = [(golden("sec6"), 1), (gen_random_scenario(17, n_nodes=20), 17)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for (scn, seed), steps in itertools.product(runs, (5, None)):
            eng = Engine(scn, seed)
            if steps is None:
                eng.run()
            else:
                for _ in range(steps):
                    eng.step()
                assert eng.queue
            ref = weakref.ref(eng)
            del eng
            assert ref() is None, (seed, steps)
        # A run that run_scenario hands back with its violation.
        run = run_scenario(golden("sec6"), seed=1, mutations=("a5-keep-inmap",))
        ref = weakref.ref(run.engine)
        del run
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _reaches(roots, target) -> bool:
    # Everything reachable from roots by reference, short of classes and
    # modules, which lead to everything.
    seen, todo = set(), list(roots)
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return False


def test_one_ctx_serves_every_handler_call():
    scn = load_scenario(DARK_PARENT.replace("horizon = 100", "horizon = 100\nchoice = random"))
    eng = Engine(scn, seed=7)
    for _ in range(3):
        eng.step()
    assert eng.now > 0
    first = eng._ctx(1)
    ctx = eng._ctx(2)
    assert ctx is first
    assert ctx.now == eng.now
    # The draw comes from the choosing node's own stream.
    xs = list(range(50))
    mine, other = (random.Random(f"7|choice|{k}|1").choice(xs) for k in (2, 1))
    assert mine != other  # the streams tell the nodes apart
    assert ctx.choose(2, xs) == mine
    assert eng.draws._choice_n == {2: 1}
    # The callables close over the node map, never over the engine, so
    # keeping the Ctx on the engine makes no cycle.
    assert not _reaches([ctx.view, ctx.active_peers, ctx.choose], eng)


# --- mutations and the horizon ------------------------------------------------


def test_inmap_mutant_is_caught_by_the_conservation_check():
    run = run_scenario(golden("sec6"), seed=1, mutations=("a5-keep-inmap",))
    assert re.search("credit sum", str(run.violation))
    assert run.cell[0].startswith("safety:")


def test_announce_mutant_is_caught_at_announcement():
    scn = gen_random_scenario(1)
    assert run_scenario(scn, seed=1).violation is None  # healthy twin passes
    run = run_scenario(scn, seed=1, mutations=("c2-skip-hold-check",))
    assert re.search("strong announced", str(run.violation))
    assert run.cell[0].startswith("safety:")


def test_mutations_belong_to_one_engine():
    # Two runs stepped in turn in one process: the mutant fails exactly as
    # it does alone, and its mutation never reaches the clean run.
    alone = run_scenario(golden("sec6"), seed=1, mutations=("a5-keep-inmap",))
    assert isinstance(alone.violation, SafetyViolation)
    assert alone.cell[0].startswith("safety:")
    clean = Engine(golden("sec6"), seed=1)
    mutant = Engine(golden("sec6"), seed=1, mutations=("a5-keep-inmap",))
    running, failure = [clean, mutant], None
    while running:
        for eng in list(running):
            try:
                if not eng.step():
                    running.remove(eng)
            except SafetyViolation as e:
                assert eng is mutant
                failure = e
                running.remove(eng)
    assert str(failure) == str(alone.violation)
    assert clean.announce[0] == "strong"


def test_unknown_mutation_is_refused():
    with pytest.raises(ValueError, match="unknown mutations"):
        Engine(golden("sec6"), seed=1, mutations=("a5-keep-in-map",))


def test_every_scenario_event_kind_has_a_world_event():
    # validate accepts exactly EVENT_KINDS, and Engine.__init__ looks each
    # kind up in _WORLD, so a kind in only one of them fails at set-up.
    assert set(Engine._WORLD) == set(scenario.EVENT_KINDS)


def test_role_addressed_message_waits_for_an_executive():
    # Seed 164 sends role-addressed messages while the executive role is
    # in transit; delivery requeues them until a holder exists.
    scn = gen_random_scenario(164, n_nodes=3 + 164 % 28)
    report = run_scenario(scn, 164, collect_trace=False).report
    assert report.counters["role-requeue"] == 15
    assert report.terminated is None
    assert not report.horizon_hit


NODE_ZERO_EXECUTIVE = """\
tcran-scenario v1

[params]
delay = 0.5..2
horizon = 200

[channels]
5

[nodes]
0: 5 @5
1: 5 @5
2: 5 @5

[topology]
0-1
1-2

[start]
at 0 node 0

[workload]
0: 20
1: 20
2: 20

[plan]
0: 1=1/2
1: 2=1/4

[events]
at 10 fail 2
"""


def test_role_addressed_send_draws_toward_a_node_zero_executive(monkeypatch):
    # Node 0 starts the run and holds the role when node 1 reports dark
    # node 2, so the PaN's delay comes from the 1 -> 0 stream.
    draws = []
    sending = []  # the message type of the send being enqueued
    enqueue_send, delay = Engine._enqueue_send, Draws.delay

    def spy_send(self, frm, send):
        sending.append(type(send.msg))
        try:
            return enqueue_send(self, frm, send)
        finally:
            sending.pop()

    def spy_delay(self, src, dst, stream):
        draws.append((src, dst, sending[-1]))
        return delay(self, src, dst, stream)

    monkeypatch.setattr(Engine, "_enqueue_send", spy_send)
    monkeypatch.setattr(Draws, "delay", spy_delay)
    report = run_scenario(load_scenario(NODE_ZERO_EXECUTIVE), seed=1).report
    assert [(s, d) for s, d, kind in draws if kind is PaN] == [(1, 0)]
    assert report.terminated == "weak"


def test_horizon_cuts_the_run_and_reports_it():
    report = run_scenario(golden("sec6"), seed=1, horizon=3.0).report
    assert report.horizon_hit
    assert report.terminated is None
    assert report.end_time == 3.0


def test_step_past_the_horizon_raises():
    eng = Engine(golden("sec6"), seed=1, horizon=3.0)
    with pytest.raises(HorizonExceeded):
        while eng.step():
            pass
    assert eng.now == 3.0
    # The late entries stay queued: a message among them is still in
    # flight.
    assert eng.queue and all(at > 3.0 for at, *_ in eng.queue)


def test_credit_books_stay_exactly_credit():
    # Credit's fast paths apply only when both operands are Credit; an
    # int * Credit or any other mix returns a plain Fraction, which every
    # later conservation add would take the slow way.  Seed 164 fills
    # every book but the reclaim rows, which these sizes do not reach.
    seen = set()

    def books(eng):
        yield "inflight", eng.figures.inflight
        yield "held", eng.figures.held
        yield from (("cache", c) for c in eng.figures.credit.values())
        for n in eng.nodes.values():
            yield "hold", n.hold
            yield "stranded", n.stranded
            yield from (("in", c) for c in n.in_map.values())
            yield from (("out", c) for c in n.out_map.values())
            for i, o in n.pu_ledger.values():
                yield "ledger", i
                yield "ledger", o
            yield from (("reclaim", c) for c in n.reclaimable.values())
            yield from (("reported", c) for c in n.reported_in.values())

    for seed in (17, 20, 164):
        scn = gen_random_scenario(seed, n_nodes=3 + seed % 28)
        assert scn.events
        eng = Engine(scn, seed, collect_trace=False)
        try:
            while eng.step():
                for book, c in books(eng):
                    assert type(c) is Credit, (seed, eng.now, book, type(c))
                    if c:
                        seen.add(book)
        except HorizonExceeded:
            pass
    assert seen >= {"inflight", "held", "cache", "hold", "stranded", "in",
                    "out", "ledger", "reported"}
