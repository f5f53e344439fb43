"""Classic credit-recovery termination detection, kept as a reference.

Four rules.  The initiator starts out holding the whole credit.  Every
basic message carries a share of the sender's holding, and an active
receiver simply absorbs incoming shares.  A process going passive mails
its entire holding straight back to the initiator in one hop.  The
initiator declares termination the moment the recovered pot equals the
original credit.

The observed computation (who activates whom, per-pair message delays,
workload runtimes) is reproduced from the scenario exactly the way the
main engine reproduces it, so a reference run and an engine run of the
same scenario and seed agree on the ground-truth termination instant
bit for bit.  Two inputs are shared with the engine by construction:
the delays come from a scenario.Draws, and equal-time events break ties
by the engine's queue classes.  The rest is this module's own: its
event loop, activation and plan fanout, workload timers, busy tracking
and the detector.  The control side differs: flat returns to a fixed
collector, no handshakes, no tree, no spectrum awareness.  That is also
why this detector refuses scenarios with world events; it has no story
for darkness or failure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .credit import ZERO, Credit, credit_sum, render_credit
from .engine import CLS_MSG, CLS_WORK, CLS_WORLD
from .errors import SafetyViolation
from .scenario import Draws, Scenario


@dataclass
class ReferenceReport:
    announce_time: float | None
    ground_truth: float
    end_time: float
    recovered: str
    coms: int
    returns: int


@dataclass
class _Proc:
    active: bool = False
    credit: Credit = ZERO
    distributed: bool = False
    work_left: float = 0.0
    work_deadline: float | None = None


def run_reference(scn: Scenario, seed: int) -> ReferenceReport:
    """Simulate the scenario's computation under the reference detector."""
    if scn.events:
        raise ValueError("reference detector handles failure-free scenarios only")

    procs = {nid: _Proc(work_left=scn.workload.get(nid, 0.0)) for nid in scn.nodes()}
    collector = scn.start_node
    total = scn.credit_total
    pot = ZERO
    announce_time: float | None = None
    coms = returns = 0
    inflight_coms = 0

    queue: list[tuple[float, int, int, str, tuple]] = []
    seq = 0
    draws = Draws(scn, seed)
    now = scn.start_at
    last_activity = scn.start_at
    was_busy = False

    def push(at: float, cls: int, kind: str, payload: tuple):
        nonlocal seq
        seq += 1
        heapq.heappush(queue, (at, cls, seq, kind, payload))

    def send_com(src: int, dst: int, c: Credit):
        nonlocal coms, inflight_coms
        coms += 1
        inflight_coms += 1
        push(now + draws.delay(src, dst, "b"), CLS_MSG, "com", (src, dst, c))

    def run_plan(nid: int):
        p = procs[nid]
        p.distributed = True
        plan = scn.plan.get(nid, ())
        if credit_sum(c for _, c in plan) >= p.credit:
            return
        for target, c in plan:
            p.credit = p.credit - c
            send_com(nid, target, c)

    def schedule_work(nid: int):
        p = procs[nid]
        p.work_deadline = now + p.work_left
        push(p.work_deadline, CLS_WORK, "work", (nid,))

    push(scn.start_at, CLS_WORLD, "start", ())

    while queue:
        now, _cls, _seq, kind, payload = heapq.heappop(queue)

        if kind == "start":
            p = procs[collector]
            p.active = True
            p.credit = total
            if scn.plan.get(collector):
                run_plan(collector)
            schedule_work(collector)
        elif kind == "com":
            src, dst, c = payload
            inflight_coms -= 1
            p = procs[dst]
            if p.active:
                p.credit = p.credit + c
            else:
                p.active = True
                p.credit = c
                if not p.distributed and scn.plan.get(dst):
                    run_plan(dst)
                schedule_work(dst)
        elif kind == "ret":
            _src, c = payload
            pot = pot + c
            if pot == total and announce_time is None:
                announce_time = now
        else:  # "work"
            nid = payload[0]
            p = procs[nid]
            p.work_left = 0.0
            p.work_deadline = None
            p.active = False
            c, p.credit = p.credit, ZERO
            if nid == collector:
                pot = pot + c
                if pot == total and announce_time is None:
                    announce_time = now
            else:
                returns += 1
                push(now + draws.delay(nid, collector, "c"), CLS_MSG, "ret", (nid, c))

        busy = inflight_coms > 0 or any(
            p.active and (p.work_deadline is not None or p.work_left > 0.0)
            for p in procs.values()
        )
        if busy or was_busy:
            last_activity = now
        was_busy = busy

    if pot != total:
        raise SafetyViolation(
            f"credit leaked: recovered {render_credit(pot)} of "
            f"{render_credit(total)}"
        )
    return ReferenceReport(
        announce_time=announce_time,
        ground_truth=last_activity,
        end_time=now,
        recovered=render_credit(pot),
        coms=coms,
        returns=returns,
    )
