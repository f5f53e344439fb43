"""Deterministic discrete-event simulator.

One Engine owns the node states, the spectrum world, and a single event
queue ordered by (time, priority class, enqueue sequence).  Determinism
is load-bearing: every random draw (per-message delays, tie-break
choices) comes from its own stream seeded by run seed plus the draw's
identity, so two runs of the same scenario and seed produce bit-identical
traces, and the reference run in tcran.mattern sees the exact same
message timing for the underlying computation.

The omniscient checker is consulted after every processed event; a run
that breaks conservation or announces falsely dies on the spot with a
SafetyViolation rather than producing a quietly wrong report.  Per event
it sees only what the event could change: the engine records every node
the event touched (each node a protocol handler was handed, plus the
nodes the engine itself edits), refreshes per-node caches for those
alone, and keeps the global figures (credit held at nodes, executives,
open handovers, busy nodes, tree shape) as running totals.  A handler
mutates only the NodeState it is given, so an untouched node's cached
figures still hold.  Engine.full_check recomputes every figure from the
raw node states and demands that the caches agree.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable

from . import checker
from .channels import ChannelWorld
from .core import (
    AAcK,
    AcK,
    COM,
    ImP,
    ImPC,
    Message,
    NaP,
    NodeId,
    PaN,
    SessionTag,
    SpecialForward,
    SpecialReclaim,
    TM,
    priority_class,
)
from .credit import Credit, ZERO, credit_sum, render_credit
from .errors import (
    HorizonExceeded,
    NotChiefExecutive,
)
from . import protocol as P
from .protocol import ACTIVE, Ctx, NodeState, Out, Peer
from .scenario import Scenario

DEFAULT_HORIZON = 1000.0

# queue priority classes, lowest first at equal times
CLS_WORLD = 0
CLS_ACK = 1
CLS_MSG = 2
CLS_TIMER = 3
CLS_WORK = 4

# Message type -> name of its protocol.py handler.
_HANDLERS = {
    COM: "on_com",
    ImPC: "on_impc",
    ImP: "on_imp",
    AcK: "on_ack",
    AAcK: "on_aack",
    PaN: "on_pan",
    NaP: "on_nap",
    SpecialForward: "on_special",
    SpecialReclaim: "on_special",
    TM: "on_tm",
}


@dataclass
class _Runtime:
    """Engine-side per-node bookkeeping that is not protocol state."""

    work_left: float = 0.0
    work_deadline: float | None = None
    work_gen: int = 0
    deferred: list[tuple[str, Any]] = field(default_factory=list)
    crashed: bool = False


@dataclass
class RunReport:
    terminated: str | None
    announce_time: float | None
    announcer: NodeId | None
    end_time: float
    horizon_hit: bool
    ground_truth: float
    counters: dict[str, int]
    height_max: int
    height_at_announce: int | None
    final_sum: str
    bounds: dict[str, dict[str, int | bool]]
    anomalies: list[str]
    events_processed: int


class Engine:
    def __init__(
        self,
        scn: Scenario,
        seed: int,
        horizon: float | None = None,
        collect_trace: bool = True,
        mutations: Iterable[str] = (),
    ):
        self.scn = scn
        self.seed = seed
        self.horizon = (
            horizon
            if horizon is not None
            else (scn.horizon if scn.horizon is not None else DEFAULT_HORIZON)
        )
        self.collect_trace = collect_trace
        self.mutations = frozenset(mutations)
        unknown = sorted(self.mutations - set(P.KNOWN_MUTATIONS))
        if unknown:
            raise ValueError(f"unknown mutations {unknown}")
        self.tag = SessionTag(0, scn.start_node)

        self.nodes: dict[NodeId, NodeState] = {}
        self.rt: dict[NodeId, _Runtime] = {}
        adj = scn.adjacency()
        for nid in scn.nodes():
            self.nodes[nid] = NodeState(id=nid, neighbors=adj[nid])
            self.rt[nid] = _Runtime(work_left=scn.workload.get(nid, 0.0))

        self.world = ChannelWorld(
            gcs=scn.channels,
            lcs={n: set(c) for n, c in scn.lcs.items()},
            tuned=dict(scn.tuned),
        )

        self.queue: list[tuple[float, int, int, str, tuple]] = []
        self.seq = 0
        self.now = 0.0
        self.counters: Counter = Counter()
        self.inflight: Credit = ZERO
        self.inflight_coms = 0
        self.inflight_handover = 0
        self.trace: list[str] = []
        self.anomalies: list[str] = []
        self.started = False
        self.last_activity = scn.start_at
        self._was_busy = False
        self.announce: tuple[str, float, NodeId] | None = None
        self.height_max = 0
        self.height_at_announce: int | None = None
        self.peak_dark = 0
        self._n_dark = 0
        self.events_processed = 0
        self._delay_n: Counter = Counter()
        self._choice_n: Counter = Counter()

        # Checker caches, kept current for the nodes in _touched by
        # _refresh after every event.  A fresh node is passive and holds
        # nothing, so no node starts in any set or in the tree.
        self._touched: set[NodeId] = set()
        self._credit: dict[NodeId, Credit] = dict.fromkeys(self.nodes, ZERO)
        self._held: Credit = ZERO
        self._ces: set[NodeId] = set()
        self._handing_over: set[NodeId] = set()
        self._busy: set[NodeId] = set()
        self._shape = {nid: _shape(st) for nid, st in self.nodes.items()}
        self._height = 0

        self._push(scn.start_at, CLS_WORLD, "start", ())
        for ev in scn.events:
            self._push(ev.at, CLS_WORLD, "world", (ev,))

    # --- queue plumbing -------------------------------------------------------

    def _push(self, at: float, cls: int, kind: str, payload: tuple):
        self.seq += 1
        heapq.heappush(self.queue, (at, cls, self.seq, kind, payload))

    def _delay_for(self, src: NodeId, dst: NodeId, msg: Message) -> float:
        if isinstance(msg, (AcK, AAcK)):
            return self.scn.d_ack
        stream = "b" if isinstance(msg, COM) else "c"
        n = self._delay_n[(src, dst, stream)] = self._delay_n[(src, dst, stream)] + 1
        lo, hi = self.scn.delay
        rng = random.Random(f"{self.seed}|delay|{src}|{dst}|{stream}|{n}")
        return rng.uniform(lo, hi)

    def _enqueue_send(self, frm: NodeId, send: P.Send):
        msg = send.msg
        self.counters[send.bucket] += 1
        if send.dst is not None and send.dst == frm:
            # Local hop: no radio involved, same-instant delivery.
            at, cls = self.now, CLS_ACK
        else:
            # Role-addressed messages resolve at delivery; charge the
            # delay as if sent to the current executive when one exists.
            probe = send.dst if send.dst is not None else (self._find_ce() or frm)
            at = self.now + self._delay_for(frm, probe, msg)
            cls = CLS_ACK if priority_class(msg) == 0 else CLS_MSG
        self._launch(at, cls, send.dst, frm, msg)

    def inject(self, at: float, frm: NodeId, dst: NodeId | None, msg: Message):
        """Drop an arbitrary message into the network (tests, fuzzing)."""
        self._launch(at, CLS_MSG, dst, frm, msg)

    def _launch(
        self, at: float, cls: int, dst: NodeId | None, frm: NodeId, msg: Message
    ):
        self._count_in_flight(msg, 1)
        self._push(at, cls, "deliver", (dst, frm, msg))

    def _count_in_flight(self, msg: Message, sign: int):
        """A message is in flight from its launch until its delivery."""
        cargo = msg.carried_credit()
        if cargo:
            self.inflight = self.inflight + sign * cargo
        if isinstance(msg, COM):
            self.inflight_coms += sign
        if isinstance(msg, ImPC) and msg.handover:
            self.inflight_handover += sign

    # --- views ----------------------------------------------------------------

    def _find_ce(self) -> NodeId | None:
        # Mid-event the cache is stale only for nodes touched so far.
        touched = self._touched
        holders = [c for c in self._ces if c not in touched]
        holders += [k for k in touched if self.nodes[k].is_ce()]
        assert len(holders) <= 1, f"two executives: {sorted(holders)}"
        return holders[0] if holders else None

    def _peer(self, k: NodeId) -> Peer:
        n = self.nodes.get(k)
        if n is None:
            return Peer(active=False, parent=None, dark=False)
        return Peer(active=n.state == ACTIVE, parent=n.parent, dark=n.dark)

    def _active_peers(self, me: NodeId) -> list[NodeId]:
        return sorted(
            n.id
            for n in self.nodes.values()
            if n.state == ACTIVE and not n.dark and n.id != me
        )

    def _choose(self, me: NodeId):
        def pick(xs: list[NodeId]) -> NodeId:
            if self.scn.choice == "lowest":
                return min(xs)
            n = self._choice_n[me] = self._choice_n[me] + 1
            return random.Random(f"{self.seed}|choice|{me}|{n}").choice(sorted(xs))

        return pick

    def _ctx(self, me: NodeId) -> Ctx:
        self._touched.add(me)  # the handler given this context edits `me`
        return Ctx(
            now=self.now,
            total_credit=self.scn.credit_total,
            t_e=self.scn.t_e,
            weak_wait=self.scn.weak_wait,
            view=self._peer,
            active_peers=self._active_peers,
            choose=self._choose(me),
            mutations=self.mutations,
        )

    # --- tracing ----------------------------------------------------------------

    def _trace(self, nid: NodeId | str, label: str, detail: str):
        if not self.collect_trace:
            return
        node = self.nodes.get(nid) if isinstance(nid, int) else None
        snap = node.snapshot() if node is not None else "-"
        self.trace.append(
            f"{self.now:.10g}|{nid}|{label}|{detail}|{snap}"
        )

    # --- effects -----------------------------------------------------------------

    def _apply(self, nid: NodeId, out: Out, detail: str):
        for send in out.sends:
            self._enqueue_send(nid, send)
        for timer in out.timers:
            self._push(timer.deadline, CLS_TIMER, "timer", (nid, timer.kind, timer.parcel))
        note = f"{detail} {';'.join(out.notes)}".strip()
        self._trace(nid, out.label or "-", note)
        if out.announce is not None:
            self._announce(nid, out.announce)

    def _announce(self, nid: NodeId, mode: str):
        assert self.announce is None, "second announcement"
        self.announce = (mode, self.now, nid)
        self.height_at_announce = checker.tree_height(self.nodes)
        checker.assert_announcement(
            self.nodes,
            self.inflight,
            mode,
            self.scn.credit_total,
            self.now,
            self.last_activity,
        )
        self._trace(nid, "announce", mode)
        st = self.nodes[nid]
        assert st.tag is not None
        for other in self.scn.nodes():
            if other != nid:
                self._enqueue_send(nid, P.Send(other, TM(st.tag, mode), "TM"))

    # --- workload ------------------------------------------------------------------

    def _schedule_work(self, nid: NodeId):
        self._touched.add(nid)
        rt = self.rt[nid]
        rt.work_gen += 1
        rt.work_deadline = self.now + rt.work_left
        self._push(rt.work_deadline, CLS_WORK, "work", (nid, rt.work_gen))

    def _freeze_work(self, nid: NodeId):
        self._touched.add(nid)
        rt = self.rt[nid]
        if rt.work_deadline is not None:
            rt.work_left = max(0.0, rt.work_deadline - self.now)
            rt.work_deadline = None
            rt.work_gen += 1  # orphans the queued work event

    def _maybe_idle(self, nid: NodeId):
        st = self.nodes[nid]
        rt = self.rt[nid]
        if (
            st.state == ACTIVE
            and not st.dark
            and st.terminated is None
            and not st.settled
            and not st.awaiting
            and rt.work_deadline is None
            and rt.work_left == 0.0
            and st.tag is not None
        ):
            out = P.on_idle(st, self._ctx(nid))
            self._apply(nid, out, "workload done")

    # --- delivery ------------------------------------------------------------------

    def _deliver(self, dst_spec: NodeId | None, frm: NodeId, msg: Message):
        dst = dst_spec if dst_spec is not None else self._find_ce()
        if dst is None:
            # Role in transit: the message stays in flight; try again shortly.
            self.counters["role-requeue"] += 1
            self._push(self.now + self.scn.d_ack, CLS_MSG, "deliver", (None, frm, msg))
            return
        self._count_in_flight(msg, -1)
        self._touched.add(dst)

        st = self.nodes[dst]
        if st.dark:
            self._drop_dark(st, frm, msg)
            return

        ctx = self._ctx(dst)
        try:
            out = self._dispatch(st, frm, msg, ctx)
        except NotChiefExecutive as e:
            cargo = msg.carried_credit()
            if cargo != ZERO:
                st.stranded = st.stranded + cargo
            self.counters["anomaly"] += 1
            self.anomalies.append(f"t={self.now:g} {type(e).__name__}: {e}")
            self._trace(dst, "rejected", f"{msg.describe()} from {frm}")
            return
        activated_now = (
            isinstance(msg, COM)
            and st.state == ACTIVE
            and "activated" in out.notes
        )
        self._apply(dst, out, f"{msg.describe()} from {frm}")
        if activated_now:
            if not st.distributed and self.scn.plan.get(dst):
                self._run_plan(dst)
            self._schedule_work(dst)
        elif isinstance(msg, AAcK) and not st.awaiting:
            # The deferred-idle rule: the last settlement confirmation
            # may be what the finished workload was waiting on.
            self._maybe_idle(dst)

    def _dispatch(self, st: NodeState, frm: NodeId, msg: Message, ctx: Ctx) -> Out:
        name = _HANDLERS.get(type(msg))
        if name is None:
            raise TypeError(f"undeliverable message {msg!r}")
        # Looked up per call, so a wrapper installed on the protocol
        # module (bench/tracing.py) sees every delivery.
        return getattr(P, name)(st, frm, msg, ctx)

    def _drop_dark(self, st: NodeState, frm: NodeId, msg: Message):
        # An escrow return edits the sender's handshake record.
        self._touched.update((st.id, frm))
        self.counters["drop"] += 1
        cargo = msg.carried_credit()
        if isinstance(msg, ImPC):
            # The handshake protects surrendered credit: the parcel
            # bounces back into the sender's escrow for the retry path.
            sender = self.nodes[frm]
            rec = sender.pending.get(msg.parcel)
            if rec is not None and not rec.returned:
                rec.returned = True
                self._trace(frm, "escrow-return", msg.describe())
            else:
                st.stranded = st.stranded + cargo
        elif cargo != ZERO:
            st.stranded = st.stranded + cargo
        self._trace(st.id, "drop", f"{msg.describe()} from {frm} (dark)")

    def _run_plan(self, nid: NodeId):
        st = self.nodes[nid]
        plan = [(t, c) for t, c in self.scn.plan.get(nid, ())]
        st.distributed = True
        shares = credit_sum(c for _, c in plan)
        if shares >= st.hold:
            self._trace(nid, "plan-skipped", f"needs {render_credit(shares)}")
            return
        out = P.distribute(st, plan, self._ctx(nid))
        self._apply(nid, out, "fanout")

    # --- world events -----------------------------------------------------------

    def _go_dark(self, nid: NodeId, why: str):
        st = self.nodes[nid]
        if st.dark:
            return
        self._touched.add(nid)
        st.dark = True
        self._n_dark += 1
        self.peak_dark = max(self.peak_dark, self._n_dark)
        if not self.scn.work_while_dark:
            self._freeze_work(nid)
        self._trace(nid, "dark", why)
        for j in sorted(st.neighbors):
            self._push(
                self.now + self.scn.d_detect, CLS_TIMER, "detect", (j, nid)
            )

    def _recover(self, nid: NodeId):
        st = self.nodes[nid]
        rt = self.rt[nid]
        if not st.dark:
            return
        if rt.crashed:
            self.anomalies.append(f"t={self.now:g} recover on crashed node {nid}")
            return
        self._touched.add(nid)
        st.dark = False
        self._n_dark -= 1
        self._trace(nid, "recovered", "")
        out = P.on_recovery(st, self._ctx(nid))
        self._apply(nid, out, "back on air")
        for kind, payload in rt.deferred:
            self._push(self.now, CLS_TIMER, kind, payload)
        rt.deferred.clear()
        if st.state == ACTIVE and not self.scn.work_while_dark:
            if rt.work_left > 0.0:
                self._schedule_work(nid)
            else:
                self._maybe_idle(nid)

    def _world(self, ev):
        if ev.kind == "pu-appear":
            hit, retuned = self.world.pu_appear(ev.arg)
            self._trace("world", "pu-appear", f"ch={ev.arg} hit={hit} retuned={retuned}")
            for nid in hit:
                self._go_dark(nid, f"pu ch{ev.arg}")
        elif ev.kind == "pu-disappear":
            back = self.world.pu_disappear(ev.arg)
            self._trace("world", "pu-disappear", f"ch={ev.arg} back={back}")
            for nid in back:
                self._recover(nid)
        elif ev.kind == "fail":
            self._go_dark(ev.arg, "failure")
        elif ev.kind == "recover":
            self._recover(ev.arg)
        elif ev.kind == "crash":
            self._go_dark(ev.arg, "crash")
            self.rt[ev.arg].crashed = True
        else:
            raise AssertionError(f"unknown world event {ev.kind}")

    # --- the loop ------------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; False when the queue has drained."""
        if not self.queue:
            return False
        at, cls, _seq, kind, payload = heapq.heappop(self.queue)
        if at > self.horizon:
            # Leave it popped: everything past the horizon is unreached.
            self.queue.clear()
            self.now = self.horizon
            raise HorizonExceeded(f"event at t={at:g} past horizon {self.horizon:g}")
        self.now = at
        self.events_processed += 1

        if kind == "start":
            st = self.nodes[self.scn.start_node]
            out = P.on_external_start(
                st, self.tag, self.scn.credit_total, self._ctx(st.id)
            )
            self.started = True
            self._apply(st.id, out, f"credit={render_credit(self.scn.credit_total)}")
            if self.scn.plan.get(st.id):
                self._run_plan(st.id)
            self._schedule_work(st.id)
        elif kind == "world":
            self._world(payload[0])
        elif kind == "deliver":
            dst, frm, msg = payload
            self._deliver(dst, frm, msg)
        elif kind == "timer":
            nid, tkind, parcel = payload
            st = self.nodes[nid]
            if st.dark:
                self.rt[nid].deferred.append((("timer"), (nid, tkind, parcel)))
            else:
                ctx = self._ctx(nid)
                if tkind == "ack-timeout":
                    out = P.on_ack_timeout(st, parcel, ctx)
                elif tkind == "aack-timeout":
                    out = P.on_aack_timeout(st, parcel, ctx)
                elif tkind == "weak-deadline":
                    out = P.on_weak_deadline(st, ctx)
                else:
                    raise AssertionError(f"unknown timer {tkind}")
                if out.label != "timer-void":
                    self._apply(nid, out, tkind)
                if not st.awaiting:
                    self._maybe_idle(nid)
        elif kind == "detect":
            observer, affected = payload
            obs = self.nodes[observer]
            if (
                self.nodes[affected].dark
                and obs.state == ACTIVE
                and not obs.dark
                and obs.tag is not None
            ):
                out = P.on_neighbor_affected(obs, affected, self._ctx(observer))
                self._apply(observer, out, f"neighbor {affected} dark")
        elif kind == "work":
            nid, gen = payload
            rt = self.rt[nid]
            if gen == rt.work_gen and rt.work_deadline is not None:
                self._touched.add(nid)
                rt.work_left = 0.0
                rt.work_deadline = None
                self._maybe_idle(nid)
        else:
            raise AssertionError(f"unknown event kind {kind}")

        self._post_event()
        return True

    def _post_event(self):
        touched = sorted(self._touched)  # node order, as a full scan meets them
        shape_moved = self._refresh()
        checker.assert_conservation(
            self._held, self.inflight, self.scn.credit_total, self.now
        )
        # The state invariant is per node, so an untouched node still
        # satisfies it.
        checker.assert_state_invariant({k: self.nodes[k] for k in touched})
        checker.assert_single_ce(
            {k: self.nodes[k] for k in self._ces},
            started=self.started,
            window_open=self.inflight_handover > 0 or bool(self._handing_over),
        )
        if shape_moved:
            self._height = checker.tree_height(self.nodes)
            self.height_max = max(self.height_max, self._height)
        # The omniscient termination instant: the moment the last busy
        # condition cleared.  Busy means a node still computing or an
        # activating message on the air; a settled executive watching its
        # books is active in protocol terms but not computing.  The event
        # that ends the final busy stretch is itself that instant, hence
        # the one-event lookback.
        busy = self.inflight_coms > 0 or bool(self._busy)
        if busy or self._was_busy:
            self.last_activity = self.now
        self._was_busy = busy

    def _refresh(self) -> bool:
        """Bring the checker caches up to date for every touched node.

        Returns whether some node's tree shape changed.
        """
        shape_moved = False
        for k in self._touched:
            st, rt = self.nodes[k], self.rt[k]
            credit = st.local_credit()
            if credit != self._credit[k]:
                self._held += credit - self._credit[k]
                self._credit[k] = credit
            _mark(self._ces, k, st.is_ce())
            _mark(self._handing_over, k, _handing_over(st))
            _mark(self._busy, k, _busy(st, rt))
            shape = _shape(st)
            if shape != self._shape[k]:
                self._shape[k] = shape
                shape_moved = True
        self._touched.clear()
        return shape_moved

    def full_check(self):
        """Recompute every per-event figure from the raw node states.

        Raises AssertionError when a cache disagrees with the recompute
        (a node changed without being marked touched), and reruns the
        checks over every node.  Call it between steps; tests do, to
        cross-check the incremental path.
        """
        nodes = self.nodes.values()
        fresh = {
            "credit": {n.id: n.local_credit() for n in nodes},
            "held": checker.global_credit_sum(self.nodes),
            "executives": {n.id for n in nodes if n.is_ce()},
            "handovers": {n.id for n in nodes if _handing_over(n)},
            "busy": {n.id for n in nodes if _busy(n, self.rt[n.id])},
            "shape": {n.id: _shape(n) for n in nodes},
            "height": checker.tree_height(self.nodes),
            "dark": sum(1 for n in nodes if n.dark),
        }
        cached = {
            "credit": self._credit,
            "held": self._held,
            "executives": self._ces,
            "handovers": self._handing_over,
            "busy": self._busy,
            "shape": self._shape,
            "height": self._height,
            "dark": self._n_dark,
        }
        stale = [k for k in fresh if fresh[k] != cached[k]]
        if stale:
            raise AssertionError(
                f"t={self.now:g}: stale checker caches: {', '.join(stale)}"
            )
        checker.assert_conservation(
            fresh["held"], self.inflight, self.scn.credit_total, self.now
        )
        checker.assert_state_invariant(self.nodes)
        checker.assert_single_ce(
            self.nodes,
            started=self.started,
            window_open=self.inflight_handover > 0 or bool(fresh["handovers"]),
        )

    def run(self, strict_horizon: bool = False) -> RunReport:
        horizon_hit = False
        try:
            while self.step():
                pass
        except HorizonExceeded:
            if strict_horizon:
                raise
            horizon_hit = True
        return self._report(horizon_hit)

    def _report(self, horizon_hit: bool) -> RunReport:
        final = checker.global_credit_sum(self.nodes, self.inflight)
        bounds = checker.message_bounds_report(
            dict(self.counters), self._bound_params()
        )
        return RunReport(
            terminated=self.announce[0] if self.announce else None,
            announce_time=self.announce[1] if self.announce else None,
            announcer=self.announce[2] if self.announce else None,
            end_time=self.now,
            horizon_hit=horizon_hit,
            ground_truth=self.last_activity,
            counters={k: v for k, v in sorted(self.counters.items())},
            height_max=self.height_max,
            height_at_announce=self.height_at_announce,
            final_sum=render_credit(final),
            bounds=bounds,
            anomalies=list(self.anomalies),
            events_processed=self.events_processed,
        )

    def _bound_params(self) -> dict[str, int]:
        participants = {n.id for n in self.nodes.values() if n.tag is not None}
        nbr = 0
        for nid in participants:
            nbr = max(nbr, len(self.nodes[nid].neighbors & participants))
        degree = max(
            (len(n.neighbors) for n in self.nodes.values()), default=0
        )
        leaves = sum(n.surrenders for n in self.nodes.values())
        return {
            "N": len(self.nodes),
            "degree": degree,
            "N_neighbor": nbr,
            "N_leave": leaves,
            "N_affected": self.peak_dark,
        }


def _mark(members: set[NodeId], nid: NodeId, member: bool):
    if member:
        members.add(nid)
    else:
        members.discard(nid)


def _handing_over(st: NodeState) -> bool:
    return any(rec.msg.handover for rec in st.pending.values())


def _busy(st: NodeState, rt: _Runtime) -> bool:
    """Still computing: the workload has time left or is running."""
    return st.state == ACTIVE and (rt.work_deadline is not None or rt.work_left > 0.0)


def _shape(st: NodeState) -> tuple:
    """Everything of a node that checker.tree_height reads."""
    return (st.state, st.parent, st.dark and st.tag is not None)


def run_scenario(
    scn: Scenario,
    seed: int,
    horizon: float | None = None,
    mutations: tuple[str, ...] = (),
    collect_trace: bool = True,
) -> tuple[RunReport, list[str]]:
    """One-shot convenience wrapper: build an Engine and run it."""
    eng = Engine(
        scn, seed, horizon=horizon, collect_trace=collect_trace, mutations=mutations
    )
    return eng.run(), eng.trace
