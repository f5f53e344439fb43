"""Deterministic discrete-event simulator.

One Engine owns the node states, the spectrum world, and a single event
queue ordered by (time, priority class, enqueue sequence).  Each entry
carries the Engine function that applies it.  One table, _KINDS, says
how each message kind travels: the protocol handler that receives it,
its queue class, and the stream its delay is drawn from.  Determinism is
load-bearing: every random draw (per-message delays, tie-break choices)
comes from the run's scenario.Draws, so two runs of the same scenario
and seed produce bit-identical traces, and the reference run in
tcran.mattern, with a Draws of its own, sees the exact same message
timing for the underlying computation.

The omniscient checker is consulted after every processed event; a run
that breaks conservation or announces falsely dies on the spot with a
SafetyViolation rather than producing a quietly wrong report.  Per event
it reads the running figures of a checker.Figures, which the engine
tells every node the event touched and every message it launches or
delivers; that class says what keeps the figures true.

Every event pays the engine's fixed cost, so the per-event path keeps
four rules.  Trace text (message descriptions, notes, node snapshots)
is built only when the engine collects a trace.  Nothing is built per
event that the engine can keep: there is one Ctx per engine, and a
handler call only sets its clock.  Nothing the engine keeps reaches the
engine: the Ctx's callables close over the node map and the Draws, and
a queue entry holds a plain function, never a bound method, so an
engine is freed by reference counting alone, without waiting for the
cyclic collector.  The checker is called through the module, as
checker.<fn>, once per event, and protocol handlers are looked up on
the module per call, so a wrapper installed on either module sees
every call.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

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
    Parcel,
    SpecialForward,
    SpecialReclaim,
    TM,
)
from .credit import Credit, ZERO, credit_sum, render_credit
from .errors import HorizonExceeded, SafetyViolation
from . import protocol as P
from .protocol import ACTIVE, Ctx, NodeState, Out, Peer
from .scenario import Draws, Scenario

DEFAULT_HORIZON = 1000.0

# queue priority classes, lowest first at equal times
CLS_WORLD = 0
CLS_ACK = 1
CLS_MSG = 2
CLS_TIMER = 3
CLS_WORK = 4

# Message type -> (name of its protocol.py handler, queue class, delay
# stream).  Acknowledgements outrank every other kind at equal times, so
# the handshake behaves near-atomically, and take the fixed d_ack delay
# (stream None).  COM draws from the computation's "b" stream, every
# other kind from the control "c" stream.  The message classes are
# final, so the exact type keys the row.
_KINDS = {
    COM: ("on_com", CLS_MSG, "b"),
    ImPC: ("on_impc", CLS_MSG, "c"),
    ImP: ("on_imp", CLS_MSG, "c"),
    AcK: ("on_ack", CLS_ACK, None),
    AAcK: ("on_aack", CLS_ACK, None),
    PaN: ("on_pan", CLS_MSG, "c"),
    NaP: ("on_nap", CLS_MSG, "c"),
    SpecialForward: ("on_special", CLS_MSG, "c"),
    SpecialReclaim: ("on_special", CLS_MSG, "c"),
    TM: ("on_tm", CLS_MSG, "c"),
}


@dataclass(slots=True)
class _Runtime:
    """Engine-side per-node bookkeeping that is not protocol state."""

    work_left: float = 0.0
    work_deadline: float | None = None
    work_gen: int = 0
    deferred: list[tuple] = field(default_factory=list)  # timer payloads
    down: str | None = None  # "failure" until a recover, "crash" for good


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

        # (time, class, sequence, the Engine function to apply, its args)
        self.queue: list[tuple[float, int, int, Callable, tuple]] = []
        self.seq = 0
        self.now = 0.0
        self.counters: Counter = Counter()
        self.trace: list[str] = []
        self.anomalies: list[str] = []
        self.started = False
        self.last_activity = scn.start_at
        self._was_busy = False
        self.announce: tuple[str, float, NodeId] | None = None
        self.height_max = 0
        self.height_at_announce: int | None = None
        self.peak_dark = 0
        self.events_processed = 0
        self.draws = Draws(scn, seed)
        self._shared_ctx = _context(scn, self.nodes, self.mutations, self.draws)

        # The nodes the current event touched, for Figures.update.  The
        # busy predicate closes over the runtime map, never the engine.
        self._touched: set[NodeId] = set()
        rt = self.rt
        self.figures = checker.Figures(self.nodes, lambda st: _busy(st, rt[st.id]))

        self._push(scn.start_at, CLS_WORLD, Engine._start, ())
        for ev in scn.events:
            self._push(ev.at, CLS_WORLD, self._WORLD[ev.kind], (ev.arg,))

    # --- queue plumbing -------------------------------------------------------

    def _push(self, at: float, cls: int, event: Callable, args: tuple):
        # A plain function, never a bound method: an entry that held the
        # engine would make a reference cycle.  The unique sequence number
        # settles every tie before the function could be compared.
        self.seq += 1
        heapq.heappush(self.queue, (at, cls, self.seq, event, args))

    def _enqueue_send(self, frm: NodeId, send: P.Send):
        msg, dst = send.msg, send.dst
        self.counters[send.bucket] += 1
        if dst is not None and dst == frm:
            # Local hop: no radio involved, same-instant delivery.
            at, cls = self.now, CLS_ACK
        else:
            _, cls, stream = _KINDS[type(msg)]
            if stream is None:
                at = self.now + self.scn.d_ack
            else:
                # Role-addressed messages resolve at delivery; charge the
                # delay as if sent to the current executive when one exists.
                probe = dst if dst is not None else self._find_ce()
                if probe is None:  # not `or`: node 0 may hold the role
                    probe = frm
                at = self.now + self.draws.delay(frm, probe, stream)
        self._launch(at, cls, dst, frm, msg)

    def _launch(
        self, at: float, cls: int, dst: NodeId | None, frm: NodeId, msg: Message
    ):
        # A message is in flight from its launch until its delivery.
        self.figures.fly(msg, 1)
        self._push(at, cls, Engine._deliver, (dst, frm, msg))

    # --- views ----------------------------------------------------------------

    def _find_ce(self) -> NodeId | None:
        # Mid-event the figures are stale only for nodes touched so far.
        touched = self._touched
        holders = [c for c in self.figures.executives if c not in touched]
        holders += [k for k in touched if self.nodes[k].is_ce()]
        if len(holders) > 1:
            raise SafetyViolation(
                f"t={self.now:g}: two executives: {sorted(holders)}"
            )
        return holders[0] if holders else None

    def _ctx(self, me: NodeId) -> Ctx:
        self._touched.add(me)  # the handler given this context edits `me`
        ctx = self._shared_ctx
        ctx.now = self.now
        return ctx

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
            self._push(timer.deadline, CLS_TIMER, Engine._timer, (nid, timer.kind, timer.parcel))
        if self.collect_trace:
            note = f"{detail} {';'.join(out.notes)}".strip()
            self._trace(nid, out.label or "-", note)
        if out.announce is not None:
            self._announce(nid, out.announce)

    def _announce(self, nid: NodeId, mode: str):
        if self.announce is not None:
            first, at, by = self.announce
            raise SafetyViolation(
                f"t={self.now:g}: node {nid} announced {mode} after node "
                f"{by} announced {first} at t={at:g}"
            )
        self.announce = (mode, self.now, nid)
        self.height_at_announce = checker.tree_height(self.nodes)
        checker.assert_announcement(
            self.nodes,
            self.figures.inflight,
            mode,
            self.scn.credit_total,
            self.now,
            self.last_activity,
        )
        self._trace(nid, "announce", mode)
        tm = TM(mode)  # immutable, so every send can carry the one object
        for other in self.scn.nodes():
            if other != nid:
                self._enqueue_send(nid, P.Send(other, tm, "TM"))

    # --- workload ------------------------------------------------------------------

    def _schedule_work(self, nid: NodeId):
        self._touched.add(nid)
        rt = self.rt[nid]
        rt.work_gen += 1
        rt.work_deadline = self.now + rt.work_left
        self._push(rt.work_deadline, CLS_WORK, Engine._work_done, (nid, rt.work_gen))

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
            and st.joined
        ):
            out = P.on_idle(st, self._ctx(nid))
            self._apply(nid, out, "workload done")

    # --- delivery ------------------------------------------------------------------

    def _deliver(self, dst_spec: NodeId | None, frm: NodeId, msg: Message):
        dst = dst_spec if dst_spec is not None else self._find_ce()
        if dst is None:
            # Role in transit: the message stays in flight; try again shortly.
            self.counters["role-requeue"] += 1
            self._push(self.now + self.scn.d_ack, CLS_MSG, Engine._deliver, (None, frm, msg))
            return
        self.figures.fly(msg, -1)
        self._touched.add(dst)

        st = self.nodes[dst]
        if st.dark:
            self._drop_dark(st, frm, msg)
            return

        was_active = st.state == ACTIVE
        kind = type(msg)
        # The handler is looked up per call, so a wrapper installed on the
        # protocol module (bench/tracing.py) sees every delivery.
        out = getattr(P, _KINDS[kind][0])(st, frm, msg, self._ctx(dst))
        activated_now = kind is COM and not was_active and st.state == ACTIVE
        detail = f"{msg.describe()} from {frm}" if self.collect_trace else ""
        self._apply(dst, out, detail)
        if activated_now:
            self._activate(dst)
        elif kind is AAcK and not st.awaiting:
            # The deferred-idle rule: the last settlement confirmation
            # may be what the finished workload was waiting on.
            self._maybe_idle(dst)

    def _drop_dark(self, st: NodeState, frm: NodeId, msg: Message):
        # An escrow return edits the sender's handshake record.
        self._touched.update((st.id, frm))
        self.counters["drop"] += 1
        cargo = msg.carried_credit()
        tracing = self.collect_trace
        if type(msg) is ImPC:
            # The handshake protects surrendered credit: the parcel
            # bounces back into the sender's escrow for the retry path.
            sender = self.nodes[frm]
            rec = sender.pending.get(msg.parcel)
            if rec is not None and not rec.returned:
                rec.returned = True
                if tracing:
                    self._trace(frm, "escrow-return", msg.describe())
            else:
                st.stranded = st.stranded + cargo
        elif cargo != ZERO:
            st.stranded = st.stranded + cargo
        if tracing:
            self._trace(st.id, "drop", f"{msg.describe()} from {frm} (dark)")

    def _activate(self, nid: NodeId):
        """A node just became active: fan out its plan once, then work."""
        if not self.nodes[nid].distributed and self.scn.plan.get(nid):
            self._run_plan(nid)
        self._schedule_work(nid)

    def _run_plan(self, nid: NodeId):
        st = self.nodes[nid]
        plan = self.scn.plan[nid]
        st.distributed = True
        shares = credit_sum(c for _, c in plan)
        if shares >= st.hold:
            self._trace(nid, "plan-skipped", f"needs {render_credit(shares)}")
            return
        out = P.distribute(st, plan, self._ctx(nid))
        self._apply(nid, out, "fanout")

    # --- world events -----------------------------------------------------------

    def _sync_dark(self, nid: NodeId, why: str):
        """Keep a node off the air exactly while a cause holds: a primary
        user on every channel of its LCS, a failure not yet recovered, or
        a crash.  `why` names the cause that just changed."""
        st, rt = self.nodes[nid], self.rt[nid]
        if (self.world.affected(nid) or rt.down is not None) == st.dark:
            return
        self._touched.add(nid)
        st.dark = not st.dark
        if st.dark:
            if rt.work_deadline is not None:  # freeze the workload
                rt.work_left = max(0.0, rt.work_deadline - self.now)
                rt.work_deadline = None
                rt.work_gen += 1  # orphans the queued work event
            self._trace(nid, "dark", why)
            for j in sorted(st.neighbors):
                self._push(self.now + self.scn.d_detect, CLS_TIMER, Engine._detect, (j, nid))
            return
        self._trace(nid, "recovered", "")
        out = P.on_recovery(st, self._ctx(nid))
        self._apply(nid, out, "back on air")
        for args in rt.deferred:
            self._push(self.now, CLS_TIMER, Engine._timer, args)
        rt.deferred.clear()
        if st.state == ACTIVE:
            if rt.work_left > 0.0:
                self._schedule_work(nid)
            else:
                self._maybe_idle(nid)

    def _pu_appear(self, ch: int):
        hit, retuned = self.world.pu_appear(ch)
        self._trace("world", "pu-appear", f"ch={ch} hit={hit} retuned={retuned}")
        for nid in hit:
            self._sync_dark(nid, f"pu ch{ch}")

    def _pu_disappear(self, ch: int):
        back = self.world.pu_disappear(ch)
        self._trace("world", "pu-disappear", f"ch={ch} back={back}")
        for nid in back:
            self._sync_dark(nid, f"pu ch{ch}")

    def _fail(self, nid: NodeId):
        rt = self.rt[nid]
        rt.down = rt.down or "failure"  # a crash stays a crash
        self._sync_dark(nid, "failure")

    def _recover(self, nid: NodeId):
        rt = self.rt[nid]
        if rt.down == "crash":
            self.anomalies.append(f"t={self.now:g} recover on crashed node {nid}")
            return
        rt.down = None
        self._sync_dark(nid, "recover")

    def _crash(self, nid: NodeId):
        self.rt[nid].down = "crash"
        self._sync_dark(nid, "crash")

    # Scenario event kind -> the function that applies it to its argument.
    _WORLD = {
        "pu-appear": _pu_appear,
        "pu-disappear": _pu_disappear,
        "fail": _fail,
        "recover": _recover,
        "crash": _crash,
    }

    # --- the loop ------------------------------------------------------------------

    def _start(self):
        st = self.nodes[self.scn.start_node]
        out = P.on_external_start(st, self.scn.credit_total, self._ctx(st.id))
        self.started = True
        self._apply(st.id, out, f"credit={render_credit(self.scn.credit_total)}")
        self._activate(st.id)

    def _timer(self, nid: NodeId, kind: str, parcel: Parcel | None):
        st = self.nodes[nid]
        if st.dark:
            self.rt[nid].deferred.append((nid, kind, parcel))
            return
        ctx = self._ctx(nid)
        if kind == "ack-timeout":
            out = P.on_ack_timeout(st, parcel, ctx)
        elif kind == "aack-timeout":
            out = P.on_aack_timeout(st, parcel, ctx)
        else:  # "weak-deadline"
            out = P.on_weak_deadline(st, ctx)
        if out is not None:  # None: the timer was void
            self._apply(nid, out, kind)
        if not st.awaiting:
            self._maybe_idle(nid)

    def _detect(self, observer: NodeId, affected: NodeId):
        obs = self.nodes[observer]
        if self.nodes[affected].dark and obs.state == ACTIVE and not obs.dark and obs.joined:
            out = P.on_neighbor_affected(obs, affected, self._ctx(observer))
            self._apply(observer, out, f"neighbor {affected} dark")

    def _work_done(self, nid: NodeId, gen: int):
        rt = self.rt[nid]
        if gen == rt.work_gen and rt.work_deadline is not None:
            self._touched.add(nid)
            rt.work_left = 0.0
            rt.work_deadline = None
            self._maybe_idle(nid)

    def step(self) -> bool:
        """Process one event; False when the queue has drained."""
        queue = self.queue
        if not queue:
            return False
        at, _cls, _seq, event, args = queue[0]
        if at > self.horizon:
            # Leave it queued: what is past the horizon is never reached,
            # but a message still on the air stays in flight.
            self.now = self.horizon
            raise HorizonExceeded(f"event at t={at:g} past horizon {self.horizon:g}")
        heapq.heappop(queue)
        self.now = at
        self.events_processed += 1
        event(self, *args)
        self._post_event()
        return True

    def _post_event(self):
        """Tell the figures every touched node, then run the per-event
        checks on them."""
        touched = self._touched
        # Node order, as a full scan meets them.
        order = sorted(touched) if len(touched) > 1 else tuple(touched)
        touched.clear()
        nodes, fig = self.nodes, self.figures
        moved = fig.update(order)
        # The state invariant is per node, so an untouched node still
        # satisfies it.
        self._check(
            fig.held,
            map(nodes.__getitem__, order),
            map(nodes.__getitem__, fig.executives),
        )
        if moved and fig.tree.height > self.height_max:
            self.height_max = fig.tree.height
        if len(fig.dark) > self.peak_dark:
            self.peak_dark = len(fig.dark)
        # The omniscient termination instant: the moment the last busy
        # condition cleared.  Busy means a node still computing or an
        # activating message on the air; a settled executive watching its
        # books is active in protocol terms but not computing.  The event
        # that ends the final busy stretch is itself that instant, hence
        # the one-event lookback.
        now_busy = fig.coms > 0 or bool(fig.busy)
        if now_busy or self._was_busy:
            self.last_activity = self.now
        self._was_busy = now_busy

    def full_check(self):
        """Recompute every per-event figure from the raw node states and
        the messages in the queue.

        Raises AssertionError when a figure disagrees with the recompute
        (a node changed without being marked touched, or a message moved
        without being counted), and reruns the checks over every node.
        Call it between steps; tests do, to cross-check the incremental
        path.
        """
        flying = [args[2] for *_, event, args in self.queue if event is Engine._deliver]
        stale = self.figures.stale_parts(flying)
        if stale:
            raise AssertionError(
                f"t={self.now:g}: stale checker caches: {', '.join(stale)}"
            )
        nodes = self.nodes.values()
        self._check(checker.global_credit_sum(self.nodes), nodes, nodes)

    def _check(
        self,
        held: Credit,
        states: Iterable[NodeState],
        executives: Iterable[NodeState],
    ):
        """The per-event checks: conservation of the credit held at nodes
        plus the credit in flight, the state invariant over `states`, and
        one executive among `executives` unless a handover is open."""
        fig = self.figures
        checker.assert_conservation(held, fig.inflight, self.scn.credit_total, self.now)
        checker.assert_state_invariant(states)
        checker.assert_single_ce(
            executives,
            started=self.started,
            window_open=fig.handover_parcels > 0 or bool(fig.handovers),
        )

    def run(self) -> RunReport:
        horizon_hit = False
        try:
            while self.step():
                pass
        except HorizonExceeded:
            horizon_hit = True
        return self._report(horizon_hit)

    def _report(self, horizon_hit: bool) -> RunReport:
        final = checker.global_credit_sum(self.nodes, self.figures.inflight)
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
        participants = {n.id for n in self.nodes.values() if n.joined}
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


def _context(
    scn: Scenario,
    nodes: dict[NodeId, NodeState],
    mutations: frozenset[str],
    draws: Draws,
) -> Ctx:
    """The one Ctx an engine hands its handlers.

    Its callables close over the node map and the run's Draws, never
    over the engine, so keeping the Ctx on the engine makes no
    reference cycle.
    """

    def view(k: NodeId) -> Peer:
        n = nodes[k]
        return Peer(active=n.state == ACTIVE, parent=n.parent, dark=n.dark)

    def active_peers(me: NodeId) -> list[NodeId]:
        return sorted(
            n.id
            for n in nodes.values()
            if n.state == ACTIVE and not n.dark and n.id != me
        )

    return Ctx(
        now=0.0,
        total_credit=scn.credit_total,
        t_e=scn.t_e,
        weak_wait=scn.weak_wait,
        view=view,
        active_peers=active_peers,
        choose=draws.choice,
        mutations=mutations,
    )


def _busy(st: NodeState, rt: _Runtime) -> bool:
    """Still computing: the workload has time left or is running."""
    return st.state == ACTIVE and (rt.work_deadline is not None or rt.work_left > 0.0)


@dataclass(frozen=True)
class Run:
    """One finished run: the Engine it ran (its nodes, trace and
    full_check), its report or the SafetyViolation that ended it, and
    its (class, detail) from checker.outcome."""

    engine: Engine
    report: RunReport | None
    violation: SafetyViolation | None
    cell: tuple[str, str]


def run_scenario(
    scn: Scenario,
    seed: int,
    horizon: float | None = None,
    mutations: tuple[str, ...] = (),
    collect_trace: bool = True,
) -> Run:
    """Build an Engine, run it and class how it ended.

    A SafetyViolation ends the run and comes back as Run.violation; it
    is not raised.
    """
    eng = Engine(
        scn, seed, horizon=horizon, collect_trace=collect_trace, mutations=mutations
    )
    try:
        report = eng.run()
    except SafetyViolation as e:
        # Returned from the handler, so that no local of this frame, which
        # the violation's traceback holds, keeps the violation: the engine
        # is freed by reference counting alone.
        return Run(eng, None, e, checker.outcome(eng.nodes, scn.credit_total, None, e))
    cell = checker.outcome(eng.nodes, scn.credit_total, report, None)
    return Run(eng, report, None, cell)
