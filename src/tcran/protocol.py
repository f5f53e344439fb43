"""Per-node T-CRAN state machine.

Each handler consumes one input event (a delivered message, an idle
signal, a timer, a channel-world transition) against one node's state and
returns the outbound effects: messages, timer requests, and possibly a
termination announcement.  Handlers mutate the passed NodeState in place;
the simulator serializes events per node, so no locking is needed.

Transition labels in trace output follow the protocol's action table
names: A1..A6 for credit distribution/aggregation, B1..B4 for the
affected-node flows, C1/C2 for the weak/strong announcements.

Local conservation contract: the physical credit carried in by the event
plus the node's holdings before it equals the holdings after it plus the
credit carried out in sends.  The engine's omniscient checker re-verifies
the global version of this after every event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import (
    AAcK,
    AcK,
    COM,
    ChildMap,
    ImP,
    ImPC,
    LedgerRows,
    Message,
    NaP,
    NodeId,
    PaN,
    Parcel,
    STRONG,
    SessionTag,
    SpecialForward,
    SpecialReclaim,
    TM,
    WEAK,
    is_stale,
    render_credit,
)
from .credit import Credit, ZERO, credit_sum
from .errors import (
    AlreadyActive,
    InsufficientCredit,
    NegativeCredit,
    NoActivePeer,
    NotChiefExecutive,
)

ACTIVE = "active"
PASSIVE = "passive"

# Named deliberate bugs, used to prove the checker can catch real
# protocol mistakes.  Enabled per run (Engine mutations, the CLI --mutate
# flag); never on by default.  "a5-keep-inmap" skips clearing the
# absorbed in-entry (a credit-duplication bug the conservation check must
# flag); "c2-skip-hold-check" announces strong termination without the
# full credit in hand (a premature announcement the safety check must
# flag).
KNOWN_MUTATIONS = ("a5-keep-inmap", "c2-skip-hold-check")


@dataclass(frozen=True)
class Peer:
    """The slice of a neighbor's state that guards may read.

    The action tables freely test remote STATE(k) and parent pointers, so
    the simulator hands transitions this read-only view instead of
    modeling a separate state-dissemination protocol.
    """

    active: bool
    parent: NodeId | None
    dark: bool  # affected or failed: unreachable


@dataclass
class Ctx:
    """Per-event environment the simulator provides to a transition."""

    now: float
    total_credit: Credit
    t_e: float
    weak_wait: float
    view: Callable[[NodeId], Peer]
    active_peers: Callable[[NodeId], list[NodeId]]  # same-computation, sorted
    choose: Callable[[list[NodeId]], NodeId]  # new-C_E / fallback policy
    mutations: frozenset[str] = frozenset()  # names from KNOWN_MUTATIONS


@dataclass(frozen=True)
class Send:
    dst: NodeId | None  # None: to the chief-executive role, resolved at delivery
    msg: Message
    bucket: str  # counter bucket ("ImPC", "retry", "special", ...)


@dataclass(frozen=True)
class Timer:
    kind: str  # "ack-timeout" | "aack-timeout" | "weak-deadline"
    deadline: float
    parcel: Parcel | None = None


@dataclass
class Out:
    """Everything a transition asks of the simulator."""

    label: str = ""
    sends: list[Send] = field(default_factory=list)
    timers: list[Timer] = field(default_factory=list)
    announce: str | None = None
    notes: list[str] = field(default_factory=list)

    def send(self, dst: NodeId | None, msg: Message, bucket: str | None = None):
        self.sends.append(Send(dst, msg, bucket or msg.kind))

    def merge(self, other: "Out"):
        self.sends.extend(other.sends)
        self.timers.extend(other.timers)
        self.announce = self.announce or other.announce
        self.notes.extend(other.notes)


@dataclass
class PendingSurrender:
    """Sender-side handshake record for one in-flight ImPC parcel.

    The parcel credit physically rides the message; `returned` flips when
    a drop at delivery bounced it back into this escrow, which is the
    only condition under which the timeout path may re-send it.
    """

    msg: ImPC
    returned: bool = False


@dataclass
class AwaitedParcel:
    """Receiver-side record: absorbed credit still awaiting its AAcK."""

    frm: NodeId
    amount: Credit


@dataclass
class NodeState:
    """One node's complete protocol state (data-structure table plus the
    handshake, ledger, and bookkeeping the wire protocol needs)."""

    id: NodeId
    neighbors: frozenset[NodeId] = frozenset()
    state: str = PASSIVE
    parent: NodeId | None = None  # == id marks the chief executive
    hold: Credit = ZERO
    in_map: dict[NodeId, Credit] = field(default_factory=dict)
    out_map: dict[NodeId, Credit] = field(default_factory=dict)
    tag: SessionTag | None = None
    settled: bool = False  # C_E finished local work; announcement precondition
    terminated: str | None = None

    # chief-executive books
    pu_ledger: dict[tuple[NodeId, NodeId], tuple[Credit, Credit]] = field(
        default_factory=dict
    )  # (reporter, affected) -> (physical in-part, mirrored out-part)
    reclaimable: dict[tuple[NodeId, NodeId], Credit] = field(default_factory=dict)
    seen_parcels: set[Parcel] = field(default_factory=set)
    nap_replied: set[NodeId] = field(default_factory=set)
    weak_deadline: float | None = None

    # handshake bookkeeping
    pending: dict[Parcel, PendingSurrender] = field(default_factory=dict)
    awaiting: dict[Parcel, AwaitedParcel] = field(default_factory=dict)
    parcel_seq: int = 0

    # affected-node bookkeeping
    reported_in: dict[NodeId, Credit] = field(default_factory=dict)
    stranded: Credit = ZERO  # cargo dropped on my doorstep while I was dark
    dark: bool = False

    # claim cancels that arrived before the claims they void (see on_imp)
    prepaid: dict[NodeId, int] = field(default_factory=dict)

    distributed: bool = False  # activation-time fanout already executed
    surrenders: int = 0  # credit-surrender transitions run (N_leave term)
    settles: int = 0

    # --- derived quantities -------------------------------------------------

    def is_ce(self) -> bool:
        return self.parent == self.id

    def escrow_total(self) -> Credit:
        return credit_sum(
            p.msg.carried_credit() for p in self.pending.values() if p.returned
        )

    def ledger_physical(self) -> Credit:
        held = credit_sum(i for i, _ in self.pu_ledger.values())
        return held + credit_sum(self.reclaimable.values())

    def local_credit(self) -> Credit:
        """Everything physically at this node (conservation accounting)."""
        return (
            self.hold
            + credit_sum(self.in_map.values())
            + self.escrow_total()
            + self.ledger_physical()
            + self.stranded
        )

    def ledger_balance(self) -> Credit:
        """Sum of all ledgered parts: the affected nodes' accounted credit."""
        return credit_sum(i + o for i, o in self.pu_ledger.values())

    def next_parcel(self) -> Parcel:
        self.parcel_seq += 1
        return (self.id, self.parcel_seq)

    def snapshot(self) -> str:
        """Node-local credit summary for trace lines."""
        parts = [f"hold={render_credit(self.hold)}"]
        if self.in_map:
            total = credit_sum(self.in_map.values())
            parts.append(f"in={render_credit(total)}")
        esc = self.escrow_total()
        if esc != ZERO:
            parts.append(f"esc={render_credit(esc)}")
        led = self.ledger_physical()
        if led != ZERO:
            parts.append(f"led={render_credit(led)}")
        if self.stranded != ZERO:
            parts.append(f"str={render_credit(self.stranded)}")
        return ",".join(parts)


def _live(st: NodeState, tag: SessionTag, out: Out) -> bool:
    """Stale/terminated filtering shared by every message handler."""
    if st.tag is not None and is_stale(tag, st.tag):
        out.label = "stale-discard"
        return False
    if st.terminated is not None and st.tag is not None and tag == st.tag:
        out.label = "post-term-discard"
        return False
    return True


def _strand_cargo(st: NodeState, amount: Credit, out: Out):
    # Refuge for credit that arrived where no live transition wants it;
    # conservation would break if we simply dropped it.
    if amount != ZERO:
        st.stranded = st.stranded + amount
        out.notes.append(f"stranded={render_credit(amount)}")


# --- A1/A2: start and distribution ---------------------------------------


def on_external_start(st: NodeState, tag: SessionTag, credit_c: Credit, ctx: Ctx) -> Out:
    """A1: external kick-off at the initiator, who becomes C_E."""
    if st.state == ACTIVE:
        raise AlreadyActive(f"node {st.id} already active")
    st.state = ACTIVE
    st.parent = st.id
    st.tag = tag
    st.hold = credit_c
    return Out(label="A1")


def distribute(st: NodeState, plan: list[tuple[NodeId, Credit]], ctx: Ctx) -> Out:
    """A2: split off shares to neighbors; must retain a positive hold."""
    out = Out(label="A2")
    if st.state != ACTIVE:
        raise InsufficientCredit(f"node {st.id} is passive, cannot distribute")
    shares = credit_sum(c for _, c in plan)
    if shares >= st.hold:
        raise InsufficientCredit(
            f"node {st.id}: distributing {render_credit(shares)} of "
            f"{render_credit(st.hold)} would leave nothing retained"
        )
    assert st.tag is not None
    for target, share in plan:
        st.hold = st.hold - share
        st.out_map[target] = st.out_map.get(target, ZERO) + share
        out.send(target, COM(st.tag, share))
    st.distributed = True
    return out


# --- A3: computation messages ---------------------------------------------


def on_com(st: NodeState, frm: NodeId, m: COM, ctx: Ctx) -> Out:
    out = Out(label="A3")
    if not _live(st, m.tag, out):
        # Stale or post-announcement credit has nowhere live to go; park it.
        _strand_cargo(st, m.credit, out)
        return out
    if st.state == PASSIVE:
        # First guard: fresh (or re-) activation. A surrendered node has
        # an unset parent, so adoption is always legal here.
        assert st.parent is None, f"passive node {st.id} with parent set"
        st.state = ACTIVE
        st.parent = frm
        st.tag = m.tag
        st.hold = st.hold + m.credit
        out.notes.append("activated")
    else:
        # Second guard: already working; record the creditor.
        st.in_map[frm] = st.in_map.get(frm, ZERO) + m.credit
    return out


# --- A4: credit surrender --------------------------------------------------


def choose_new_ce(candidates: list[NodeId], choose: Callable[[list[NodeId]], NodeId]) -> NodeId:
    """Pick the executive-role heir from the active candidates."""
    if not candidates:
        raise NoActivePeer("no active candidate for the executive role")
    return candidates[0] if len(candidates) == 1 else choose(candidates)


def _active_tree_children(st: NodeState, ctx: Ctx) -> list[NodeId]:
    """Out-targets that are live children: their parent pointer names me."""
    kids = []
    for k in sorted(st.out_map):
        p = ctx.view(k)
        if p.active and not p.dark and p.parent == st.id:
            kids.append(k)
    return kids


def _surrender_target(st: NodeState, ctx: Ctx) -> NodeId | None:
    """A4 guard cascade: where does the main parcel go?

    None means the chief-executive role (engine resolves at delivery),
    the last resort when no active peer is visible anywhere in the
    computation.
    """
    if st.parent is not None and st.parent != st.id:
        p = ctx.view(st.parent)
        if p.active and not p.dark:
            return st.parent
    kids = _active_tree_children(st, ctx)
    if kids:
        return choose_new_ce(kids, ctx.choose)
    creditors = [
        k
        for k in sorted(st.in_map)
        if ctx.view(k).active and not ctx.view(k).dark and k != st.id
    ]
    if creditors:
        return creditors[0]
    anyone = ctx.active_peers(st.id)
    if anyone:
        return ctx.choose(anyone)
    return None


def _send_parcel(
    st: NodeState,
    ctx: Ctx,
    out: Out,
    target: NodeId | None,
    amount: Credit,
    child_map: ChildMap = (),
    handover: bool = False,
    ledger: LedgerRows = (),
):
    """Launch one ImPC parcel: escrow record, send, and the AcK timer."""
    assert st.tag is not None
    msg = ImPC(
        st.tag,
        amount,
        len(child_map),
        child_map,
        st.next_parcel(),
        handover=handover,
        ledger=ledger,
    )
    st.pending[msg.parcel] = PendingSurrender(msg)
    out.send(target, msg)
    out.timers.append(Timer("ack-timeout", ctx.now + ctx.t_e, msg.parcel))


def _first_line_returns(st: NodeState, ctx: Ctx, skip: NodeId | None, out: Out):
    """A4 opening move: hand active creditors their credit back.

    Passive and dark creditors get no parcel of their own (there is no
    live receiver); their entries fold into the main parcel instead, via
    _fold_remaining_credit.  `skip` is the main-parcel target, also left
    for the fold.
    """
    for k in sorted(st.in_map):
        if k == skip:
            continue
        p = ctx.view(k)
        if p.active and not p.dark:
            _send_parcel(st, ctx, out, k, st.in_map.pop(k))


def _fold_remaining_credit(st: NodeState) -> Credit:
    """Empty the creditor map into the outgoing main parcel.

    A surrendering node must not keep any entry behind: a passive
    creditor may itself have surrendered while its grant was still on
    the wire, in which case no ImP will ever come to collect here.
    Claims are matched by sender identity alone, so the target absorbs
    the extra without ceremony.
    """
    return credit_sum(st.in_map.pop(k) for k in sorted(tuple(st.in_map)))


def _convert_dark_claims(st: NodeState, ctx: Ctx, out: Out):
    """Report claims held against dark nodes before they would be lost.

    Neighbor detection (B1) covers most reporters, but a claim adopted
    through a child_map can live at a node the dark one is not in range
    of.  Surrendering would drop that claim and with it the only mirror
    of the darkened credit, so it is ledgered here instead.
    """
    assert st.tag is not None
    for k in sorted(st.out_map):
        if ctx.view(k).dark:
            amount = st.out_map.pop(k)
            in_part = st.in_map.pop(k, ZERO)
            st.reported_in[k] = st.reported_in.get(k, ZERO) + in_part
            out.send(None, PaN(st.tag, k, in_part, amount), bucket="special")


def surrender_core(st: NodeState, ctx: Ctx) -> Out:
    """The surrender transition shared by A4, bounces, and retry re-sends.

    Empties the node: active creditors are paid back first, then the main
    parcel (hold, plus the folded entry of the target if it was also a
    creditor) goes to the guard-selected target with the live children
    riding along as b/child_map.  The chief executive cannot surrender
    upward: it either hands its role and its books to an active child or
    settles in place and tries to announce.
    """
    out = Out(label="A4")
    assert st.tag is not None
    _convert_dark_claims(st, ctx, out)

    handover = st.is_ce()
    if handover:
        kids = _active_tree_children(st, ctx)
        if not kids:
            # Nothing to hand over to: settle and watch the books.
            st.settles += 1
            _first_line_returns(st, ctx, None, out)
            # Remaining creditors are passive; at the root their credit
            # has already arrived where it was headed.
            st.hold = st.hold + _fold_remaining_credit(st)
            st.settled = True
            out.merge(try_announce(st, ctx))
            return out
        target = choose_new_ce(kids, ctx.choose)
    else:
        target = _surrender_target(st, ctx)
    _first_line_returns(st, ctx, target, out)
    folded = _fold_remaining_credit(st)
    kids = [k for k in _active_tree_children(st, ctx) if k != target]
    child_map = tuple((k, st.out_map[k]) for k in kids)
    ledger: LedgerRows = ()
    if handover:
        ledger = tuple(
            (r, a, i, o) for (r, a), (i, o) in sorted(st.pu_ledger.items())
        ) + tuple((r, a, c, ZERO) for (r, a), c in sorted(st.reclaimable.items()))
        st.pu_ledger.clear()
        st.reclaimable.clear()
        st.weak_deadline = None
    _send_parcel(st, ctx, out, target, st.hold + folded, child_map, handover, ledger)
    if target is not None:
        for k in kids:
            out.send(k, ImP(st.tag, target))
    if handover:
        out.notes.append(f"handover->{target}")
    elif target is None:
        out.notes.append("surrender->CE-role")
    else:
        # Borrowers (active out-targets that are not my children) get
        # told where their credit now lives.
        for k in sorted(st.out_map):
            p = ctx.view(k)
            if k != target and k not in kids and p.active and not p.dark:
                out.send(k, ImP(st.tag, target))
        out.notes.append(f"surrender->{target}")

    st.surrenders += 1
    st.state = PASSIVE
    st.parent = None
    st.hold = ZERO
    st.out_map.clear()
    st.settled = False
    return out


def on_idle(st: NodeState, ctx: Ctx) -> Out:
    """A4 entry point: workload finished, give the credit back."""
    if st.terminated is not None:
        return Out(label="idle-after-term")
    assert st.state == ACTIVE and not st.awaiting
    return surrender_core(st, ctx)


def _bounce(st: NodeState, ctx: Ctx, out: Out):
    """A passive node cannot sit on credit: surrender it onward at once."""
    st.state = ACTIVE
    out.notes.append("bounce")
    out.merge(surrender_core(st, ctx))


# --- A5: receiving surrendered credit ---------------------------------------


def _take_role(st: NodeState, ledger: LedgerRows):
    """Become the chief executive, taking over the books a handover carried."""
    st.parent = st.id
    for r, a, i, o in ledger:
        if o == ZERO and (r, a) not in st.pu_ledger:
            # Reclaim tombstones ride with a zero mirror.
            if i != ZERO:
                st.reclaimable[(r, a)] = st.reclaimable.get((r, a), ZERO) + i
        else:
            st.pu_ledger[(r, a)] = (i, o)


def on_impc(st: NodeState, frm: NodeId, m: ImPC, ctx: Ctx) -> Out:
    out = Out(label="A5")
    if st.tag is None:
        st.tag = m.tag
    if not _live(st, m.tag, out):
        _strand_cargo(st, m.carried_credit(), out)
        return out
    if m.credit == ZERO and m.b == 0 and not m.handover:
        # Claim cancel: the sender had settled up before learning its
        # claim moved here. Nothing rides along, so no activation and no
        # handshake; if the voided claim is still in flight, leave a
        # marker for its arrival.
        out.label = "claim-cancel"
        if st.out_map.pop(frm, None) is None:
            st.prepaid[frm] = st.prepaid.get(frm, 0) + 1
        if st.state == ACTIVE:
            extra = st.in_map.pop(frm, ZERO)
            st.hold = st.hold + extra
            out.merge(try_announce(st, ctx))
        return out

    folded = st.in_map.pop(frm, ZERO)
    if "a5-keep-inmap" in ctx.mutations and folded != ZERO:
        # Deliberate bug: forget to clear the absorbed creditor entry.
        st.in_map[frm] = folded
    absorbed = m.credit + folded
    st.hold = st.hold + absorbed
    st.out_map.pop(frm, None)
    for child, c in m.child_map:
        if child == st.id:
            continue  # a claim on myself cancels out
        if st.prepaid.get(child):
            # The final payment already came through; this claim was
            # void before it arrived.
            st.prepaid[child] -= 1
            if not st.prepaid[child]:
                del st.prepaid[child]
            out.notes.append(f"void-claim={child}")
            continue
        st.out_map[child] = st.out_map.get(child, ZERO) + c
    if m.handover:
        _take_role(st, m.ledger)
        out.notes.append("became-CE")

    out.send(frm, AcK(m.tag, m.parcel))
    if st.state == ACTIVE:
        if not m.handover:
            st.awaiting[m.parcel] = AwaitedParcel(frm, absorbed)
            out.timers.append(Timer("aack-timeout", ctx.now + ctx.t_e, m.parcel))
        out.merge(try_announce(st, ctx))
    elif m.handover:
        # A passive heir settles in place as the new executive; the
        # parcel is settled from this side, so no AAcK wait.
        st.state = ACTIVE
        st.settled = True
        out.merge(try_announce(st, ctx))
        if st.terminated is None:
            out.notes.append("settled-as-CE")
    else:
        # Passive absorber: the credit moves straight on (same transition)
        # so hold==0 still holds at every settled instant.
        _bounce(st, ctx, out)
    return out


# --- A6: passive-without-credit messages ------------------------------------


def on_imp(st: NodeState, frm: NodeId, m: ImP, ctx: Ctx) -> Out:
    out = Out(label="A6")
    if not _live(st, m.tag, out):
        return out
    if frm == st.parent:
        if m.p == st.id:
            # Would self-mint a root; role transfer travels only inside
            # flagged handover parcels.
            out.label = "imp-self-parent-discard"
            return out
        st.parent = m.p
        # Anything the old parent lent beyond the activation grant would
        # otherwise sit here forever once it goes passive: keep it moving
        # through the new branch.
        extra = st.in_map.pop(frm, ZERO)
        st.hold = st.hold + extra
        return out
    amount = st.in_map.pop(frm, ZERO)
    if amount == ZERO:
        # Already settled up before this arrived, possibly under a fresh
        # activation with a different parent. The named claim holder
        # would wait forever on a payment that went elsewhere: void the
        # claim explicitly with an empty parcel.
        if m.p != st.id:
            out.send(m.p, ImPC(m.tag, ZERO, 0, (), st.next_parcel()), bucket="special")
            out.notes.append(f"claim-cancel->{m.p}")
        return out
    # Only an active node holds creditor entries: surrender empties them.
    st.hold = st.hold + amount
    return out


# --- handshake: AcK / AAcK / timeouts ---------------------------------------


def on_ack(st: NodeState, frm: NodeId, m: AcK, ctx: Ctx) -> Out:
    out = Out(label="ack")
    rec = st.pending.get(m.parcel)
    if rec is None or rec.returned:
        # Unknown parcel, or its cargo already bounced back to escrow;
        # an AcK cannot retroactively deliver it.
        out.label = "stale-ack"
        return out
    del st.pending[m.parcel]
    assert st.tag is not None
    out.send(frm, AAcK(st.tag, m.parcel))
    return out


def on_aack(st: NodeState, frm: NodeId, m: AAcK, ctx: Ctx) -> Out:
    out = Out(label="aack")
    if st.awaiting.pop(m.parcel, None) is None:
        out.label = "stale-aack"
    return out


def on_ack_timeout(st: NodeState, parcel: Parcel, ctx: Ctx) -> Out:
    """Sender-side t_e: re-send only if the parcel bounced back to escrow.

    An empty escrow means the parcel was delivered (the AcK is lost or
    late); re-sending would mint credit, so the surrender finalizes
    silently and the receiver's own timeout path guards the credit.
    """
    out = Out(label="ack-timeout")
    rec = st.pending.pop(parcel, None)
    if rec is None:
        out.label = "timer-void"
        return out
    if not rec.returned:
        out.notes.append("finalized-sans-ack")
        return out
    msg = rec.msg
    st.hold = st.hold + msg.credit
    st.state = ACTIVE
    if msg.handover:
        # My handover came back: resume the role and its books.
        _take_role(st, msg.ledger)
        st.settled = True
        out.notes.append("handover-returned")
        out.merge(surrender_core(st, ctx))  # retry guard (b) or settle
        return out
    # Ordinary parcel: put the credit back in hand and run the guard
    # cascade again against the current world.
    for child, c in msg.child_map:
        st.out_map[child] = st.out_map.get(child, ZERO) + c
    retry = surrender_core(st, ctx)
    out.sends = [
        Send(s.dst, s.msg, "retry") if isinstance(s.msg, ImPC) else s
        for s in retry.sends
    ]
    out.timers = retry.timers
    out.announce = retry.announce
    out.notes.append("re-sent")
    return out


def on_aack_timeout(st: NodeState, parcel: Parcel, ctx: Ctx) -> Out:
    """Receiver-side t_e: settlement unconfirmed, ship the credit to C_E."""
    out = Out(label="aack-timeout")
    rec = st.awaiting.pop(parcel, None)
    if rec is None:
        out.label = "timer-void"
        return out
    assert st.tag is not None
    if st.hold < rec.amount:
        raise NegativeCredit(
            f"node {st.id}: awaiting extraction {render_credit(rec.amount)} "
            f"exceeds hold {render_credit(st.hold)}"
        )
    st.hold = st.hold - rec.amount
    if st.is_ce():
        # Forwarding to myself: keep it and remember the parcel.
        st.hold = st.hold + rec.amount
        st.seen_parcels.add(parcel)
        out.notes.append("self-forward")
        return out
    out.send(
        None,
        SpecialForward(st.tag, rec.amount, st.id, parcel),
        bucket="special",
    )
    return out


# --- B1/B2: a neighbor went dark ---------------------------------------------


def on_neighbor_affected(st: NodeState, affected: NodeId, ctx: Ctx) -> Out:
    """B1 reporter side: ship my records about the dark node to C_E."""
    out = Out(label="B1")
    if st.state != ACTIVE or st.terminated is not None or st.tag is None:
        return out
    in_part = st.in_map.pop(affected, ZERO)
    out_part = st.out_map.pop(affected, ZERO)
    st.reported_in[affected] = st.reported_in.get(affected, ZERO) + in_part
    out.send(None, PaN(st.tag, affected, in_part, out_part))
    return out


def on_pan(st: NodeState, frm: NodeId, m: PaN, ctx: Ctx) -> Out:
    """B2 at the chief executive: ledger the report, idempotently."""
    out = Out(label="B2")
    if st.tag is not None and is_stale(m.tag, st.tag):
        out.label = "stale-discard"
        _strand_cargo(st, m.in_credit, out)
        return out
    if not st.is_ce():
        # Role-addressed delivery resolves the executive at delivery
        # time, so organically this cannot fire.
        raise NotChiefExecutive(f"node {st.id} got a PaN without the role")
    if st.terminated is not None or not ctx.view(m.affected).dark:
        # Session over, or the node already recovered: mirrors are void,
        # but the physical part must land somewhere real.
        st.hold = st.hold + m.in_credit
        out.notes.append("late-pan-absorbed")
        return out
    if m.in_credit == ZERO and m.out_credit == ZERO:
        # A reporter with no dealings adds nothing to the accounting,
        # and an empty row would needlessly demote strong to weak.
        out.notes.append("empty-pan-ignored")
        return out
    key = (frm, m.affected)
    if key in st.pu_ledger:
        _strand_cargo(st, m.in_credit, out)
        out.notes.append("duplicate-pan")
        return out
    st.pu_ledger[key] = (m.in_credit, m.out_credit)
    out.merge(try_announce(st, ctx))
    return out


# --- B3/B4: recovery ---------------------------------------------------------


def on_recovery(st: NodeState, ctx: Ctx) -> Out:
    """B3: back on the air; tell the chief executive and live neighbors.

    Cargo that was dropped on this node while it was dark is folded back
    into its hold; a passive node cannot keep holding it, so it bounces
    the credit onward through the ordinary surrender guards.  A node that
    never joined the session (no tag) cannot address anyone and keeps its
    strandings parked.
    """
    out = Out(label="B3")
    if st.tag is None:
        return out
    out.send(None, NaP(st.tag, st.id))
    for k in sorted(st.neighbors):
        p = ctx.view(k)
        if p.active and not p.dark:
            out.send(k, NaP(st.tag, st.id))
    if st.stranded != ZERO and st.terminated is None:
        st.hold = st.hold + st.stranded
        out.notes.append(f"unstranded={render_credit(st.stranded)}")
        st.stranded = ZERO
        if st.state == PASSIVE:
            _bounce(st, ctx, out)
    return out


def on_nap(st: NodeState, frm: NodeId, m: NaP, ctx: Ctx) -> Out:
    """B4: at C_E, release the recovered node's ledger; at a neighbor,
    ask for the previously shipped credit back."""
    out = Out(label="B4")
    if st.tag is None or is_stale(m.tag, st.tag):
        out.label = "stale-discard"
        return out
    if st.is_ce():
        for key in [k for k in sorted(st.pu_ledger) if k[1] == m.recovered]:
            reporter = key[0]
            in_part, _mirror = st.pu_ledger.pop(key)
            if in_part == ZERO:
                continue
            if (
                st.terminated is None
                and reporter != st.id
                and ctx.view(reporter).active
            ):
                st.reclaimable[key] = st.reclaimable.get(key, ZERO) + in_part
            else:
                # Nobody will come asking (or the asker is this node);
                # the credit's home is here.
                st.hold = st.hold + in_part
                if reporter == st.id:
                    st.reported_in.pop(m.recovered, None)
        if (
            m.recovered == frm
            and st.terminated is not None
            and frm not in st.nap_replied
        ):
            st.nap_replied.add(frm)
            out.send(frm, TM(st.tag, st.terminated))
        out.merge(try_announce(st, ctx))
    elif (
        st.state == ACTIVE
        and st.terminated is None
        and st.reported_in.get(m.recovered, ZERO) != ZERO
    ):
        st.reported_in.pop(m.recovered, None)
        out.send(None, SpecialReclaim(st.tag, m.recovered), bucket="special")
    return out


# --- special reconciliation ---------------------------------------------------


def on_special(st: NodeState, frm: NodeId, m: Message, ctx: Ctx) -> Out:
    """Chief-executive reconciliation: forwarded handshake credit counts
    exactly once per parcel; reclaim requests get a refund COM."""
    out = Out(label="special")
    if isinstance(m, SpecialForward):
        if not _live(st, m.tag, out):
            _strand_cargo(st, m.credit, out)
            return out
        if m.parcel in st.seen_parcels:
            # The same parcel settled through another path: net it out.
            st.hold = st.hold - m.credit
            out.notes.append("duplicate-netted")
        else:
            st.seen_parcels.add(m.parcel)
            st.hold = st.hold + m.credit
        out.merge(try_announce(st, ctx))
        return out
    assert isinstance(m, SpecialReclaim)
    if not _live(st, m.tag, out):
        return out
    key = (frm, m.affected)
    amount = st.reclaimable.pop(key, ZERO)
    if amount == ZERO:
        out.notes.append("nothing-reclaimable")
        return out
    assert st.tag is not None
    out.send(frm, COM(st.tag, amount, refund=True), bucket="special")
    out.merge(try_announce(st, ctx))
    return out


# --- C1/C2: announcements ------------------------------------------------------


def try_announce(st: NodeState, ctx: Ctx) -> Out:
    """Strong first, then weak; only a settled chief executive may speak."""
    out = Out(label="announce-check")
    if not st.is_ce() or not st.settled or st.terminated is not None:
        return out
    # out_map entries are claims on credit that has left, not credit:
    # they cannot block C1/C2 (assert_announcement stays the arbiter).
    if st.in_map or st.reclaimable:
        return out
    if not st.pu_ledger:
        hold_ok = st.hold == ctx.total_credit
        if "c2-skip-hold-check" in ctx.mutations:
            hold_ok = True  # deliberate bug: announce without the credit
        if hold_ok:
            st.terminated = STRONG
            out.label = "C2"
            out.announce = STRONG
            return out
        return out
    if st.hold + st.ledger_balance() == ctx.total_credit:
        if st.weak_deadline is None:
            st.weak_deadline = ctx.now + ctx.weak_wait
            out.timers.append(Timer("weak-deadline", st.weak_deadline))
            out.notes.append(f"weak-armed@{st.weak_deadline:g}")
        elif ctx.now >= st.weak_deadline:
            st.terminated = WEAK
            out.label = "C1"
            out.announce = WEAK
    return out


def on_weak_deadline(st: NodeState, ctx: Ctx) -> Out:
    """Timer edge for C1: re-verify the balance at the armed instant."""
    out = Out(label="weak-deadline")
    if st.weak_deadline is None or ctx.now < st.weak_deadline:
        out.label = "timer-void"
        return out
    if not (st.is_ce() and st.settled and st.terminated is None):
        out.label = "timer-void"
        return out
    if (
        not st.in_map
        and not st.reclaimable
        and st.pu_ledger
        and st.hold + st.ledger_balance() == ctx.total_credit
    ):
        st.terminated = WEAK
        out.label = "C1"
        out.announce = WEAK
    else:
        # Books moved since arming; wait for the next balance.
        st.weak_deadline = None
    return out


# --- TM --------------------------------------------------------------------


def on_tm(st: NodeState, frm: NodeId, m: TM, ctx: Ctx) -> Out:
    out = Out(label="tm")
    if st.tag is None:
        st.tag = m.tag
    if is_stale(m.tag, st.tag):
        out.label = "stale-discard"
        return out
    st.terminated = m.mode
    return out
