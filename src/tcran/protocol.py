"""Per-node T-CRAN state machine.

Each handler consumes one input event (a delivered message, an idle
signal, a timer, a channel-world transition) against one node's state and
returns the outbound effects: messages, timer requests, and possibly a
termination announcement.  Handlers mutate the passed NodeState in place;
the simulator serializes events per node, so no locking is needed.

Transition labels in trace output follow the protocol's action table
names: A1..A6 for credit distribution/aggregation, B1..B4 for the
affected-node flows, C1 for the weak announcement.  A strong announcement
(C2) has no label of its own: the engine traces it as an `announce` line
after the line of the handler whose event completed the credit.

A top-level handler (distribute and the on_* functions) builds the one
Out of its event.  The sub-transitions it calls (surrender_core, _bounce,
try_announce) append to that Out and set no label.

A run carries one computation.  A node joins it through A1, its first
COM, or a TM; the only delivery filter is the discard at a node that
already knows the computation terminated.

Local conservation contract: the physical credit carried in by the event
plus the node's holdings before it equals the holdings after it plus the
credit carried out in sends.  The engine's omniscient checker re-verifies
the global version of this after every event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

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
    ReclaimRows,
    STRONG,
    SpecialForward,
    SpecialReclaim,
    TM,
    WEAK,
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


@dataclass(slots=True)
class Peer:
    """The slice of a neighbor's state that guards may read.

    The action tables freely test remote STATE(k) and parent pointers, so
    the simulator hands transitions this view instead of modeling a
    separate state-dissemination protocol.  It is built per call and
    never kept, so it is not frozen.
    """

    active: bool
    parent: NodeId | None
    dark: bool  # affected or failed: unreachable


@dataclass(slots=True)
class Ctx:
    """Per-event environment the simulator provides to a transition."""

    now: float
    total_credit: Credit
    t_e: float
    weak_wait: float
    view: Callable[[NodeId], Peer]
    active_peers: Callable[[NodeId], list[NodeId]]  # same-computation, sorted
    choose: Callable[[NodeId, list[NodeId]], NodeId]  # (me, xs): me's new C_E or fallback
    mutations: frozenset[str] = frozenset()  # names from KNOWN_MUTATIONS


@dataclass(slots=True)
class Send:
    dst: NodeId | None  # None: to the chief-executive role, resolved at delivery
    msg: Message
    bucket: str  # counter bucket ("ImPC", "retry", "special", ...)


@dataclass(slots=True)
class Timer:
    kind: str  # "ack-timeout" | "aack-timeout" | "weak-deadline"
    deadline: float
    parcel: Parcel | None = None


@dataclass(slots=True)
class Out:
    """Everything a transition asks of the simulator."""

    label: str = ""
    sends: list[Send] = field(default_factory=list)
    timers: list[Timer] = field(default_factory=list)
    announce: str | None = None
    notes: list[str] = field(default_factory=list)

    def send(self, dst: NodeId | None, msg: Message, bucket: str | None = None):
        self.sends.append(Send(dst, msg, bucket or msg.kind))


@dataclass(slots=True)
class PendingSurrender:
    """Sender-side handshake record for one in-flight ImPC parcel.

    The parcel credit physically rides the message; `returned` flips when
    a drop at delivery bounced it back into this escrow, which is the
    only condition under which the timeout path may re-send it.
    """

    msg: ImPC
    returned: bool = False


@dataclass(slots=True)
class AwaitedParcel:
    """Receiver-side record: absorbed credit still awaiting its AAcK."""

    frm: NodeId
    amount: Credit


@dataclass(slots=True)
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
    joined: bool = False  # took part in the computation (A1, a COM, or a TM)
    settled: bool = False  # C_E finished local work; announcement precondition
    terminated: str | None = None

    # chief-executive books
    pu_ledger: dict[tuple[NodeId, NodeId], tuple[Credit, Credit]] = field(
        default_factory=dict
    )  # (reporter, affected) -> (physical in-part, mirrored out-part)
    reclaimable: dict[tuple[NodeId, NodeId], Credit] = field(default_factory=dict)
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

    distributed: bool = False  # the engine ran or skipped the activation fanout
    surrenders: int = 0  # credit-surrender transitions run (N_leave term)

    # --- derived quantities -------------------------------------------------

    def is_ce(self) -> bool:
        return self.parent == self.id

    def escrow_total(self) -> Credit:
        return credit_sum(
            p.msg.carried_credit() for p in self.pending.values() if p.returned
        )

    def ledger_physical(self) -> Credit:
        held = (i for i, _ in self.pu_ledger.values())
        return credit_sum(chain(held, self.reclaimable.values()))

    def local_credit(self) -> Credit:
        """Everything physically at this node (conservation accounting).

        Runs for every touched node after every event, so an empty book
        costs no add, and with every other book empty the result is the
        hold object itself, which lets the engine's refresh skip the
        compare.
        """
        total = self.hold
        if self.in_map:
            total = total + credit_sum(self.in_map.values())
        if self.pending:
            esc = self.escrow_total()  # zero while no parcel bounced back
            if esc._numerator:
                total = total + esc
        if self.pu_ledger or self.reclaimable:
            total = total + self.ledger_physical()
        # The numerator slot is an exact zero test with no Python-level
        # call, unlike Fraction.__bool__.
        if self.stranded._numerator:
            total = total + self.stranded
        return total

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
        # Numerator tests, as in local_credit: this runs for every trace
        # line.
        if self.pending:
            esc = self.escrow_total()
            if esc._numerator:
                parts.append(f"esc={render_credit(esc)}")
        if self.pu_ledger or self.reclaimable:
            led = self.ledger_physical()
            if led._numerator:
                parts.append(f"led={render_credit(led)}")
        if self.stranded._numerator:
            parts.append(f"str={render_credit(self.stranded)}")
        return ",".join(parts)


def _live(st: NodeState, out: Out) -> bool:
    """Post-termination filtering shared by the message handlers."""
    if st.terminated is not None:
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


def on_external_start(st: NodeState, credit_c: Credit, ctx: Ctx) -> Out:
    """A1: external kick-off at the initiator, who becomes C_E."""
    if st.state == ACTIVE:
        raise AlreadyActive(f"node {st.id} already active")
    st.state = ACTIVE
    st.parent = st.id
    st.joined = True
    st.hold = credit_c
    return Out(label="A1")


def distribute(st: NodeState, plan: Sequence[tuple[NodeId, Credit]], ctx: Ctx) -> Out:
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
    for target, share in plan:
        st.hold = st.hold - share
        st.out_map[target] = st.out_map.get(target, ZERO) + share
        out.send(target, COM(share))
    return out


# --- A3: computation messages ---------------------------------------------


def on_com(st: NodeState, frm: NodeId, m: COM, ctx: Ctx) -> Out:
    out = Out(label="A3")
    if not _live(st, out):
        # Post-announcement credit has nowhere live to go; park it.
        _strand_cargo(st, m.credit, out)
        return out
    if st.state == PASSIVE:
        # First guard: fresh (or re-) activation. A surrendered node has
        # an unset parent, so adoption is always legal here.
        assert st.parent is None, f"passive node {st.id} with parent set"
        st.state = ACTIVE
        st.parent = frm
        st.joined = True
        st.hold = st.hold + m.credit
        out.notes.append("activated")
    else:
        # Second guard: already working; record the creditor.
        st.in_map[frm] = st.in_map.get(frm, ZERO) + m.credit
    return out


# --- A4: credit surrender --------------------------------------------------


def choose_new_ce(
    me: NodeId, candidates: list[NodeId], choose: Callable[[NodeId, list[NodeId]], NodeId]
) -> NodeId:
    """Node me picks the executive-role heir from the active candidates."""
    if not candidates:
        raise NoActivePeer("no active candidate for the executive role")
    return candidates[0] if len(candidates) == 1 else choose(me, candidates)


def _active_tree_children(st: NodeState, ctx: Ctx) -> list[NodeId]:
    """Out-targets that are live children: their parent pointer names me."""
    kids = []
    for k in sorted(st.out_map):
        p = ctx.view(k)
        if p.active and not p.dark and p.parent == st.id:
            kids.append(k)
    return kids


def _surrender_target(st: NodeState, ctx: Ctx, kids: list[NodeId]) -> NodeId | None:
    """A4 guard cascade: where does the main parcel go?

    `kids` are the live tree children.  None means the chief-executive
    role (engine resolves at delivery), the last resort when no active
    peer is visible anywhere in the computation.
    """
    if st.parent is not None and st.parent != st.id:
        p = ctx.view(st.parent)
        if p.active and not p.dark:
            return st.parent
    if kids:
        return choose_new_ce(st.id, kids, ctx.choose)
    for k in sorted(st.in_map):  # the first live creditor
        p = ctx.view(k)
        if p.active and not p.dark and k != st.id:
            return k
    anyone = ctx.active_peers(st.id)
    if anyone:
        return ctx.choose(st.id, anyone)
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
    reclaim: ReclaimRows = (),
):
    """Launch one ImPC parcel: escrow record, send, and the AcK timer."""
    msg = ImPC(
        amount,
        child_map,
        st.next_parcel(),
        handover=handover,
        ledger=ledger,
        reclaim=reclaim,
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
    for k in sorted(st.out_map):
        if ctx.view(k).dark:
            amount = st.out_map.pop(k)
            in_part = st.in_map.pop(k, ZERO)
            st.reported_in[k] = st.reported_in.get(k, ZERO) + in_part
            out.send(None, PaN(k, in_part, amount), bucket="special")


def surrender_core(st: NodeState, ctx: Ctx, out: Out):
    """The surrender transition shared by A4, bounces, and retry re-sends.

    Empties the node: active creditors are paid back first, then the main
    parcel (hold, plus the folded entry of the target if it was also a
    creditor) goes to the guard-selected target with the live children
    riding along as b/child_map.  The chief executive cannot surrender
    upward: it either hands its role and its books to an active child or
    settles in place and tries to announce.
    """
    _convert_dark_claims(st, ctx, out)
    kids = _active_tree_children(st, ctx)

    handover = st.is_ce()
    if handover:
        if not kids:
            # Nothing to hand over to: settle and watch the books.
            _first_line_returns(st, ctx, None, out)
            # Remaining creditors are passive; at the root their credit
            # has already arrived where it was headed.
            st.hold = st.hold + _fold_remaining_credit(st)
            st.settled = True
            try_announce(st, ctx, out)
            return
        target = choose_new_ce(st.id, kids, ctx.choose)
    else:
        target = _surrender_target(st, ctx, kids)
    _first_line_returns(st, ctx, target, out)
    folded = _fold_remaining_credit(st)
    kids = [k for k in kids if k != target]
    child_map = tuple((k, st.out_map[k]) for k in kids)
    ledger: LedgerRows = ()
    reclaim: ReclaimRows = ()
    if handover:
        ledger = tuple((r, a, i, o) for (r, a), (i, o) in sorted(st.pu_ledger.items()))
        reclaim = tuple((r, a, c) for (r, a), c in sorted(st.reclaimable.items()))
        st.pu_ledger.clear()
        st.reclaimable.clear()
        st.weak_deadline = None
    _send_parcel(
        st, ctx, out, target, st.hold + folded, child_map, handover, ledger, reclaim
    )
    if target is not None:
        for k in kids:
            out.send(k, ImP(target))
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
                out.send(k, ImP(target))
        out.notes.append(f"surrender->{target}")

    st.surrenders += 1
    st.state = PASSIVE
    st.parent = None
    st.hold = ZERO
    st.out_map.clear()
    st.settled = False


def on_idle(st: NodeState, ctx: Ctx) -> Out:
    """A4 entry point: workload finished, give the credit back."""
    assert st.state == ACTIVE and st.terminated is None and not st.awaiting
    out = Out(label="A4")
    surrender_core(st, ctx, out)
    return out


def _bounce(st: NodeState, ctx: Ctx, out: Out):
    """A passive node cannot sit on credit: surrender it onward at once."""
    st.state = ACTIVE
    out.notes.append("bounce")
    surrender_core(st, ctx, out)


# --- A5: receiving surrendered credit ---------------------------------------


def _take_role(st: NodeState, m: ImPC):
    """Become the chief executive, taking over the books a handover carried."""
    st.parent = st.id
    for r, a, i, o in m.ledger:
        st.pu_ledger[(r, a)] = (i, o)
    for r, a, c in m.reclaim:
        st.reclaimable[(r, a)] = st.reclaimable.get((r, a), ZERO) + c


def on_impc(st: NodeState, frm: NodeId, m: ImPC, ctx: Ctx) -> Out:
    out = Out(label="A5")
    if not _live(st, out):
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
            try_announce(st, ctx, out)
        return out

    folded = st.in_map.pop(frm, ZERO)
    if "a5-keep-inmap" in ctx.mutations and folded != ZERO:
        # Deliberate bug: forget to clear the absorbed creditor entry.
        st.in_map[frm] = folded
    absorbed = m.credit + folded
    st.hold = st.hold + absorbed
    st.out_map.pop(frm, None)
    for child, c in m.child_map:
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
        _take_role(st, m)
        out.notes.append("became-CE")

    out.send(frm, AcK(m.parcel))
    if st.state == ACTIVE:
        if not m.handover:
            st.awaiting[m.parcel] = AwaitedParcel(frm, absorbed)
            out.timers.append(Timer("aack-timeout", ctx.now + ctx.t_e, m.parcel))
        try_announce(st, ctx, out)
    elif m.handover:
        # A passive heir settles in place as the new executive; the
        # parcel is settled from this side, so no AAcK wait.
        st.state = ACTIVE
        st.settled = True
        try_announce(st, ctx, out)
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
    if not _live(st, out):
        return out
    if frm == st.parent:
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
        # activation with a different parent. The named claim holder (no
        # ImP names its receiver) would wait forever on a payment that
        # went elsewhere: void the claim explicitly with an empty parcel.
        out.send(m.p, ImPC(ZERO, (), st.next_parcel()), bucket="special")
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
    out.send(frm, AAcK(m.parcel))
    return out


def on_aack(st: NodeState, frm: NodeId, m: AAcK, ctx: Ctx) -> Out:
    out = Out(label="aack")
    if st.awaiting.pop(m.parcel, None) is None:
        out.label = "stale-aack"
    return out


def on_ack_timeout(st: NodeState, parcel: Parcel, ctx: Ctx) -> Out | None:
    """Sender-side t_e: re-send only if the parcel bounced back to escrow.

    An empty escrow means the parcel was delivered (the AcK is lost or
    late); re-sending would mint credit, so the surrender finalizes
    silently and the receiver's own timeout path guards the credit.
    None when the handshake already closed: the timer is void."""
    rec = st.pending.pop(parcel, None)
    if rec is None:
        return None
    out = Out(label="ack-timeout")
    if not rec.returned:
        out.notes.append("finalized-sans-ack")
        return out
    msg = rec.msg
    st.hold = st.hold + msg.credit
    st.state = ACTIVE
    if msg.handover:
        # My handover came back: resume the role and its books.
        _take_role(st, msg)
        st.settled = True
        out.notes.append("handover-returned")
        surrender_core(st, ctx, out)  # retry guard (b) or settle
        return out
    # Ordinary parcel: put the credit back in hand and run the guard
    # cascade again against the current world.
    for child, c in msg.child_map:
        st.out_map[child] = st.out_map.get(child, ZERO) + c
    surrender_core(st, ctx, out)
    for s in out.sends:
        if isinstance(s.msg, ImPC):
            s.bucket = "retry"
    # Unlike the handover retry above, this line drops the surrender's notes.
    out.notes = ["re-sent"]
    return out


def on_aack_timeout(st: NodeState, parcel: Parcel, ctx: Ctx) -> Out | None:
    """Receiver-side t_e: settlement unconfirmed, ship the credit to C_E.
    None when the settlement was confirmed: the timer is void."""
    rec = st.awaiting.pop(parcel, None)
    if rec is None:
        return None
    out = Out(label="aack-timeout")
    if st.hold < rec.amount:
        raise NegativeCredit(
            f"node {st.id}: awaiting extraction {render_credit(rec.amount)} "
            f"exceeds hold {render_credit(st.hold)}"
        )
    if st.is_ce():
        # Forwarding to myself: the credit is already home.
        out.notes.append("self-forward")
        return out
    st.hold = st.hold - rec.amount
    out.send(None, SpecialForward(rec.amount, st.id, parcel), bucket="special")
    return out


# --- B1/B2: a neighbor went dark ---------------------------------------------


def on_neighbor_affected(st: NodeState, affected: NodeId, ctx: Ctx) -> Out:
    """B1 reporter side: ship my records about the dark node to C_E."""
    out = Out(label="B1")
    if st.state != ACTIVE or st.terminated is not None or not st.joined:
        return out
    in_part = st.in_map.pop(affected, ZERO)
    out_part = st.out_map.pop(affected, ZERO)
    st.reported_in[affected] = st.reported_in.get(affected, ZERO) + in_part
    out.send(None, PaN(affected, in_part, out_part))
    return out


def on_pan(st: NodeState, frm: NodeId, m: PaN, ctx: Ctx) -> Out:
    """B2 at the chief executive: ledger the report, idempotently."""
    out = Out(label="B2")
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
    try_announce(st, ctx, out)
    return out


# --- B3/B4: recovery ---------------------------------------------------------


def on_recovery(st: NodeState, ctx: Ctx) -> Out:
    """B3: back on the air; tell the chief executive and live neighbors.

    Cargo that was dropped on this node while it was dark is folded back
    into its hold; a passive node cannot keep holding it, so it bounces
    the credit onward through the ordinary surrender guards.  A node that
    never joined the computation joins now if credit was stranded on it,
    so that credit takes the same path; otherwise it stays out.
    """
    out = Out(label="B3")
    if not st.joined:
        if not st.stranded:
            return out
        st.joined = True
    out.send(None, NaP(st.id))
    for k in sorted(st.neighbors):
        p = ctx.view(k)
        if p.active and not p.dark:
            out.send(k, NaP(st.id))
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
            out.send(frm, TM(st.terminated))
        try_announce(st, ctx, out)
    elif (
        st.state == ACTIVE
        and st.terminated is None
        and st.reported_in.get(m.recovered, ZERO) != ZERO
    ):
        st.reported_in.pop(m.recovered, None)
        out.send(None, SpecialReclaim(m.recovered), bucket="special")
    return out


# --- special reconciliation ---------------------------------------------------


def on_special(st: NodeState, frm: NodeId, m: Message, ctx: Ctx) -> Out:
    """Chief-executive reconciliation: forwarded handshake credit joins
    the hold; reclaim requests get a refund COM."""
    out = Out(label="special")
    if isinstance(m, SpecialForward):
        if not _live(st, out):
            _strand_cargo(st, m.credit, out)
            return out
        st.hold = st.hold + m.credit
        try_announce(st, ctx, out)
        return out
    assert isinstance(m, SpecialReclaim)
    if not _live(st, out):
        return out
    key = (frm, m.affected)
    amount = st.reclaimable.pop(key, ZERO)
    if amount == ZERO:
        out.notes.append("nothing-reclaimable")
        return out
    out.send(frm, COM(amount, refund=True), bucket="special")
    try_announce(st, ctx, out)
    return out


# --- C1/C2: announcements ------------------------------------------------------


def blocker(st: NodeState, total: Credit) -> str | None:
    """The first condition that holds a chief executive's announcement
    back, or None when its books allow C2 (no ledger) or C1 (a ledger).

    out_map entries are claims on credit that has left, not credit, so
    they block nothing (checker.assert_announcement stays the arbiter).
    """
    if not st.settled:
        return "unsettled"
    if st.in_map:
        return "in-map"
    if st.reclaimable:
        return "reclaimable"
    books = st.hold + st.ledger_balance() if st.pu_ledger else st.hold
    if books < total:
        return "under-count" if st.pu_ledger else "short-hold"
    if books > total:
        return "over-count"
    return None


def try_announce(st: NodeState, ctx: Ctx, out: Out):
    """C2, or arm the timer whose edge alone fires C1; only a settled
    chief executive may speak."""
    if not st.is_ce() or st.terminated is not None:
        return
    why = blocker(st, ctx.total_credit)
    if why == "short-hold" and "c2-skip-hold-check" in ctx.mutations:
        why = None  # deliberate bug: announce without the credit
    if why is not None:
        return
    if not st.pu_ledger:
        st.terminated = STRONG
        out.announce = STRONG
    elif st.weak_deadline is None:
        st.weak_deadline = ctx.now + ctx.weak_wait
        out.timers.append(Timer("weak-deadline", st.weak_deadline))
        out.notes.append(f"weak-armed@{st.weak_deadline:g}")


def on_weak_deadline(st: NodeState, ctx: Ctx) -> Out | None:
    """Timer edge for C1: re-verify the balance at the armed instant.
    None when void: disarmed, re-armed for later, or the role moved on."""
    if (
        st.weak_deadline is None
        or ctx.now < st.weak_deadline
        or not (st.is_ce() and st.settled and st.terminated is None)
    ):
        return None
    out = Out(label="weak-deadline")
    if st.pu_ledger and blocker(st, ctx.total_credit) is None:
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
    st.joined = True
    st.terminated = m.mode
    return out
