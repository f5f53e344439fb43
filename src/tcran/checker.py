"""Omniscient run verification.

The simulator calls into this module after every processed event, so a
protocol bug surfaces at the exact event that introduced it rather than
as a mysteriously wrong final report.  Nothing here trusts the
protocol's own bookkeeping beyond the raw fields.

Per event the checks read running figures rather than scan every
node; Figures owns them and says what keeps them true.

Checked continuously:
  * conservation: the credits physically present at nodes (hold, entry
    maps, handshake escrow, executive ledgers, strandings) plus credit
    riding in-flight messages always sum to exactly the session total;
  * state shape: passive nodes hold nothing, computing nodes hold
    something;
  * role uniqueness: at most one chief executive ever, exactly one
    whenever no role handover is in flight.

Checked at announcement time: the claim must be true of the world, not
just of the executive's books.  Message-count ceilings are evaluated
against the run's own structural parameters at the end, and outcome
classes the finished run: strong, weak, a bounds or safety failure, or
silent and why.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Collection, Iterable

from .core import COM, ImPC, Message, NodeId, STRONG, WEAK
from .credit import Credit, ZERO, render_credit
from .errors import BoundsViolation, SafetyViolation
from .protocol import ACTIVE, PASSIVE, NodeState, blocker


def global_credit_sum(
    nodes: dict[NodeId, NodeState], inflight: Credit = ZERO
) -> Credit:
    total = inflight
    for n in nodes.values():
        c = n.local_credit()
        # Most nodes hold nothing; the numerator slot is an exact zero
        # test with no Python-level call, unlike Fraction.__bool__.
        if c._numerator:
            total = total + c
    return total


def assert_conservation(held: Credit, inflight: Credit, total: Credit, when: float):
    """Credit held at nodes plus credit in flight is the session total."""
    got = held + inflight
    if got != total:
        raise SafetyViolation(
            f"t={when:g}: credit sum {render_credit(got)} != "
            f"total {render_credit(total)}"
        )


def assert_state_invariant(nodes: Iterable[NodeState]):
    for n in nodes:
        # The numerator slot is the cheapest exact zero test on a Credit:
        # truthiness would call Fraction.__bool__.
        if n.state == PASSIVE and n.hold._numerator:
            raise SafetyViolation(f"passive node {n.id} holds {render_credit(n.hold)}")
        if (
            n.state == ACTIVE
            and not n.settled
            and n.terminated is None
            and not n.hold._numerator
        ):
            raise SafetyViolation(f"computing node {n.id} holds nothing")


def assert_single_ce(nodes: Iterable[NodeState], started: bool, window_open: bool):
    holders = [n.id for n in nodes if n.is_ce()]
    if len(holders) > 1:
        raise SafetyViolation(f"multiple chief executives: {sorted(holders)}")
    if started and not window_open and not holders:
        raise SafetyViolation("no chief executive and no handover in flight")


def tree_height(nodes: dict[NodeId, NodeState]) -> int:
    """Height of the virtual tree: executive at depth 1 (the reference).

    Nodes whose parent chain does not reach it count at a flat depth
    of 2.  That covers orphans and affected nodes, and also transient
    pointer cycles: a surrendered node re-activated by its own not yet
    re-parented ex-child closes a loop until the in-flight ImP or role
    parcel rewrites one edge.
    """
    in_tree = [
        n
        for n in nodes.values()
        if n.state == ACTIVE or (n.dark and n.joined)
    ]
    height = 0
    for n in in_tree:
        depth = 1
        seen = {n.id}
        cur = n
        while not cur.is_ce():
            p = nodes.get(cur.parent) if cur.parent is not None else None
            if p is None or p.state != ACTIVE or p.id in seen:
                depth = 2
                break
            seen.add(p.id)
            depth += 1
            cur = p
        height = max(height, depth)
    return height


def _tree_shape(st: NodeState) -> tuple:
    """Everything of a node that tree_height reads."""
    return (st.state, st.parent, st.dark and st.joined)


def _in_tree(st: NodeState) -> bool:
    return st.state == ACTIVE or (st.dark and st.joined)


class TreeHeight:
    """tree_height kept up to date from the nodes whose shape moved.

    It keeps every node's shape, a parent -> children index, and for
    each in-tree node its depth: 1 at the executive, one more per active
    ancestor, or None when the parent chain breaks or loops.  `levels`
    counts in-tree nodes per depth, a None depth at 2 as tree_height
    counts it, so the height is its largest key.  A node's depth reads
    only its own chain, so after an event only the nodes under a moved
    node in the index can change.
    """

    def __init__(self, nodes: dict[NodeId, NodeState]):
        self.nodes = nodes
        self.shape = {k: _tree_shape(st) for k, st in nodes.items()}
        self.children: dict[NodeId, set[NodeId]] = {}
        for k, st in nodes.items():
            self._link(k, st.parent)
        self.depth: dict[NodeId, int | None] = {}
        self.levels: Counter[int] = Counter()
        self._resolve([k for k, st in nodes.items() if _in_tree(st)])

    @property
    def height(self) -> int:
        return max(self.levels, default=0)

    def update(self, touched: Iterable[NodeId]) -> bool:
        """Catch up with the touched nodes' edits; True if a shape moved."""
        moved = []
        for k in touched:
            shape = _tree_shape(self.nodes[k])
            old = self.shape[k]
            if shape != old:
                self.shape[k] = shape
                moved.append(k)
                if shape[1] != old[1]:
                    self._unlink(k, old[1])
                    self._link(k, shape[1])
        if not moved:
            return False
        under, stack = set(), moved
        while stack:
            k = stack.pop()
            if k not in under:
                under.add(k)
                stack.extend(self.children.get(k, ()))
        for k in under:
            if k in self.depth:
                self._count(self.depth.pop(k), -1)
        self._resolve([k for k in under if _in_tree(self.nodes[k])])
        return True

    def stale_parts(self, fresh: TreeHeight | None = None) -> list[str]:
        """Names of the parts that differ from a rebuild from scratch,
        built here unless the caller has one."""
        fresh = fresh or TreeHeight(self.nodes)
        parts = [
            name
            for name in ("shape", "children", "depth", "levels")
            if getattr(fresh, name) != getattr(self, name)
        ]
        if self.height != tree_height(self.nodes):
            parts.append("height")
        return parts

    def _link(self, k: NodeId, parent: NodeId | None):
        if parent is not None and parent != k:
            self.children.setdefault(parent, set()).add(k)

    def _unlink(self, k: NodeId, parent: NodeId | None):
        kids = self.children.get(parent)
        if kids is not None:
            kids.discard(k)
            if not kids:
                del self.children[parent]

    def _count(self, depth: int | None, sign: int):
        level = 2 if depth is None else depth
        self.levels[level] += sign
        if not self.levels[level]:
            del self.levels[level]

    def _resolve(self, todo: list[NodeId]):
        """Fill in the depth of every in-tree node in todo.

        Every active node outside todo already has its depth, so a walk
        up a chain stops at the first one it meets.
        """
        nodes, depth = self.nodes, self.depth
        for k in todo:
            path: list[NodeId] = []
            cur = nodes[k]
            while cur.id not in depth:
                path.append(cur.id)
                if cur.is_ce():
                    d = 1
                    break
                p = nodes.get(cur.parent)
                if p is None or p.state != ACTIVE or p.id in path:
                    d = None
                    break
                cur = p
            else:
                d = depth[cur.id]
                d = None if d is None else d + 1
            for x in reversed(path):
                depth[x] = d
                self._count(d, 1)
                d = None if d is None else d + 1


class Figures:
    """Every running figure the per-event checks read, kept in one place.

    Per node: its local_credit() (`credit`), and whether it holds the
    executive role (`executives`), has a role handover in its escrow
    (`handovers`), is still computing by the `busy` predicate (`busy`)
    or is off the air (`dark`).  Across nodes: the credit they hold
    (`held`) and the TreeHeight index behind the tree height (`tree`).
    Across messages: the credit in flight (`inflight`), the COMs in
    flight (`coms`) and the role handover parcels in flight
    (`handover_parcels`).

    The figures stay true by a contract with the caller.  After every
    event it calls update with every node the event touched: each node a
    protocol handler was handed, plus each node the caller edited
    itself.  A handler edits only the NodeState it is given, so an
    untouched node's figures still hold.  The caller also calls fly(msg,
    1) when it launches a message and fly(msg, -1) when it delivers one.

    The constructor runs that same update over every node and fly over
    the given messages, so a fresh instance is the full recompute, and
    stale_parts compares against one.  The checks that follow a
    recompute stay independent of it: global_credit_sum and tree_height
    read the raw node states.
    """

    def __init__(
        self,
        nodes: dict[NodeId, NodeState],
        busy: Callable[[NodeState], bool],
        flying: Iterable[Message] = (),
    ):
        self.nodes = nodes
        self.is_busy = busy
        self.credit: dict[NodeId, Credit] = dict.fromkeys(nodes, ZERO)
        self.held = ZERO
        self.executives: set[NodeId] = set()
        self.handovers: set[NodeId] = set()
        self.busy: set[NodeId] = set()
        self.dark: set[NodeId] = set()
        self.tree = TreeHeight(nodes)
        self.inflight = ZERO
        self.coms = self.handover_parcels = 0
        self.update(nodes)
        for msg in flying:
            self.fly(msg, 1)

    def update(self, touched: Collection[NodeId]) -> bool:
        """Catch up with the touched nodes' edits; True if a tree shape
        moved."""
        nodes, credit, is_busy = self.nodes, self.credit, self.is_busy
        ces, handing, busy, dark = self.executives, self.handovers, self.busy, self.dark
        for k in touched:
            st = nodes[k]
            c, old = st.local_credit(), credit[k]
            # local_credit returns the hold itself when the other books
            # are empty, so identity settles most unchanged nodes.
            if c is not old and c != old:
                self.held += c - old
                credit[k] = c
            # A call in each branch rather than a call of the picked
            # method: picking builds a bound method, which doubles the cost.
            ces.add(k) if st.is_ce() else ces.discard(k)
            handing.add(k) if st.pending and _handing_over(st) else handing.discard(k)
            busy.add(k) if is_busy(st) else busy.discard(k)
            dark.add(k) if st.dark else dark.discard(k)
        return self.tree.update(touched)

    def fly(self, msg: Message, sign: int):
        """Count a message into flight (sign 1) or out of it (sign -1)."""
        cargo = msg.carried_credit()
        # The numerator slot is an exact zero test with no Python-level
        # call, unlike Fraction.__bool__.
        if cargo._numerator:
            # Add or subtract rather than multiply: int * Credit is a
            # plain Fraction, which every later add would have to convert.
            if sign > 0:
                self.inflight += cargo
            else:
                self.inflight -= cargo
        kind = type(msg)
        if kind is COM:
            self.coms += sign
        elif kind is ImPC and msg.handover:
            self.handover_parcels += sign

    def stale_parts(self, flying: Iterable[Message] = ()) -> list[str]:
        """Names of the parts that differ from a fresh recompute over the
        nodes and the messages in flight."""
        fresh = Figures(self.nodes, self.is_busy, flying)
        mine = vars(self)
        # The nodes and the predicate are the same objects on both sides.
        stale = [k for k, v in vars(fresh).items() if k != "tree" and v != mine[k]]
        return stale + self.tree.stale_parts(fresh.tree)


def _handing_over(st: NodeState) -> bool:
    return any(rec.msg.handover for rec in st.pending.values())


def assert_announcement(
    nodes: dict[NodeId, NodeState],
    inflight: Credit,
    mode: str,
    total: Credit,
    now: float,
    last_activity: float,
):
    """The announcement must be true of the whole world at its instant."""
    ce = [n for n in nodes.values() if n.is_ce()]
    if len(ce) != 1:
        raise SafetyViolation(f"{mode} announced with {len(ce)} executives")
    boss = ce[0]
    for n in nodes.values():
        if n.dark or n is boss:
            continue
        if n.state == ACTIVE:
            raise SafetyViolation(
                f"{mode} announced while node {n.id} is still active"
            )
    if now < last_activity:
        raise SafetyViolation(
            f"{mode} announced at t={now:g} before the computation's "
            f"last activity at t={last_activity:g}"
        )
    if mode == STRONG:
        if boss.hold != total:
            raise SafetyViolation(
                f"strong announced with {render_credit(boss.hold)} of "
                f"{render_credit(total)} in hand"
            )
        if inflight != ZERO:
            raise SafetyViolation("strong announced with credit in flight")
        for n in nodes.values():
            if n.dark and n.local_credit() != ZERO:
                raise SafetyViolation(
                    f"strong announced while dark node {n.id} holds credit"
                )
    elif mode == WEAK:
        booked = boss.hold + boss.ledger_balance()
        if booked != total:
            raise SafetyViolation(
                f"weak announced with books at {render_credit(booked)} of "
                f"{render_credit(total)}"
            )
    else:
        raise SafetyViolation(f"unknown announcement {mode!r}")


# --- message-count ceilings ---------------------------------------------------

_BOUND_EXPRS = {
    "COM": lambda p: p["N"] * p["degree"],
    "ImPC": lambda p: p["N_neighbor"] * p["N_leave"],
    "ImP": lambda p: max(0, p["N_neighbor"] - 1) * p["N_leave"],
    "AcK": lambda p: p["N_neighbor"] * p["N_leave"],
    "AAcK": lambda p: p["N_neighbor"] * p["N_leave"],
    "PaN": lambda p: p["N_neighbor"] * p["N_affected"],
    "NaP": lambda p: (p["N_neighbor"] + 1) * p["N_affected"],
}


def message_bounds_report(
    counters: dict[str, int], params: dict[str, int]
) -> dict[str, dict[str, int | bool]]:
    """Per-kind counts against their structural ceilings.

    Retries, reconciliation traffic, and the final broadcast are counted
    but not bounded; they are reported under unlimited rows.
    """
    report: dict[str, dict[str, int | bool]] = {}
    for kind, expr in _BOUND_EXPRS.items():
        bound = expr(params)
        count = counters.get(kind, 0)
        report[kind] = {"count": count, "bound": bound, "ok": count <= bound}
    for kind in ("TM", "retry", "special"):
        report[kind] = {"count": counters.get(kind, 0), "bound": -1, "ok": True}
    return report


def assert_bounds(report: dict[str, dict[str, int | bool]]):
    bad = [
        f"{kind}: {row['count']} > {row['bound']}"
        for kind, row in sorted(report.items())
        if not row["ok"]
    ]
    if bad:
        raise BoundsViolation("; ".join(bad))


# --- one run's outcome --------------------------------------------------------

# Why a run ends silent, in order: the first two and the last are read
# here, the rest are protocol.blocker's names.
SILENT = (
    "no-exec",  # no node holds the role
    "exec-dark",  # the executive is off the air
    "unsettled",
    "in-map",  # a creditor entry is left
    "reclaimable",
    "short-hold",  # no ledger row, and the hold is below the total
    "over-count",  # hold + ledger_balance() is above the total
    "under-count",  # ... or below it
    "weak-armed",  # the books allow an announcement that has not come
)

# The outcome of a run that announced strong within its bounds and its
# horizon.
STRONG_RUN = (STRONG, "-")
HORIZON_REACHED = "horizon reached"


def outcome(
    nodes: dict[NodeId, NodeState], total: Credit, report, err
) -> tuple[str, str]:
    """A finished run's (class, detail), from its nodes, its credit
    total, and its RunReport or the SafetyViolation that ended it.

    The classes are strong, weak, bounds (a row of message_bounds_report
    is exceeded), safety:<words> and silent:<why>, with <why> from
    SILENT.  A safety class is the violation's first words, at most
    three, after any "t=...: " prefix and before the first word with a
    digit, so that one kind of violation makes one class.  A run that
    reaches the horizon says so in its detail.
    """
    if err is not None:
        text = str(err)
        words = text.split(": ", 1)[1] if text.startswith("t=") else text
        head = []
        for word in words.split()[:3]:
            if any(c.isdigit() for c in word):
                break
            head.append(word.rstrip(":"))
        return f"safety:{' '.join(head)}", text
    assert report is not None
    try:
        assert_bounds(report.bounds)
    except BoundsViolation as e:
        cls, detail = "bounds", str(e)
    else:
        if report.terminated == STRONG:
            cls, detail = STRONG_RUN
        elif report.terminated == WEAK:
            cls = WEAK
            detail = f"node {report.announcer} at t={report.announce_time:g}"
        else:
            cls, detail = _silent(nodes, total)
    if report.horizon_hit:
        # A strong run that hits the horizon gets a detail too.
        detail = HORIZON_REACHED if detail == "-" else f"{detail}; {HORIZON_REACHED}"
    return cls, detail


def _silent(nodes: dict[NodeId, NodeState], total: Credit) -> tuple[str, str]:
    ces = [st for st in nodes.values() if st.is_ce()]
    if not ces:
        return "silent:no-exec", "no node holds the role"
    (st,) = ces
    why = "exec-dark" if st.dark else (blocker(st, total) or "weak-armed")
    books = f"exec {st.id} hold={render_credit(st.hold)}"
    if why == "in-map":
        books += f" in_map={_render(st.in_map)}"
    elif why == "reclaimable":
        books += f" reclaimable={_render(st.reclaimable)}"
    elif why in ("over-count", "under-count"):
        books += f" ledger={render_credit(st.ledger_balance())}"
    elif why == "weak-armed" and st.weak_deadline is not None:
        books += f" weak_deadline={st.weak_deadline:g}"
    return f"silent:{why}", books


def _render(book: dict) -> str:
    items = (f"{k}: {render_credit(v)}" for k, v in sorted(book.items()))
    return "{" + ", ".join(items) + "}"
