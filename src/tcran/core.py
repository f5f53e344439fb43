"""Identifiers and the full message vocabulary.

Everything here is an immutable value object: safe to copy, hash, and
embed in trace lines.  Message payload rendering (``describe``) is the
canonical wire text used by traces, so it must stay deterministic.
How the engine carries each kind (its handler, queue class and delay
stream) is decided in one place, tcran.engine._KINDS.

A run carries exactly one computation: one initiator hands out the one
credit the protocol conserves.  Messages therefore carry no session
identity; a node only needs to know whether it has joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .credit import Credit, ZERO, credit_sum, render_credit

NodeId = int
ChannelId = int

# Surrender parcels are identified by (origin node, per-origin sequence);
# AcK/AAcK quote the parcel they acknowledge so a node can keep several
# handshakes in flight at once.
Parcel = tuple[NodeId, int]

STRONG = "strong"
WEAK = "weak"


def render_parcel(p: Parcel) -> str:
    return f"{p[0]}.{p[1]}"


@dataclass(frozen=True, slots=True)
class Message:
    kind: ClassVar[str] = "?"

    def describe(self) -> str:
        return self.kind

    def carried_credit(self) -> Credit:
        """Physical credit riding this message (conservation accounting)."""
        return ZERO


@dataclass(frozen=True, slots=True)
class COM(Message):
    """Computation distribution; also used (flagged) for ledger refunds."""

    credit: Credit = ZERO
    refund: bool = False

    kind: ClassVar[str] = "COM"

    def describe(self) -> str:
        suffix = ",refund" if self.refund else ""
        return f"COM({render_credit(self.credit)}{suffix})"

    def carried_credit(self) -> Credit:
        return self.credit


# child_map rows: (child, credit granted to it)
ChildMap = tuple[tuple[NodeId, Credit], ...]
# ledger rows: (reporter, affected, physical in-part, mirrored out-part)
LedgerRows = tuple[tuple[NodeId, NodeId, Credit, Credit], ...]
# reclaim rows: (reporter, affected, released credit the reporter may claim)
ReclaimRows = tuple[tuple[NodeId, NodeId, Credit], ...]


@dataclass(frozen=True, slots=True)
class ImPC(Message):
    """Passive-with-credit surrender: opens a three-way handshake.

    child_map carries the exact out-entries of the active tree-children
    being re-parented to the target (a count alone cannot support the
    receiver's out-merge); b is their count.  handover marks a
    chief-executive role transfer; only then do the executive's books
    ride along: its PU ledger rows, and in a field of their own its
    reclaim rows, whose credit was released to reporters that have not
    asked for it yet.
    """

    credit: Credit = ZERO
    child_map: ChildMap = ()
    parcel: Parcel = (0, 0)
    handover: bool = False
    ledger: LedgerRows = ()
    reclaim: ReclaimRows = ()

    kind: ClassVar[str] = "ImPC"

    @property
    def b(self) -> int:
        return len(self.child_map)

    def describe(self) -> str:
        parts = [render_credit(self.credit), f"b={self.b}"]
        if self.child_map:
            rows = ";".join(f"{n}>{render_credit(c)}" for n, c in self.child_map)
            parts.append(f"children[{rows}]")
        parts.append(f"parcel={render_parcel(self.parcel)}")
        if self.handover:
            parts.append("handover")
        if self.ledger:
            rows = ";".join(
                f"{r}:{a}:{render_credit(i)}:{render_credit(o)}"
                for r, a, i, o in self.ledger
            )
            parts.append(f"ledger[{rows}]")
        if self.reclaim:
            rows = ";".join(f"{r}:{a}:{render_credit(c)}" for r, a, c in self.reclaim)
            parts.append(f"reclaim[{rows}]")
        return f"ImPC({','.join(parts)})"

    def carried_credit(self) -> Credit:
        if not self.ledger and not self.reclaim:
            return self.credit
        # Mirrored out-parts are claims, not credit; only in-parts ride.
        cargo = self.credit + credit_sum(i for _, _, i, _ in self.ledger)
        return cargo + credit_sum(c for _, _, c in self.reclaim)


@dataclass(frozen=True, slots=True)
class ImP(Message):
    """Passive without credit: tells the receiver its new parent is p."""

    p: NodeId = 0

    kind: ClassVar[str] = "ImP"

    def describe(self) -> str:
        return f"ImP({self.p})"


@dataclass(frozen=True, slots=True)
class AcK(Message):
    parcel: Parcel = (0, 0)

    kind: ClassVar[str] = "AcK"

    def describe(self) -> str:
        return f"AcK({render_parcel(self.parcel)})"


@dataclass(frozen=True, slots=True)
class AAcK(Message):
    parcel: Parcel = (0, 0)

    kind: ClassVar[str] = "AAcK"

    def describe(self) -> str:
        return f"AAcK({render_parcel(self.parcel)})"


@dataclass(frozen=True, slots=True)
class TM(Message):
    """Termination announcement, strong or weak."""

    mode: str = STRONG

    kind: ClassVar[str] = "TM"

    def describe(self) -> str:
        return f"TM({self.mode})"


@dataclass(frozen=True, slots=True)
class PaN(Message):
    """Affected-node report to the chief executive.

    The reporter's in-entry for the affected node rides physically (the
    reporter clears it); the out-entry is a mirror of credit stranded at
    the affected node, a claim rather than cargo.
    """

    affected: NodeId = 0
    in_credit: Credit = ZERO
    out_credit: Credit = ZERO

    kind: ClassVar[str] = "PaN"

    def describe(self) -> str:
        return (
            f"PaN({self.affected},in={render_credit(self.in_credit)},"
            f"out={render_credit(self.out_credit)})"
        )

    def carried_credit(self) -> Credit:
        return self.in_credit


@dataclass(frozen=True, slots=True)
class NaP(Message):
    """Recovery report: the affected node is back on the air."""

    recovered: NodeId = 0

    kind: ClassVar[str] = "NaP"

    def describe(self) -> str:
        return f"NaP({self.recovered})"


@dataclass(frozen=True, slots=True)
class SpecialForward(Message):
    """Handshake-reconciliation cargo to the chief executive.

    Sent by a receiver whose AAcK never arrived: the absorbed parcel
    credit is extracted from hold and shipped here.  A receiver pops the
    awaited record as it forwards, so no parcel is forwarded twice.
    """

    credit: Credit = ZERO
    origin: NodeId = 0
    parcel: Parcel = (0, 0)

    kind: ClassVar[str] = "SpecialForward"

    def describe(self) -> str:
        return (
            f"SpecialForward({render_credit(self.credit)},from={self.origin},"
            f"parcel={render_parcel(self.parcel)})"
        )

    def carried_credit(self) -> Credit:
        return self.credit


@dataclass(frozen=True, slots=True)
class SpecialReclaim(Message):
    """Request to get one's ledgered credit back after a node recovered."""

    affected: NodeId = 0

    kind: ClassVar[str] = "SpecialReclaim"

    def describe(self) -> str:
        return f"SpecialReclaim({self.affected})"

