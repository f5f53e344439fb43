"""Message value objects: wire text, carried credit, and the engine's
_KINDS row for each kind."""

import dataclasses

import pytest

from tcran import core, protocol
from tcran.core import (
    AAcK,
    AcK,
    COM,
    ImP,
    ImPC,
    Message,
    NaP,
    PaN,
    SpecialForward,
    SpecialReclaim,
    TM,
)
from tcran.credit import ZERO, credit
from tcran.engine import CLS_ACK, CLS_MSG, _KINDS


def test_acknowledgements_outrank_all_other_kinds():
    # Listed from the module, not from Message.__subclasses__(): a
    # slots=True dataclass is a second class, and the pre-slots one
    # stays in that list.
    kinds = {
        v
        for v in vars(core).values()
        if isinstance(v, type) and issubclass(v, Message) and v is not Message
    }
    assert set(_KINDS) == kinds
    for kind, (handler, cls, stream) in _KINDS.items():
        assert callable(getattr(protocol, handler)), kind
        if kind in (AcK, AAcK):
            assert (cls, stream) == (CLS_ACK, None)
        else:
            assert cls == CLS_MSG
            assert stream == ("b" if kind is COM else "c")
    assert CLS_ACK < CLS_MSG


def test_carried_credit_counts_cargo_not_claims():
    assert COM(credit(9, 10)).carried_credit() == credit(9, 10)
    assert PaN(4, credit(1, 5), credit(2, 5)).carried_credit() == credit(1, 5)
    assert SpecialForward(credit(1, 3), 2, (2, 1)).carried_credit() == credit(1, 3)
    assert ImP(3).carried_credit() == ZERO
    assert NaP(4).carried_credit() == ZERO


def test_impc_cargo_includes_riding_ledger_in_parts_only():
    m = ImPC(
        credit(1, 4),
        child_map=((5, credit(1, 8)),),
        parcel=(3, 1),
        handover=True,
        ledger=((2, 6, credit(1, 8), credit(1, 2)),),
        reclaim=((2, 6, credit(1, 16)),),
    )
    # 1/4 cargo + 1/8 physical ledger part + 1/16 reclaim row; the 1/2
    # mirror is a claim.
    assert m.carried_credit() == credit(7, 16)


def test_describe_is_deterministic_wire_text():
    m = ImPC(
        credit(1, 10),
        child_map=((6, credit(7, 20)),),
        parcel=(5, 1),
    )
    assert m.describe() == "ImPC(1/10,b=1,children[6>7/20],parcel=5.1)"
    handover = ImPC(
        credit(1, 4),
        parcel=(9, 2),
        handover=True,
        ledger=((3, 10, credit(1, 288), ZERO),),
        reclaim=((3, 10, credit(1, 8)),),
    )
    assert handover.describe() == (
        "ImPC(1/4,b=0,parcel=9.2,handover,ledger[3:10:1/288:0],reclaim[3:10:1/8])"
    )
    assert COM(credit(9, 10)).describe() == "COM(9/10)"
    assert COM(credit(1, 5), refund=True).describe() == "COM(1/5,refund)"
    assert AcK((5, 1)).describe() == "AcK(5.1)"
    assert TM("weak").describe() == "TM(weak)"
    assert PaN(3, credit(1, 5), ZERO).describe() == "PaN(3,in=1/5,out=0)"


def test_messages_are_hashable_values():
    a = COM(credit(1, 2))
    b = COM(credit(1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_every_message_class_is_immutable():
    # Messages ride the queue and the pending books, and _announce sends
    # one TM object to every node, so no field may change after a send.
    samples = {
        AcK: AcK((1, 1)),
        AAcK: AAcK((1, 1)),
        COM: COM(credit(1, 2)),
        ImPC: ImPC(credit(1, 2)),
        ImP: ImP(3),
        TM: TM("strong"),
        PaN: PaN(4, ZERO, ZERO),
        NaP: NaP(4),
        SpecialForward: SpecialForward(credit(1, 3), 2, (2, 1)),
        SpecialReclaim: SpecialReclaim(4),
    }
    classes = {
        c for c in vars(core).values()
        if isinstance(c, type) and issubclass(c, Message) and c is not Message
    }
    assert classes == set(samples)
    for msg in samples.values():
        assert dataclasses.fields(msg), msg
        for f in dataclasses.fields(msg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(msg, f.name, getattr(msg, f.name))
