"""Transition-level tests for the per-node state machine.

Each test drives one handler against a hand-built NodeState and checks
the effects table: state deltas, outbound messages, and the local
conservation identity (credit in + holdings before == holdings after +
credit out).
"""

import pytest
from hypothesis import given, strategies as st

from tcran.core import (
    AAcK,
    AcK,
    COM,
    ImP,
    ImPC,
    NaP,
    PaN,
    STRONG,
    SessionTag,
    SpecialForward,
    SpecialReclaim,
    TM,
    WEAK,
)
from tcran.credit import ONE, ZERO, credit, credit_sum
from tcran.errors import (
    AlreadyActive,
    InsufficientCredit,
    NoActivePeer,
    NotChiefExecutive,
)
from tcran import protocol as P
from tcran.protocol import ACTIVE, PASSIVE, Ctx, NodeState, Peer

TAG = SessionTag(1, 1)
OLD = SessionTag(0, 1)
NEW = SessionTag(2, 1)


def mkctx(nodes, now=0.0, total=ONE):
    def view(k):
        n = nodes.get(k)
        if n is None:
            return Peer(active=False, parent=None, dark=False)
        return Peer(active=n.state == ACTIVE, parent=n.parent, dark=n.dark)

    def active_peers(me):
        return sorted(
            k
            for k, n in nodes.items()
            if n.state == ACTIVE and not n.dark and k != me
        )

    return Ctx(
        now=now,
        total_credit=total,
        t_e=5.0,
        weak_wait=50.0,
        view=view,
        active_peers=active_peers,
        choose=lambda xs: xs[0],
    )


def active(nid, parent, hold, **kw):
    return NodeState(
        id=nid, state=ACTIVE, parent=parent, hold=hold, tag=TAG, **kw
    )


def carried_out(out):
    return credit_sum(s.msg.carried_credit() for s in out.sends)


def assert_conserved(before, node, out, carried_in=ZERO):
    after = node.local_credit() + carried_out(out)
    assert before + carried_in == after


# --- start / distribute -----------------------------------------------------


def test_external_start_creates_chief_executive():
    n = NodeState(id=1, neighbors=frozenset({2}))
    ctx = mkctx({1: n})
    out = P.on_external_start(n, TAG, ONE, ctx)
    assert n.state == ACTIVE and n.is_ce()
    assert n.hold == ONE and n.tag == TAG
    assert out.label == "A1" and not out.sends


def test_external_start_twice_is_an_error():
    n = NodeState(id=1)
    ctx = mkctx({1: n})
    P.on_external_start(n, TAG, ONE, ctx)
    with pytest.raises(AlreadyActive):
        P.on_external_start(n, TAG, ONE, ctx)


def test_distribute_sends_shares_and_records_claims():
    n = active(1, 1, ONE)
    ctx = mkctx({1: n})
    before = n.local_credit()
    out = P.distribute(n, [(2, credit(1, 4)), (3, credit(1, 4))], ctx)
    assert n.hold == credit(1, 2)
    assert n.out_map == {2: credit(1, 4), 3: credit(1, 4)}
    assert [s.dst for s in out.sends] == [2, 3]
    assert all(isinstance(s.msg, COM) for s in out.sends)
    assert_conserved(before, n, out)


def test_distribute_must_retain_something():
    n = active(1, 1, credit(1, 2))
    ctx = mkctx({1: n})
    with pytest.raises(InsufficientCredit):
        P.distribute(n, [(2, credit(1, 4)), (3, credit(1, 4))], ctx)


# --- A3 ----------------------------------------------------------------------


def test_com_activates_a_passive_node():
    n = NodeState(id=2)
    ctx = mkctx({2: n})
    m = COM(TAG, credit(3, 10))
    before = n.local_credit()
    out = P.on_com(n, 1, m, ctx)
    assert n.state == ACTIVE and n.parent == 1 and n.tag == TAG
    assert n.hold == credit(3, 10)
    assert_conserved(before, n, out, carried_in=m.carried_credit())


def test_com_to_active_node_records_the_creditor():
    n = active(3, 2, credit(1, 10))
    ctx = mkctx({3: n})
    m = COM(TAG, credit(1, 20))
    out = P.on_com(n, 5, m, ctx)
    assert n.hold == credit(1, 10)  # hold untouched
    assert n.in_map == {5: credit(1, 20)}
    assert_conserved(credit(1, 10), n, out, carried_in=m.carried_credit())


def test_stale_com_is_discarded_and_cargo_parked():
    n = active(3, 2, credit(1, 10))
    ctx = mkctx({3: n})
    out = P.on_com(n, 5, COM(OLD, credit(1, 20)), ctx)
    assert out.label == "stale-discard"
    assert n.stranded == credit(1, 20)
    assert n.in_map == {}


# --- A4 ----------------------------------------------------------------------


def test_idle_surrenders_to_parent_and_repays_creditors():
    parent = active(2, 1, credit(1, 2))
    creditor = active(5, 4, credit(1, 10))
    n = active(3, 2, credit(2, 10), in_map={5: credit(1, 20)})
    ctx = mkctx({2: parent, 3: n, 5: creditor})
    before = n.local_credit()
    out = P.on_idle(n, ctx)
    assert out.label == "A4"
    assert n.state == PASSIVE and n.parent is None and n.hold == ZERO
    impcs = [s for s in out.sends if isinstance(s.msg, ImPC)]
    assert {s.dst for s in impcs} == {2, 5}
    main = next(s.msg for s in impcs if s.dst == 2)
    assert main.credit == credit(2, 10) and main.b == 0
    repay = next(s.msg for s in impcs if s.dst == 5)
    assert repay.credit == credit(1, 20) and repay.b == 0
    assert len(n.pending) == 2  # both parcels escrow-tracked until AcK
    assert len(out.timers) == 2
    assert_conserved(before, n, out)


def test_idle_folds_creditor_entry_when_creditor_is_the_target():
    # Parent passive, creditor 5 active: target is 5 and its in-entry
    # rides the main parcel instead of a separate repayment.
    creditor = active(5, 4, credit(1, 10))
    n = active(3, None, credit(2, 10), in_map={5: credit(1, 20)})
    n.parent = 2
    ctx = mkctx({3: n, 5: creditor})
    out = P.on_idle(n, ctx)
    impcs = [s for s in out.sends if isinstance(s.msg, ImPC)]
    assert len(impcs) == 1 and impcs[0].dst == 5
    assert impcs[0].msg.credit == credit(2, 10) + credit(1, 20)
    assert n.in_map == {}


def test_idle_folds_passive_creditor_entries_into_the_parcel():
    # The passive creditor may itself be long gone; waiting for its ImP
    # can deadlock, so the entry rides the main parcel instead.
    n = active(3, 2, credit(2, 10), in_map={5: credit(1, 20)})
    parent = active(2, 1, credit(1, 2))
    ctx = mkctx({2: parent, 3: n, 5: NodeState(id=5)})
    out = P.on_idle(n, ctx)
    impc = next(s for s in out.sends if isinstance(s.msg, ImPC))
    assert impc.dst == 2
    assert impc.msg.credit == credit(2, 10) + credit(1, 20)
    assert n.in_map == {}
    assert n.state == PASSIVE


def test_idle_with_no_active_peer_addresses_the_role():
    n = active(3, 2, credit(1, 10))
    ctx = mkctx({3: n})  # nobody else alive anywhere
    out = P.on_idle(n, ctx)
    impc = next(s for s in out.sends if isinstance(s.msg, ImPC))
    assert impc.dst is None  # resolved to the executive at delivery


def test_chief_executive_hands_over_to_active_child():
    kid = active(2, 1, credit(3, 10))
    ce = active(1, 1, credit(7, 10), out_map={2: credit(3, 10)})
    ce.pu_ledger[(4, 9)] = (credit(1, 100), credit(1, 50))
    ctx = mkctx({1: ce, 2: kid})
    before = ce.local_credit()
    out = P.on_idle(ce, ctx)
    impc = next(s.msg for s in out.sends if isinstance(s.msg, ImPC))
    assert impc.handover and impc.b == 0
    assert impc.credit == credit(7, 10)
    assert impc.ledger == ((4, 9, credit(1, 100), credit(1, 50)),)
    assert ce.state == PASSIVE and not ce.is_ce()
    assert ce.pu_ledger == {}
    assert_conserved(before, ce, out)


def test_chief_executive_settles_when_no_child_is_active():
    ce = active(1, 1, ONE)
    ctx = mkctx({1: ce})
    out = P.on_idle(ce, ctx)
    assert ce.settled and ce.state == ACTIVE
    assert out.announce == STRONG
    assert ce.terminated == STRONG


# --- A5 ----------------------------------------------------------------------


def test_impc_empty_parcel_cancels_a_held_claim():
    # A zero parcel is a claim cancel, not a surrender: no AcK, no
    # handshake, the sender's out-entry simply dies.
    n = active(3, 2, credit(2, 10), out_map={9: credit(1, 10)})
    ctx = mkctx({3: n})
    m = ImPC(TAG, ZERO, 0, (), (9, 1))
    out = P.on_impc(n, 9, m, ctx)
    assert n.hold == credit(2, 10)
    assert n.out_map == {}
    assert out.label == "claim-cancel"
    assert not out.sends and not out.timers


def test_impc_cancel_ahead_of_its_claim_leaves_a_marker():
    n = active(3, 2, credit(2, 10))
    ctx = mkctx({3: n})
    out = P.on_impc(n, 9, ImPC(TAG, ZERO, 0, (), (9, 1)), ctx)
    assert out.label == "claim-cancel"
    assert n.prepaid == {9: 1}
    # The late claim arrives inside a child_map and is void on arrival.
    m = ImPC(TAG, credit(1, 10), 1, ((9, credit(1, 8)),), (4, 1))
    out = P.on_impc(n, 4, m, ctx)
    assert n.prepaid == {}
    assert 9 not in n.out_map
    assert n.hold == credit(2, 10) + credit(1, 10)


def test_impc_structured_from_stranger_is_absorbed():
    # After a surrender the parent field is gone, so a crossing parcel
    # arrives with no relationship evidence; it must still be honored.
    n = active(3, 2, credit(2, 10))
    ctx = mkctx({3: n})
    m = ImPC(TAG, credit(1, 10), 1, ((7, credit(1, 10)),), (9, 1))
    out = P.on_impc(n, 9, m, ctx)
    assert n.hold == credit(3, 10)
    assert n.out_map == {7: credit(1, 10)}
    assert (9, 1) in n.awaiting
    assert any(isinstance(s.msg, AcK) for s in out.sends)


def test_impc_absorb_folds_creditor_entry():
    n = active(4, 3, credit(1, 4), in_map={6: credit(1, 20)})
    ctx = mkctx({4: n})
    m = ImPC(TAG, credit(3, 10), 0, (), (6, 2))
    before = n.local_credit()
    out = P.on_impc(n, 6, m, ctx)
    assert n.hold == credit(1, 4) + credit(3, 10) + credit(1, 20)
    assert n.in_map == {}
    assert (6, 2) in n.awaiting
    assert any(isinstance(s.msg, AcK) for s in out.sends)
    assert_conserved(before, n, out, carried_in=m.carried_credit())


def test_impc_adopts_children_and_drops_self_claims():
    n = active(2, 1, credit(1, 10), out_map={5: credit(1, 8)})
    ctx = mkctx({2: n})
    m = ImPC(
        TAG,
        credit(1, 10),
        2,
        ((7, credit(1, 8)), (2, credit(1, 16))),
        (5, 1),
    )
    P.on_impc(n, 5, m, ctx)
    # sender's claim settled, child claim adopted, claim on myself dropped
    assert n.out_map == {7: credit(1, 8)}


def test_impc_to_passive_node_bounces_onward():
    n = NodeState(id=6, tag=TAG)
    target = active(4, 3, credit(1, 2))
    ctx = mkctx({4: target, 6: n})
    m = ImPC(TAG, credit(1, 10), 0, (), (5, 3))
    before = n.local_credit()
    out = P.on_impc(n, 5, m, ctx)
    assert n.state == PASSIVE and n.hold == ZERO  # activated, then bounced
    assert "bounce" in out.notes
    acks = [s for s in out.sends if isinstance(s.msg, AcK)]
    assert len(acks) == 1 and acks[0].dst == 5
    onward = [s for s in out.sends if isinstance(s.msg, ImPC)]
    assert len(onward) == 1 and onward[0].dst == 4
    assert onward[0].msg.credit == credit(1, 10)
    assert not n.awaiting  # bouncing absorber never waits for AAcK
    assert_conserved(before, n, out, carried_in=m.carried_credit())


def test_handover_impc_transfers_the_role():
    n = active(2, 1, credit(3, 10))
    ctx = mkctx({2: n})
    rows = ((4, 9, credit(1, 100), credit(1, 50)),)
    m = ImPC(TAG, credit(7, 10), 0, (), (1, 7), handover=True, ledger=rows)
    before = n.local_credit()
    out = P.on_impc(n, 1, m, ctx)
    assert n.is_ce()
    assert n.pu_ledger == {(4, 9): (credit(1, 100), credit(1, 50))}
    assert n.hold == ONE
    assert not n.awaiting  # role transfer needs no receiver-side wait
    assert_conserved(before, n, out, carried_in=m.carried_credit())


def test_handover_to_passive_node_settles_immediately():
    n = NodeState(id=2, tag=TAG)
    ctx = mkctx({2: n})
    m = ImPC(TAG, ONE, 0, (), (1, 7), handover=True)
    out = P.on_impc(n, 1, m, ctx)
    assert n.is_ce() and n.settled
    assert out.announce == STRONG and n.terminated == STRONG


def test_stale_impc_strands_its_cargo():
    n = active(3, 2, credit(2, 10))
    ctx = mkctx({3: n})
    m = ImPC(OLD, credit(1, 10), 0, (), (9, 1))
    out = P.on_impc(n, 9, m, ctx)
    assert out.label == "stale-discard"
    assert n.stranded == credit(1, 10)
    assert n.hold == credit(2, 10)


# --- A6 ----------------------------------------------------------------------


def test_imp_reparents_a_child():
    n = active(6, 5, credit(1, 8))
    ctx = mkctx({6: n})
    out = P.on_imp(n, 5, ImP(TAG, 4), ctx)
    assert n.parent == 4
    assert not out.sends


def test_imp_from_borrower_returns_the_entry_to_hold():
    # hold 1/10 plus a creditor entry of 1/10: the ImP says the creditor
    # surrendered elsewhere, so the entry folds into hold -> 2/10.
    n = active(3, 2, credit(1, 10), in_map={5: credit(1, 10)})
    ctx = mkctx({3: n})
    before = n.local_credit()
    out = P.on_imp(n, 5, ImP(TAG, 4), ctx)
    assert n.hold == credit(2, 10)
    assert n.in_map == {}
    assert_conserved(before, n, out)


def test_imp_naming_me_as_my_own_parent_is_discarded():
    n = active(6, 5, credit(1, 8))
    ctx = mkctx({6: n})
    out = P.on_imp(n, 5, ImP(TAG, 6), ctx)
    assert out.label == "imp-self-parent-discard"
    assert n.parent == 5


# --- handshake ---------------------------------------------------------------


def test_ack_finalizes_and_answers_aack():
    n = NodeState(id=3, tag=TAG)
    n.pending[(3, 1)] = P.PendingSurrender(ImPC(TAG, credit(1, 10), parcel=(3, 1)))
    ctx = mkctx({3: n})
    out = P.on_ack(n, 2, AcK(TAG, (3, 1)), ctx)
    assert not n.pending
    assert len(out.sends) == 1 and isinstance(out.sends[0].msg, AAcK)


def test_timeout_without_returned_cargo_finalizes_silently():
    n = NodeState(id=3, tag=TAG)
    n.pending[(3, 1)] = P.PendingSurrender(ImPC(TAG, credit(1, 10), parcel=(3, 1)))
    ctx = mkctx({3: n})
    out = P.on_ack_timeout(n, (3, 1), ctx)
    assert not n.pending and not out.sends
    assert "finalized-sans-ack" in out.notes


def test_timeout_with_returned_cargo_retries():
    parent = active(2, 1, credit(1, 2))
    n = NodeState(id=3, tag=TAG)
    rec = P.PendingSurrender(ImPC(TAG, credit(1, 10), parcel=(3, 1)), returned=True)
    n.pending[(3, 1)] = rec
    ctx = mkctx({2: parent, 3: n})
    before = n.local_credit()
    out = P.on_ack_timeout(n, (3, 1), ctx)
    resent = [s for s in out.sends if isinstance(s.msg, ImPC)]
    assert len(resent) == 1
    assert resent[0].bucket == "retry"
    assert resent[0].dst == 2  # fresh guard cascade picked a live target
    assert n.state == PASSIVE
    assert_conserved(before, n, out)


def test_returned_handover_restores_the_role_and_retries():
    ce_books = ((4, 9, ZERO, credit(99, 100)),)
    n = NodeState(id=1, tag=TAG)
    n.pending[(1, 5)] = P.PendingSurrender(
        ImPC(TAG, credit(1, 100), parcel=(1, 5), handover=True, ledger=ce_books),
        returned=True,
    )
    ctx = mkctx({1: n})
    out = P.on_ack_timeout(n, (1, 5), ctx)
    # no live child anymore: resume the role, settle, weak-arm
    assert n.is_ce() and n.settled
    assert n.pu_ledger == {(4, 9): (ZERO, credit(99, 100))}
    assert any(t.kind == "weak-deadline" for t in out.timers)


def test_aack_timeout_ships_credit_to_the_executive():
    n = active(4, 3, credit(1, 2))
    n.awaiting[(6, 2)] = P.AwaitedParcel(6, credit(1, 8))
    ctx = mkctx({4: n})
    before = n.local_credit()
    out = P.on_aack_timeout(n, (6, 2), ctx)
    assert n.hold == credit(1, 2) - credit(1, 8)
    fwd = [s for s in out.sends if isinstance(s.msg, SpecialForward)]
    assert len(fwd) == 1 and fwd[0].dst is None
    assert fwd[0].msg.credit == credit(1, 8)
    assert_conserved(before, n, out)


def test_aack_clears_the_wait():
    n = active(4, 3, credit(1, 2))
    n.awaiting[(6, 2)] = P.AwaitedParcel(6, credit(1, 8))
    ctx = mkctx({4: n})
    P.on_aack(n, 6, AAcK(TAG, (6, 2)), ctx)
    assert not n.awaiting


# --- B1..B4 ------------------------------------------------------------------


def test_neighbor_affected_ships_both_parts():
    n = active(
        2,
        1,
        credit(3, 10),
        in_map={3: credit(1, 50)},
        out_map={3: credit(3, 10)},
    )
    ctx = mkctx({2: n})
    before = n.local_credit()
    out = P.on_neighbor_affected(n, 3, ctx)
    pan = next(s for s in out.sends if isinstance(s.msg, PaN))
    assert pan.dst is None
    assert pan.msg.in_credit == credit(1, 50)
    assert pan.msg.out_credit == credit(3, 10)
    assert n.in_map == {} and n.out_map == {}
    assert n.reported_in == {3: credit(1, 50)}
    assert_conserved(before, n, out)


def test_pan_is_ledgered_once():
    dark = NodeState(id=3, dark=True)
    ce = active(1, 1, credit(4, 10))
    ctx = mkctx({1: ce, 3: dark})
    m = PaN(TAG, 3, ZERO, credit(3, 10))
    P.on_pan(ce, 2, m, ctx)
    out = P.on_pan(ce, 2, m, ctx)
    assert ce.pu_ledger == {(2, 3): (ZERO, credit(3, 10))}
    assert "duplicate-pan" in out.notes


def test_pan_requires_the_role():
    n = active(4, 3, credit(1, 10))
    dark = NodeState(id=3, dark=True)
    ctx = mkctx({3: dark, 4: n})
    with pytest.raises(NotChiefExecutive):
        P.on_pan(n, 2, PaN(TAG, 3, ZERO, ZERO), ctx)


def test_recovery_notifies_role_and_active_neighbors():
    n = NodeState(id=3, tag=TAG, neighbors=frozenset({2, 4, 5}))
    nb = active(4, 3, credit(1, 10))
    ctx = mkctx({3: n, 4: nb, 5: NodeState(id=5)})
    out = P.on_recovery(n, ctx)
    naps = [s for s in out.sends if isinstance(s.msg, NaP)]
    assert [s.dst for s in naps] == [None, 4]


def test_recovery_bounces_stranded_cargo():
    target = active(4, 3, credit(1, 2))
    n = NodeState(id=3, tag=TAG, stranded=credit(1, 10))
    ctx = mkctx({3: n, 4: target})
    before = n.local_credit()
    out = P.on_recovery(n, ctx)
    assert n.stranded == ZERO and n.hold == ZERO
    onward = [s for s in out.sends if isinstance(s.msg, ImPC)]
    assert len(onward) == 1 and onward[0].msg.credit == credit(1, 10)
    assert_conserved(before, n, out)


def test_nap_releases_ledger_to_active_reporter_as_reclaimable():
    reporter = active(2, 1, credit(1, 10))
    ce = active(1, 1, credit(6, 10))
    ce.pu_ledger[(2, 3)] = (credit(1, 20), credit(3, 10))
    ctx = mkctx({1: ce, 2: reporter})
    before = ce.local_credit()
    out = P.on_nap(ce, 3, NaP(TAG, 3), ctx)
    assert ce.pu_ledger == {}
    assert ce.reclaimable == {(2, 3): credit(1, 20)}
    assert ce.hold == credit(6, 10)
    assert_conserved(before, ce, out)


def test_nap_absorbs_parts_of_passive_reporters():
    ce = active(1, 1, credit(6, 10))
    ce.pu_ledger[(2, 3)] = (credit(1, 20), credit(3, 10))
    ctx = mkctx({1: ce, 2: NodeState(id=2)})
    P.on_nap(ce, 3, NaP(TAG, 3), ctx)
    assert ce.reclaimable == {}
    assert ce.hold == credit(6, 10) + credit(1, 20)


def test_nap_at_neighbor_triggers_reclaim_request():
    n = active(2, 1, credit(3, 10), reported_in={3: credit(1, 50)})
    ctx = mkctx({2: n})
    out = P.on_nap(n, 3, NaP(TAG, 3), ctx)
    claims = [s for s in out.sends if isinstance(s.msg, SpecialReclaim)]
    assert len(claims) == 1 and claims[0].dst is None
    assert claims[0].msg.affected == 3
    assert n.reported_in == {}


def test_reclaim_is_refunded_with_a_flagged_com():
    ce = active(1, 1, credit(6, 10))
    ce.reclaimable[(2, 3)] = credit(1, 20)
    ctx = mkctx({1: ce})
    before = ce.local_credit()
    out = P.on_special(ce, 2, SpecialReclaim(TAG, 3), ctx)
    coms = [s for s in out.sends if isinstance(s.msg, COM)]
    assert len(coms) == 1 and coms[0].dst == 2
    assert coms[0].msg.refund and coms[0].msg.credit == credit(1, 20)
    assert coms[0].bucket == "special"
    assert ce.reclaimable == {}
    assert_conserved(before, ce, out)


# --- special forward reconciliation ------------------------------------------


def test_duplicate_forward_is_netted_out():
    ce = active(1, 1, credit(1, 2))
    ctx = mkctx({1: ce})
    m = SpecialForward(TAG, credit(1, 8), 4, (6, 2))
    P.on_special(ce, 4, m, ctx)
    assert ce.hold == credit(1, 2) + credit(1, 8)
    out = P.on_special(ce, 4, m, ctx)
    assert ce.hold == credit(1, 2)  # second copy subtracted back out
    assert "duplicate-netted" in out.notes


# --- announcements -----------------------------------------------------------


def test_strong_needs_every_credit_in_hand():
    ce = active(1, 1, credit(9, 10))
    ce.settled = True
    ctx = mkctx({1: ce})
    out = P.try_announce(ce, ctx)
    assert out.announce is None and ce.terminated is None
    ce.hold = ONE
    out = P.try_announce(ce, ctx)
    assert out.announce == STRONG and out.label == "C2"


def test_weak_arms_then_announces_at_the_deadline():
    ce = active(1, 1, credit(4, 10))
    ce.settled = True
    ce.pu_ledger[(2, 3)] = (ZERO, credit(3, 10))
    ce.pu_ledger[(2, 4)] = (ZERO, credit(3, 10))
    ctx = mkctx({1: ce}, now=10.0)
    out = P.try_announce(ce, ctx)
    assert out.announce is None
    assert ce.weak_deadline == 60.0
    assert any(t.kind == "weak-deadline" for t in out.timers)
    out = P.on_weak_deadline(ce, mkctx({1: ce}, now=60.0))
    assert out.announce == WEAK and out.label == "C1"
    assert ce.terminated == WEAK


def test_weak_disarms_if_the_books_moved():
    ce = active(1, 1, credit(4, 10))
    ce.settled = True
    ce.pu_ledger[(2, 3)] = (ZERO, credit(3, 10))
    ctx = mkctx({1: ce}, now=10.0)
    P.try_announce(ce, ctx)
    ce.hold = credit(5, 10)  # balance broken before the deadline
    out = P.on_weak_deadline(ce, mkctx({1: ce}, now=60.0))
    assert out.announce is None and ce.weak_deadline is None


def test_outstanding_reclaims_block_any_announcement():
    ce = active(1, 1, ONE)
    ce.settled = True
    ce.reclaimable[(2, 3)] = credit(1, 20)
    ce.hold = ONE - credit(1, 20)
    ctx = mkctx({1: ce})
    assert P.try_announce(ce, ctx).announce is None


def test_tm_marks_termination():
    n = NodeState(id=4, tag=TAG)
    ctx = mkctx({4: n})
    P.on_tm(n, 1, TM(TAG, WEAK), ctx)
    assert n.terminated == WEAK


# --- deliberate bugs (checker bait) -------------------------------------------


def test_mutation_a5_keeps_the_absorbed_entry():
    n = active(4, 3, credit(1, 4), in_map={6: credit(1, 20)})
    ctx = mkctx({4: n})
    ctx.mutations = frozenset({"a5-keep-inmap"})
    before = n.local_credit()
    m = ImPC(TAG, credit(3, 10), 0, (), (6, 2))
    out = P.on_impc(n, 6, m, ctx)
    # entry kept AND folded into hold: credit duplicated
    assert n.in_map == {6: credit(1, 20)}
    after = n.local_credit() + carried_out(out)
    assert after == before + m.carried_credit() + credit(1, 20)


def test_mutation_c2_announces_without_the_credit():
    ce = active(1, 1, credit(1, 2))
    ce.settled = True
    ctx = mkctx({1: ce})
    assert P.try_announce(ce, ctx).announce is None
    ctx.mutations = frozenset({"c2-skip-hold-check"})
    out = P.try_announce(ce, ctx)
    assert out.announce == STRONG  # premature: safety checker must flag


def test_choose_new_ce_requires_a_candidate():
    with pytest.raises(NoActivePeer):
        P.choose_new_ce([], lambda xs: xs[0])
    assert P.choose_new_ce([4, 7], lambda xs: xs[-1]) == 7


# --- conservation property -----------------------------------------------------


@given(
    hold=st.integers(1, 40),
    entry=st.integers(0, 40),
    cargo=st.integers(0, 40),
)
def test_absorb_conserves_credit(hold, entry, cargo):
    n = active(4, 3, credit(hold, 40))
    if entry:
        n.in_map[6] = credit(entry, 40)
    ctx = mkctx({4: n})
    m = ImPC(TAG, credit(cargo, 40) if cargo else ZERO, 0, (), (6, 2))
    before = n.local_credit()
    out = P.on_impc(n, 6, m, ctx)
    assert before + m.carried_credit() == n.local_credit() + carried_out(out)
    assert 6 not in n.in_map


@given(
    hold=st.integers(1, 30),
    in5=st.integers(0, 30),
    in7=st.integers(0, 30),
    parent_alive=st.booleans(),
)
def test_surrender_conserves_credit(hold, in5, in7, parent_alive):
    nodes = {}
    n = active(3, 2, credit(hold, 30))
    if in5:
        n.in_map[5] = credit(in5, 30)
        nodes[5] = active(5, 4, credit(1, 30))
    if in7:
        n.in_map[7] = credit(in7, 30)  # 7 stays passive: entry folds onward
    if parent_alive:
        nodes[2] = active(2, 1, credit(1, 30))
    nodes[3] = n
    ctx = mkctx(nodes)
    before = n.local_credit()
    out = P.on_idle(n, ctx)
    assert before == n.local_credit() + carried_out(out)
    assert n.state == PASSIVE and n.hold == ZERO
    assert n.in_map == {}
