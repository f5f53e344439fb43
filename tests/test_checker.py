"""The omniscient checker judged on hand-built snapshots."""

import random

import pytest

from tcran.checker import (
    assert_announcement,
    assert_bounds,
    assert_conservation,
    assert_single_ce,
    assert_state_invariant,
    global_credit_sum,
    message_bounds_report,
    outcome,
    tree_height,
    TreeHeight,
)
from tcran.core import STRONG, WEAK
from tcran.credit import ONE, ZERO, credit
from tcran.engine import RunReport
from tcran.errors import BoundsViolation, SafetyViolation
from tcran.protocol import ACTIVE, PASSIVE, NodeState

def node(nid, parent=None, state=ACTIVE, hold=ZERO, dark=False, joined=True, **kw):
    st = NodeState(id=nid, neighbors=frozenset())
    st.state = state
    st.parent = parent
    st.hold = hold
    st.dark = dark
    st.joined = joined
    for k, v in kw.items():
        setattr(st, k, v)
    return st


def chain(n):
    """1 <- 2 <- ... <- n, node 1 the executive, sharing one unit."""
    nodes = {1: node(1, parent=1, hold=credit(1, n), settled=False)}
    for i in range(2, n + 1):
        nodes[i] = node(i, parent=i - 1, hold=credit(1, n))
    return nodes


# --- tree height ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_chain_height_is_its_length(n):
    assert tree_height(chain(n)) == n


def test_passive_nodes_leave_the_tree():
    nodes = chain(4)
    nodes[4].state = PASSIVE
    nodes[4].hold = ZERO
    assert tree_height(nodes) == 3


def test_orphan_counts_flat():
    nodes = chain(3)
    nodes[3].parent = 99  # points at nobody
    assert tree_height(nodes) == 2


def test_parent_cycle_counts_flat_instead_of_hanging():
    nodes = chain(2)
    nodes[1].parent = 2  # 1 <-> 2, no executive on the loop
    nodes[2].parent = 1
    assert tree_height(nodes) == 2


def test_dark_node_stays_in_the_tree():
    nodes = chain(3)
    nodes[3].dark = True
    assert tree_height(nodes) == 3
    nodes[2].state = PASSIVE
    nodes[2].hold = ZERO
    # the dark node's chain now breaks at its passive parent
    assert tree_height(nodes) == 2


def test_height_zero_when_nothing_active():
    nodes = {1: node(1, state=PASSIVE)}
    assert tree_height(nodes) == 0


# --- incremental height --------------------------------------------------------


def follow(tree, nodes, edited):
    """Tell the tree which nodes changed; it must agree with a rebuild."""
    tree.update(edited)
    assert tree.stale_parts() == []
    return tree.height


def test_incremental_height_follows_a_cycle_and_a_role_move():
    nodes = chain(5)
    tree = TreeHeight(nodes)
    assert tree.height == 5
    nodes[2].parent = 4  # 2 -> 4 -> 3 -> 2: a loop that the executive left
    assert follow(tree, nodes, [2]) == 2
    nodes[2].parent = 1
    assert follow(tree, nodes, [2]) == 5
    # The role moves to 3 in one event; 1 and 2 hang below the new root.
    nodes[3].parent = 3
    nodes[1].parent = 3
    assert follow(tree, nodes, [1, 3]) == 3
    assert tree.depth == {1: 2, 2: 3, 3: 1, 4: 2, 5: 3}
    nodes[3].state = PASSIVE  # the new executive leaves the tree
    assert follow(tree, nodes, [3]) == 2
    nodes[3].dark = True  # dark and joined: back in the tree
    assert follow(tree, nodes, [3]) == 2
    assert tree.depth[3] == 1


def test_incremental_height_matches_the_reference_under_random_edits():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 10)
        nodes = {i: node(i, parent=rng.randint(1, i)) for i in range(1, n + 1)}
        tree = TreeHeight(nodes)
        for _ in range(15):
            edited = rng.sample(sorted(nodes), rng.randint(1, min(3, n)))
            for k in edited:
                st = nodes[k]
                edit = rng.choice(("state", "parent", "parent", "dark"))
                if edit == "state":
                    st.state = PASSIVE if st.state == ACTIVE else ACTIVE
                elif edit == "parent":
                    # Self-parents move the role; others may close a loop
                    # or point at nobody.
                    st.parent = rng.choice([None, 99, *nodes])
                else:
                    st.dark = not st.dark
                    st.joined = rng.random() < 0.8
            assert follow(tree, nodes, edited) == tree_height(nodes)


# --- conservation and state shape ---------------------------------------------


def test_conservation_counts_every_pocket():
    st = node(1, parent=1, hold=credit(1, 2))
    st.in_map[9] = credit(1, 8)
    st.stranded = credit(1, 8)
    assert global_credit_sum({1: st}, inflight=credit(1, 4)) == ONE
    held = global_credit_sum({1: st})
    assert_conservation(held, credit(1, 4), ONE, when=0.0)
    with pytest.raises(SafetyViolation, match="credit sum"):
        assert_conservation(held, ZERO, ONE, when=0.0)


def test_passive_node_holding_credit_is_flagged():
    bad = node(1, state=PASSIVE, hold=credit(1, 2))
    with pytest.raises(SafetyViolation, match="passive node"):
        assert_state_invariant([bad])


def test_active_node_holding_nothing_is_flagged():
    with pytest.raises(SafetyViolation, match="holds nothing"):
        assert_state_invariant([node(1)])


def test_settled_executive_may_sit_at_zero():
    boss = node(1, parent=1, settled=True)
    assert_state_invariant([boss])


def test_single_executive_rule():
    two = [node(1, parent=1, hold=ONE), node(2, parent=2, hold=ONE)]
    with pytest.raises(SafetyViolation, match="multiple chief executives"):
        assert_single_ce(two, started=True, window_open=False)
    none = [node(1, parent=2, hold=ONE)]
    with pytest.raises(SafetyViolation, match="no chief executive"):
        assert_single_ce(none, started=True, window_open=False)
    assert_single_ce(none, started=True, window_open=True)  # handover in flight


# --- announcement assertions -----------------------------------------------------


def strong_world():
    boss = node(1, parent=1, hold=ONE, settled=True)
    other = node(2, state=PASSIVE)
    return {1: boss, 2: other}


def test_strong_announcement_accepted_when_true():
    assert_announcement(strong_world(), ZERO, STRONG, ONE, now=5.0, last_activity=4.0)


def test_strong_with_partial_hold_rejected():
    w = strong_world()
    w[1].hold = credit(3, 4)
    w[2].stranded = credit(1, 4)
    with pytest.raises(SafetyViolation, match="strong announced with 3/4"):
        assert_announcement(w, ZERO, STRONG, ONE, now=5.0, last_activity=4.0)


def test_strong_with_credit_in_flight_rejected():
    with pytest.raises(SafetyViolation, match="in flight"):
        assert_announcement(
            strong_world(), credit(1, 9), STRONG, ONE, now=5.0, last_activity=4.0
        )


def test_announcement_before_ground_truth_rejected():
    with pytest.raises(SafetyViolation, match="before the computation"):
        assert_announcement(strong_world(), ZERO, STRONG, ONE, now=3.0, last_activity=4.0)


def test_announcement_with_live_bystander_rejected():
    w = strong_world()
    w[2] = node(2, parent=1, hold=ZERO, settled=True)  # active non-boss
    with pytest.raises(SafetyViolation, match="still active"):
        assert_announcement(w, ZERO, STRONG, ONE, now=5.0, last_activity=4.0)


def test_weak_balances_hold_plus_ledger():
    boss = node(1, parent=1, hold=credit(3, 4), settled=True)
    boss.pu_ledger[(2, 3)] = (ZERO, credit(1, 4))
    dark = node(3, dark=True, hold=credit(1, 4))
    assert_announcement({1: boss, 3: dark}, ZERO, WEAK, ONE, now=9.0, last_activity=2.0)
    boss.pu_ledger[(2, 3)] = (ZERO, credit(1, 8))
    with pytest.raises(SafetyViolation, match="books at 7/8"):
        assert_announcement({1: boss, 3: dark}, ZERO, WEAK, ONE, now=9.0, last_activity=2.0)


# --- message-count ceilings ------------------------------------------------------


PARAMS = {"N": 6, "degree": 4, "N_neighbor": 4, "N_leave": 6, "N_affected": 0}


def test_bounds_report_applies_the_ceilings():
    rep = message_bounds_report({"COM": 8, "ImPC": 8, "AcK": 8}, PARAMS)
    assert rep["COM"] == {"count": 8, "bound": 24, "ok": True}
    assert rep["ImPC"]["bound"] == 24
    assert rep["ImP"]["bound"] == 18
    assert rep["PaN"] == {"count": 0, "bound": 0, "ok": True}
    assert_bounds(rep)


def test_retry_and_broadcast_traffic_is_reported_unbounded():
    rep = message_bounds_report({"TM": 99, "retry": 17, "special": 3}, PARAMS)
    for kind in ("TM", "retry", "special"):
        assert rep[kind]["bound"] == -1 and rep[kind]["ok"]
    assert_bounds(rep)


def test_exceeded_ceiling_raises_with_the_numbers():
    rep = message_bounds_report({"PaN": 1}, PARAMS)
    assert not rep["PaN"]["ok"]
    with pytest.raises(BoundsViolation, match="PaN: 1 > 0"):
        assert_bounds(rep)


# --- one run's outcome -----------------------------------------------------------


def ended(terminated=None, by=None, at=None, horizon_hit=False, counters=()):
    """A RunReport whose fields checker.outcome reads are given."""
    return RunReport(
        terminated=terminated,
        announce_time=at,
        announcer=by,
        end_time=99.0,
        horizon_hit=horizon_hit,
        ground_truth=0.0,
        counters={},
        height_max=1,
        height_at_announce=None,
        final_sum="1",
        bounds=message_bounds_report(dict(counters), PARAMS),
        anomalies=[],
        events_processed=1,
    )


def executive(settled=True, **kw):
    """Executive 1, settled unless told otherwise, beside passive node 2."""
    return {1: node(1, parent=1, settled=settled, **kw), 2: node(2, state=PASSIVE)}


HALF, QUARTER = credit(1, 2), credit(1, 4)
BROKE = SafetyViolation("t=4.5: credit sum 11/10 != total 1")


# (nodes, report, safety error, the (class, detail) of the run), one
# row per class.
OUTCOMES = [
    (executive(hold=ONE), None, BROKE, ("safety:credit sum", str(BROKE))),
    (
        executive(hold=ONE),
        ended(STRONG, 1, 5.0, counters={"PaN": 1}),
        None,
        ("bounds", "PaN: 1 > 0"),
    ),
    (
        executive(hold=ONE),
        ended(STRONG, 1, 5.0, horizon_hit=True),
        None,
        ("strong", "horizon reached"),
    ),
    (executive(hold=ONE), ended(WEAK, 1, 63.0), None, ("weak", "node 1 at t=63")),
    (
        {2: node(2, parent=1, hold=ONE)},
        ended(),
        None,
        ("silent:no-exec", "no node holds the role"),
    ),
    (
        executive(hold=ONE, dark=True),
        ended(),
        None,
        ("silent:exec-dark", "exec 1 hold=1"),
    ),
    (
        executive(settled=False, hold=credit(1, 10)),
        ended(horizon_hit=True),
        None,
        ("silent:unsettled", "exec 1 hold=1/10; horizon reached"),
    ),
    (
        executive(hold=credit(5, 6), in_map={8: credit(1, 6)}),
        ended(),
        None,
        ("silent:in-map", "exec 1 hold=5/6 in_map={8: 1/6}"),
    ),
    (
        executive(hold=HALF, reclaimable={(2, 3): HALF}),
        ended(),
        None,
        ("silent:reclaimable", "exec 1 hold=1/2 reclaimable={(2, 3): 1/2}"),
    ),
    (
        executive(hold=HALF),
        ended(),
        None,
        ("silent:short-hold", "exec 1 hold=1/2"),
    ),
    (
        executive(hold=credit(3, 4), pu_ledger={(2, 3): (ZERO, HALF)}),
        ended(),
        None,
        ("silent:over-count", "exec 1 hold=3/4 ledger=1/2"),
    ),
    (
        executive(hold=QUARTER, pu_ledger={(2, 3): (ZERO, HALF)}),
        ended(),
        None,
        ("silent:under-count", "exec 1 hold=1/4 ledger=1/2"),
    ),
]


@pytest.mark.parametrize(
    "nodes, report, err, cell", OUTCOMES, ids=[cell[0] for *_, cell in OUTCOMES]
)
def test_outcome_classes_each_run_with_its_detail(nodes, report, err, cell):
    assert outcome(nodes, ONE, report, err) == cell


def test_a_silent_run_whose_books_allow_an_announcement_is_weak_armed():
    assert outcome(executive(hold=ONE), ONE, ended(), None) == (
        "silent:weak-armed",
        "exec 1 hold=1",
    )
    armed = executive(hold=ONE, weak_deadline=63.0)
    assert outcome(armed, ONE, ended(horizon_hit=True), None) == (
        "silent:weak-armed",
        "exec 1 hold=1 weak_deadline=63; horizon reached",
    )
