"""Fuzz findings, and paths fuzzing does not reach, pinned as scenarios.

Each fuzz_<seed>.scn under regressions/ is a scenario that fuzzing
found; the other files are built by hand, or derived from a fuzz seed
with other timing parameters and shrunk, for a protocol path that
fuzzing never takes.  Every header names the seed to run at.  The tests
assert the behaviour the protocol owes.  A finding not yet mended is a
strict xfail, so its fix shows up as a change of this file.
"""

import re
from pathlib import Path

import pytest

from tcran.engine import Engine, run_scenario
from tcran.errors import SafetyViolation
from tcran.protocol import ACTIVE, blocker
from tcran.scenario import load_scenario

REGRESSIONS = Path(__file__).resolve().parent / "regressions"


def run_seed(text: str) -> int:
    """The run seed a regression scenario's header names."""
    header = " ".join(
        line.lstrip("#").strip() for line in text.splitlines() if line.startswith("#")
    )
    m = re.search(r"Run with --seed (\d+)", header)
    if m is None:
        raise ValueError("regression scenario names no run seed")
    return int(m.group(1))


def _checked(name: str) -> Engine:
    """Run a scenario at its seed, recomputing every check after each step."""
    text = (REGRESSIONS / f"{name}.scn").read_text()
    eng = Engine(load_scenario(text), run_seed(text))
    while eng.step():
        eng.full_check()
    return eng


def _run(seed: int):
    scn = load_scenario((REGRESSIONS / f"fuzz_{seed}.scn").read_text())
    return scn, run_scenario(scn, seed, collect_trace=False).report


@pytest.mark.parametrize(
    "seed",
    [
        1006,
        2434,
        5089,
        # An ImPC overtakes the COM it settles and strands it in in_map.
        pytest.param(
            8773,
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="not yet mended"
            ),
        ),
    ],
)
def test_failure_free_fuzz_finding_announces_strong(seed):
    scn, report = _run(seed)
    assert not scn.events
    assert report.terminated == "strong"


def test_zero_mirror_ledger_row_survives_a_handover():
    _, report = _run(4656)
    assert report.terminated == "strong"


def test_never_joined_node_releases_its_stranded_credit():
    _, report = _run(2075)
    assert report.terminated == "strong"


@pytest.mark.parametrize(
    "name, filed, refund",
    [
        ("reclaim_refund", [(1, 2, 3, "1/8")],
         "9|2|A3|COM(1/8,refund) from 1|hold=1/4,in=1/8"),
        # The row moves to the new executive with the role.
        ("reclaim_handover", [(1, 2, 3, "1/8"), (2, 2, 3, "1/8")],
         "8.5|2|A3|COM(1/8,refund) from 2|hold=3/4,in=1/8"),
    ],
    ids=["reclaim_refund", "reclaim_handover"],
)
def test_executive_refunds_a_reclaim_to_a_reporter_still_active(name, filed, refund):
    # B4 files a released ledger row as reclaimable only when its
    # reporter is still active; the reporter then asks for it back.
    scn = load_scenario((REGRESSIONS / f"{name}.scn").read_text())
    eng = Engine(scn, 1)
    rows = []
    while eng.step():
        eng.full_check()
        for boss in eng.nodes.values():
            for (reporter, affected), amount in boss.reclaimable.items():
                row = (boss.id, reporter, affected, str(amount))
                if row not in rows:
                    assert eng.nodes[reporter].state == ACTIVE
                    rows.append(row)
    assert rows == filed
    assert refund in eng.trace
    assert eng.announce[0] == "strong"


def test_an_open_reclaim_row_holds_a_settled_executive_back():
    # The executive settles with no live child, then files a released
    # ledger row as reclaimable while its reporter still computes.
    scn = load_scenario((REGRESSIONS / "settled_reclaim.scn").read_text())
    eng = Engine(scn, 1)
    open_at = set()
    while eng.step():
        eng.full_check()
        ce = eng.nodes[1]
        if ce.reclaimable:
            assert ce.settled and eng.nodes[2].state == ACTIVE
            assert blocker(ce, scn.credit_total) == "reclaimable"
            open_at.add(eng.now)
    assert open_at == {8.0, 8.5}
    assert "9|1|special|SpecialReclaim(4) from 2 weak-armed@59|hold=3/4" in eng.trace
    assert eng.announce == ("strong", 33.0, 1)


@pytest.mark.parametrize(
    "name, mode, reached",
    [
        ("late_ack", "strong", [
            "32.6718137|4|stale-ack|AcK(4.1) from 2|hold=0",
            "50.48046631|3|post-term-discard|ImP(2) from 1|hold=0",
        ]),
        ("late_cargo", "weak", [
            "14.14593633|7|post-term-discard|COM(1/4) from 12 stranded=1/4"
            "|hold=1/2,str=1/4",
            "30.75302811|7|post-term-discard|ImPC(1/4,b=0,parcel=12.1) from 12"
            " stranded=1/4|hold=1/2,str=1/2",
        ]),
        ("late_forward", "weak", [
            "34|3|post-term-discard|SpecialForward(1/48,from=8,parcel=4.1) from 8"
            " stranded=1/48|hold=23/24,str=1/48",
        ]),
        ("nothing_reclaimable", "strong", [
            "18|6|special|SpecialReclaim(7) from 6 nothing-reclaimable|hold=15/16",
        ]),
    ],
    ids=["late_ack", "late_cargo", "late_forward", "nothing_reclaimable"],
)
def test_late_and_stale_messages_take_their_branch(name, mode, reached):
    eng = _checked(name)
    assert eng.announce[0] == mode
    for line in reached:
        assert line in eng.trace


def test_a_message_at_the_weak_deadline_leaves_the_announcement_to_the_timer():
    eng = _checked("weak_deadline_tie")
    assert eng.announce == ("weak", 18.0, 1)
    assert [line for line in eng.trace if line.startswith("18|1|")] == [
        "18|1|B4|NaP(3) from 3|hold=3/4",
        "18|1|B4|NaP(3) from 3|hold=3/4",
        "18|1|C1|weak-deadline|hold=3/4",
        "18|1|announce|weak|hold=3/4",
    ]


def test_a_recover_event_leaves_a_crashed_node_off_the_air():
    eng = _checked("crash_then_recover")
    assert eng.nodes[2].dark
    assert not any("|recovered|" in line for line in eng.trace)
    assert eng.anomalies == ["t=10 recover on crashed node 2"]
    assert eng.announce == ("weak", 70.0, 1)


@pytest.mark.xfail(strict=True, raises=SafetyViolation, reason="not yet mended")
@pytest.mark.parametrize(
    "name, violation",
    [
        # The weak ledger counts a dark node's mirror as credit it holds.
        ("fuzz_2433", "weak announced while node 1 is still active"),
        # An ack-timeout finalizes a handover parcel still on the air.
        ("fuzz_146", "no chief executive and no handover in flight"),
        # At a fixed delay the executive's own claim on a dark node
        # balances its books.
        ("fuzz_67", "weak announced while node 11 is still active"),
    ],
    ids=["fuzz_2433", "fuzz_146", "fuzz_67"],
)
def test_parameter_search_finding_is_safe(name, violation):
    try:
        _checked(name)
    except SafetyViolation as e:
        assert violation in str(e)  # any other violation fails outright
        raise


@pytest.mark.parametrize(
    "name",
    [
        # A recover event clears the failure; the primary user stays.
        "dark_recover_occupied",
        # A primary user leaves; the failure lasts until 15.
        "dark_pu_revives_failed",
        # A recover event leaves the crash in place.
        "crash_then_recover",
    ],
)
def test_a_node_is_dark_exactly_while_a_cause_holds(name):
    # The causes: no free channel left in its LCS, a failure not yet
    # recovered, a crash.  Failures and crashes are read from the
    # scenario's events up to the clock, so these scenarios keep their
    # world events apart in time.
    text = (REGRESSIONS / f"{name}.scn").read_text()
    eng = Engine(load_scenario(text), run_seed(text))
    while eng.step():
        failed, crashed = set(), set()
        for ev in eng.scn.events:
            if ev.at > eng.now:
                break
            if ev.kind == "fail":
                failed.add(ev.arg)
            elif ev.kind == "recover":
                failed.discard(ev.arg)
            elif ev.kind == "crash":
                crashed.add(ev.arg)
        for k, st in eng.nodes.items():
            cause = not eng.world.lcs[k] or k in failed or k in crashed
            assert st.dark == cause, f"t={eng.now:g}: node {k}"
