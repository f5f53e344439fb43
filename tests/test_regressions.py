"""Fuzz findings, and paths fuzzing does not reach, pinned as scenarios.

Each fuzz_<seed>.scn under regressions/ is a scenario that fuzzing
found, to be run at the seed its header names.  The other files are
built by hand for a protocol path that fuzzing never takes.  The tests
assert the behaviour the protocol owes (strong termination).  A finding
not yet mended is a strict xfail, so its fix shows up as a change of
this file.
"""

from pathlib import Path

import pytest

from tcran.engine import Engine, run_scenario
from tcran.protocol import ACTIVE
from tcran.scenario import load_scenario

REGRESSIONS = Path(__file__).resolve().parent / "regressions"

def _run(seed: int):
    scn = load_scenario((REGRESSIONS / f"fuzz_{seed}.scn").read_text())
    report, _ = run_scenario(scn, seed, collect_trace=False)
    return scn, report


@pytest.mark.parametrize("seed", [1006, 2434, 5089])
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
