"""Fuzz findings pinned as scenarios.

Each file under regressions/ is a scenario that fuzzing found, to be run
at the seed its header names.  The tests assert the behaviour the
protocol owes (strong termination).  A finding not yet mended is a
strict xfail, so its fix shows up as a change of this file.
"""

from pathlib import Path

import pytest

from tcran.engine import run_scenario
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
