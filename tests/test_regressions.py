"""Fuzz findings pinned as scenarios before they are fixed.

Each file under regressions/ is a failure-free scenario that fuzzing
found, to be run at the seed its header names.  The tests assert the
behaviour the protocol owes (strong termination) and are expected to
fail until the defect is mended; a strict xfail turns the fix itself
into a visible change of this file.
"""

from pathlib import Path

import pytest

from tcran.engine import run_scenario
from tcran.scenario import load_scenario

REGRESSIONS = Path(__file__).resolve().parent / "regressions"

STALE_CLAIM = (
    "the settled executive holds all the credit, but a stale out_map claim "
    "keeps books_empty() false, so C2 never fires"
)


@pytest.mark.xfail(strict=True, reason=STALE_CLAIM)
@pytest.mark.parametrize("seed", [1006, 2434, 5089])
def test_failure_free_fuzz_finding_announces_strong(seed):
    scn = load_scenario((REGRESSIONS / f"fuzz_{seed}.scn").read_text())
    assert not scn.events
    report, _ = run_scenario(scn, seed, collect_trace=False)
    assert report.terminated == "strong"
