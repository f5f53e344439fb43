"""Differential testing against a credit-recovery reference detector.

The reference runs the same computation but recovers credit flat to the
collector (no surrender tree, no spectrum awareness).  Its announcement is a
second, independently derived opinion on when the computation went quiet.
"""

import heapq
from pathlib import Path

import pytest

from tcran import mattern
from tcran.engine import run_scenario
from tcran.errors import ParseError, SafetyViolation
from tcran.mattern import run_reference
from tcran.scenario import gen_random_scenario, load_scenario

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def quiet_scenario(seed):
    return gen_random_scenario(seed, n_nodes=3 + seed % 12, failure_free=True)


@pytest.mark.parametrize("seed", range(25))
def test_ground_truth_agrees_with_main_engine(seed):
    scn = quiet_scenario(seed)
    rep = run_scenario(scn, seed, collect_trace=False).report
    ref = run_reference(scn, seed)
    assert ref.ground_truth == rep.ground_truth


@pytest.mark.parametrize("seed", range(25))
def test_reference_never_announces_early(seed):
    scn = quiet_scenario(seed)
    ref = run_reference(scn, seed)
    assert ref.announce_time is not None
    assert ref.announce_time >= ref.ground_truth
    assert ref.recovered == "1"


def test_reference_on_the_walkthrough():
    scn = load_scenario((GOLDENS / "sec6.scn").read_text())
    ref = run_reference(scn, 1)
    rep = run_scenario(scn, 1, collect_trace=False).report
    assert ref.ground_truth == rep.ground_truth == 14.5
    assert ref.announce_time >= 14.5


def test_reference_is_deterministic():
    scn = quiet_scenario(7)
    a = run_reference(scn, 7)
    b = run_reference(scn, 7)
    assert a == b


def test_reference_refuses_world_events():
    scn = load_scenario((GOLDENS / "sec6_pu.scn").read_text())
    with pytest.raises(ValueError):
        run_reference(scn, 1)


def test_reference_counts_traffic():
    scn = quiet_scenario(3)
    ref = run_reference(scn, 3)
    # one return per activation, minus the collector's own pot
    assert ref.coms >= ref.returns > 0


class _LossyHeap:
    """heapq, except that the first credit return pushed is lost."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.lost = 0

    def heappush(self, queue, item):
        _at, _cls, _seq, kind, _payload = item
        if kind == "ret" and not self.lost:
            self.lost += 1
            return
        heapq.heappush(queue, item)


def test_reference_reports_a_credit_leak(monkeypatch):
    # Credit recovery assumes no message is lost; a lost return leaves
    # the pot short, and the run must say so rather than report.
    lossy = _LossyHeap()
    monkeypatch.setattr(mattern, "heapq", lossy)
    with pytest.raises(SafetyViolation, match="credit leaked: recovered 3/5 of 1"):
        run_reference(load_scenario((GOLDENS / "sec6.scn").read_text()), 1)
    assert lossy.lost == 1
