"""Trace files: every malformed header or body is refused with its reason."""

from pathlib import Path

import pytest

from tcran import trace as tracefile
from tcran.engine import run_scenario
from tcran.errors import ParseError, ReplayDivergence
from tcran.scenario import load_scenario

SEC6 = (Path(__file__).resolve().parent.parent / "goldens" / "sec6.scn").read_text()


def sec6_trace() -> str:
    run = run_scenario(load_scenario(SEC6), seed=1)
    assert run.violation is None
    return tracefile.render_trace(SEC6, 1, run.engine.trace)


@pytest.mark.parametrize(
    "mangle, error, message",
    [
        (lambda t: t.replace("seed = 1", "seed 1"), ParseError,
         "line 2: expected key = value before scenario"),
        (lambda t: t.replace("seed = 1", "seed = 1\nspeed = 2"), ParseError,
         "line 3: unknown trace field 'speed'"),
        (lambda t: t.replace("seed = 1\n", ""), ParseError, "trace file missing seed"),
        (lambda t: t.replace("seed = 1", "seed = 1\nseed = 2"), ParseError,
         "line 3: repeated trace field 'seed'"),
        (lambda t: t.replace("seed = 1", "seed = 1\nhorizon = 50\nhorizon = 100"),
         ParseError, "line 4: repeated trace field 'horizon'"),
        (lambda t: t.replace("seed = 1", "seed = 1\nmutate = a5-keep-inmap,bogus"),
         ParseError, "line 3: unknown mutation 'bogus'"),
        (lambda t: t.replace("seed = 1", "seed = 1\nmutate ="),
         ParseError, "line 3: unknown mutation ''"),
        (lambda t: t.split("--- scenario ---")[0], ParseError,
         "missing '--- scenario ---'"),
        (lambda t: t.split("--- trace ---")[0], ParseError, "missing '--- trace ---'"),
        (lambda t: t.split("--- end ---")[0], ParseError, "missing '--- end ---'"),
        # The recorded log lost its last line: every line replays alike,
        # and then the replay runs on.
        (lambda t: "\n".join(t.splitlines()[:-2] + ["--- end ---\n"]), ReplayDivergence,
         "trace length changed: recorded 52 lines, replay produced 53"),
    ],
)
def test_malformed_trace_is_refused_with_its_reason(mangle, error, message):
    with pytest.raises(error, match=message):
        tracefile.replay(mangle(sec6_trace()))


def test_mutations_are_recorded_sorted_and_read_back():
    mutations = ("c2-skip-hold-check", "a5-keep-inmap")
    text = tracefile.render_trace(SEC6, 1, ["0|1|A1"], 3.0, mutations)
    assert text.splitlines()[1:4] == [
        "seed = 1",
        "horizon = 3",
        "mutate = a5-keep-inmap,c2-skip-hold-check",
    ]
    tf = tracefile.parse_trace(text)
    assert (tf.seed, tf.horizon, tf.lines) == (1, 3.0, ["0|1|A1"])
    assert sorted(tf.mutations) == sorted(mutations)
    assert "mutate" not in tracefile.render_trace(SEC6, 1, ["0|1|A1"])
