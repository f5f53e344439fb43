"""End-to-end CLI behavior: exit codes, reports, traces, fuzzing.

Every verdict class must map to its own exit code, no exceptions:
0 clean, 2 parse, 3 safety, 4 liveness, 5 bounds, 6 replay divergence.
"""

import json
from pathlib import Path

import pytest

from tcran import checker, cli
from tcran import trace as tracefile
from tcran.engine import Engine
from tcran.errors import BoundsViolation, SafetyViolation
from tcran.scenario import gen_random_scenario, render_scenario
from tcran.trace import render_trace

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
SEC6 = str(GOLDENS / "sec6.scn")
SEC6_PU = str(GOLDENS / "sec6_pu.scn")
REGRESSIONS = Path(__file__).resolve().parent / "regressions"


def run_cli(*argv):
    return cli.main(list(argv))


# --- happy paths -----------------------------------------------------------------


def test_walkthrough_run_is_clean(capsys):
    assert run_cli("--scenario", SEC6, "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "outcome: strong by node 2 at t=14.5" in out
    assert "ground truth: t=14.5" in out
    assert "credit sum: 1" in out
    assert "anomalies: none" in out
    assert "EXCEEDED" not in out


def test_spectrum_walkthrough_announces_weak(capsys):
    assert run_cli("--scenario", SEC6_PU, "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "outcome: weak by node 1 at t=63" in out


def test_machine_report_is_json(capsys):
    assert run_cli("--scenario", SEC6, "--report", "machine-readable") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 1  # default seed
    rep = doc["report"]
    assert rep["terminated"] == "strong"
    assert rep["announcer"] == 2
    assert rep["final_sum"] == "1"
    assert rep["counters"]["COM"] == 8


def test_a_strong_run_prints_no_class_line(capsys):
    assert run_cli("--scenario", SEC6, "--seed", "1") == 0
    assert "class:" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "path, flags, code, line",
    [
        (SEC6_PU, (), 0, "class: weak node 1 at t=63"),
        (
            SEC6,
            ("--horizon", "3"),
            4,
            "class: silent:unsettled exec 1 hold=1/10; horizon reached",
        ),
        (
            str(REGRESSIONS / "fuzz_8773.scn"),
            ("--seed", "8773"),
            4,
            "class: silent:in-map exec 10 hold=5/6 in_map={8: 1/6}",
        ),
        # Cut while the weak deadline at 63 is armed: the executive's
        # books allow the announcement that has not come.
        (
            SEC6_PU,
            ("--horizon", "60"),
            0,
            "class: silent:weak-armed exec 1 hold=13/20 weak_deadline=63;"
            " horizon reached",
        ),
    ],
)
def test_a_run_that_does_not_end_strong_says_why_after_its_outcome(
    capsys, path, flags, code, line
):
    assert run_cli("--scenario", path, *flags) == code
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("outcome: ")
    assert out[3] == line


def test_machine_report_carries_the_class_and_detail(capsys):
    assert run_cli("--scenario", SEC6_PU, "--report", "machine-readable") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["class"], doc["detail"]) == ("weak", "node 1 at t=63")
    assert doc["report"]["terminated"] == "weak"


# --- parse failures --------------------------------------------------------------


def test_missing_file_is_a_parse_error(capsys):
    assert run_cli("--scenario", "no-such-file.scn") == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_reports_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("tcran-scenario v1\n[nodes]\n1: oops\n")
    assert run_cli("--scenario", str(bad)) == 2
    assert "line 3" in capsys.readouterr().err


def test_misspelled_param_exits_2_with_its_line(tmp_path, capsys):
    text = Path(SEC6).read_text()
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace("weak-wait = 50", "weak_wait = 7"))
    line = text.splitlines().index("weak-wait = 50") + 1
    assert run_cli("--scenario", str(bad)) == 2
    assert f"line {line}: unknown parameter 'weak_wait'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, flags",
    [
        ("1: 12.5", "1: nan", ()),
        ("1: 12.5", "1: inf", ()),
        ("t_e = 5", "t_e = -5", ()),
        ("d-ack = 0.5", "d-ack = -1", ()),
        ("d-detect = 1", "d-detect = -1", ()),
        ("weak-wait = 50", "weak-wait = nan", ()),
        ("horizon = 100", "horizon = nan", ()),
        ("horizon = 100", "horizon = -1", ()),
        ("delay = 1", "delay = 1..inf", ()),
        ("at 0 node 1", "at nan node 1", ()),
        ("[plan]", "[events]\nat nan fail 3\n\n[plan]", ()),
        ("[plan]", "[events]\nat -1 fail 3\n\n[plan]", ()),
        ("", "", ("--horizon", "nan")),
        ("", "", ("--horizon", "-1")),
    ],
)
def test_non_finite_or_negative_times_are_rejected(tmp_path, capsys, old, new, flags):
    text = (GOLDENS / "sec6.scn").read_text()
    assert old in text
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(old, new, 1))
    assert run_cli("--scenario", str(bad), *flags) == 2
    assert "error:" in capsys.readouterr().err


def test_modes_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("--scenario", SEC6, "--fuzz", "3")
    assert e.value.code == 2


@pytest.mark.parametrize(
    "mode, flags, complaint",
    [
        ("--replay", ["--seed", "7"], "--seed"),
        ("--replay", ["--horizon", "3"], "--horizon"),
        ("--replay", ["--mutate", "a5-keep-inmap"], "--mutate"),
        ("--replay", ["--trace-out", "again.trace"], "--trace-out"),
        ("--replay", ["--nodes", "4"], "--nodes"),
        ("--replay", ["--failure-free"], "--failure-free"),
        ("--scenario", ["--nodes", "1"], "--nodes"),
        ("--scenario", ["--failure-free"], "--failure-free"),
        ("--fuzz", ["--trace-out", "fuzz.trace"], "--trace-out"),
    ],
)
def test_options_the_mode_ignores_exit_2(
    tmp_path, monkeypatch, capsys, mode, flags, complaint
):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "run.trace"
    assert run_cli("--scenario", SEC6, "--trace-out", str(trace)) == 0
    capsys.readouterr()
    target = {"--replay": str(trace), "--scenario": SEC6, "--fuzz": "1"}[mode]
    assert run_cli(mode, target, *flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {complaint} does nothing with {mode}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.trace"]


# --- safety, liveness, bounds ------------------------------------------------------


def test_mutated_cleanup_leaks_credit_and_exits_3(capsys):
    assert run_cli("--scenario", SEC6, "--mutate", "a5-keep-inmap") == 3
    assert "safety violation" in capsys.readouterr().err


def test_mutated_announce_guard_exits_3(tmp_path, capsys):
    scn = tmp_path / "random1.scn"
    scn.write_text(render_scenario(gen_random_scenario(1)))
    assert run_cli("--scenario", str(scn), "--seed", "1") == 0
    capsys.readouterr()
    code = run_cli(
        "--scenario", str(scn), "--seed", "1", "--mutate", "c2-skip-hold-check"
    )
    assert code == 3
    assert "strong announced" in capsys.readouterr().err


def test_cut_failure_free_run_is_a_liveness_violation(capsys):
    assert run_cli("--scenario", SEC6, "--horizon", "3") == 4
    captured = capsys.readouterr()
    assert "liveness violation" in captured.err
    assert "no announcement (horizon reached)" in captured.out


def test_bounds_verdict_maps_to_exit_5(monkeypatch, capsys):
    def tripped(_bounds):
        raise BoundsViolation("COM: 99 > 1")

    monkeypatch.setattr(checker, "assert_bounds", tripped)
    assert run_cli("--scenario", SEC6) == 5
    assert "bounds violation: COM: 99 > 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, code, err",
    [
        # A failure-free run that never announced is a liveness failure
        # first.
        (SEC6, 4, "liveness violation: failure-free run never announced\n"),
        (SEC6_PU, 5, "bounds violation: COM: 99 > 1\n"),
    ],
)
def test_a_run_cut_by_the_horizon_over_a_bound_keeps_its_stderr_line(
    monkeypatch, capsys, path, code, err
):
    def tripped(_bounds):
        raise BoundsViolation("COM: 99 > 1")

    monkeypatch.setattr(checker, "assert_bounds", tripped)
    assert run_cli("--scenario", path, "--horizon", "3") == code
    captured = capsys.readouterr()
    assert "\nclass: bounds COM: 99 > 1; horizon reached\n" in captured.out
    assert captured.err == err


# --- horizon plumbing ---------------------------------------------------------------


def test_horizon_flag_overrides_the_scenario(tmp_path, capsys):
    # sec6 sets horizon = 100 and announces at t=14.5.
    assert run_cli("--scenario", SEC6, "--horizon", "3") == 4
    assert "horizon reached" in capsys.readouterr().out
    short = tmp_path / "short.scn"
    short.write_text(Path(SEC6).read_text().replace("horizon = 100", "horizon = 3"))
    assert run_cli("--scenario", str(short), "--horizon", "100") == 0
    assert "strong by node 2" in capsys.readouterr().out


# --- traces and replay ----------------------------------------------------------------


def test_trace_round_trip(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert run_cli("--scenario", SEC6, "--trace-out", str(trace)) == 0
    capsys.readouterr()
    assert trace.read_text().startswith("# tcran-trace v1")
    assert run_cli("--replay", str(trace)) == 0
    assert "replay: identical" in capsys.readouterr().out


def test_replay_parses_the_trace_once(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "run.trace"
    assert run_cli("--scenario", SEC6, "--seed", "5", "--trace-out", str(trace)) == 0
    capsys.readouterr()
    parses = []
    parse = tracefile.parse_trace

    def counted(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(tracefile, "parse_trace", counted)
    assert run_cli("--replay", str(trace)) == 0
    assert len(parses) == 1
    assert "seed: 5" in capsys.readouterr().out


def test_trace_keeps_the_horizon_flag_for_its_replay(tmp_path, capsys):
    # At 14.49999999, six significant digits would round the horizon up
    # to sec6's announcement at 14.5, and the replay would run on.
    for horizon, end in (("3", "3"), ("14.49999999", "14.5")):
        trace = tmp_path / f"short-{horizon}.trace"
        code = run_cli("--scenario", SEC6, "--horizon", horizon, "--trace-out", str(trace))
        assert code == 4
        capsys.readouterr()
        assert f"\nhorizon = {horizon}\n" in trace.read_text()
        # Replayed at the scenario's own horizon of 100, the log would run on.
        assert run_cli("--replay", str(trace)) == 0
        out = capsys.readouterr().out
        assert "no announcement (horizon reached)" in out
        assert f"end of run: t={end}," in out
        assert "replay: identical" in out


def test_trace_written_even_when_the_run_trips(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    code = run_cli(
        "--scenario", SEC6, "--trace-out", str(trace), "--mutate", "a5-keep-inmap"
    )
    assert code == 3
    assert trace.exists() and "--- trace ---" in trace.read_text()


def test_tampered_trace_diverges_with_exit_6(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    run_cli("--scenario", SEC6, "--trace-out", str(trace))
    capsys.readouterr()
    doctored = trace.read_text().replace("hold=1/10", "hold=2/10", 1)
    trace.write_text(doctored)
    assert run_cli("--replay", str(trace)) == 6
    assert "replay divergence" in capsys.readouterr().err


def test_replaying_a_non_trace_is_a_parse_error(tmp_path, capsys):
    junk = tmp_path / "junk.trace"
    junk.write_text("this is not a trace\n")
    assert run_cli("--replay", str(junk)) == 2


@pytest.mark.parametrize(
    "old, new, complaint",
    [
        ("seed = 1", "seed = one", "line 2: bad integer 'one'"),
        ("seed = 1", "seed = 1\nhorizon = nan", "non-finite horizon: nan"),
    ],
)
def test_bad_trace_header_is_a_parse_error(tmp_path, capsys, old, new, complaint):
    trace = tmp_path / "run.trace"
    assert run_cli("--scenario", SEC6, "--trace-out", str(trace)) == 0
    capsys.readouterr()
    text = trace.read_text()
    assert old in text
    trace.write_text(text.replace(old, new, 1))
    assert run_cli("--replay", str(trace)) == 2
    assert complaint in capsys.readouterr().err


# --- fuzz mode --------------------------------------------------------------------------


def test_fuzz_summary_and_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("--fuzz", "10", "--seed", "7") == 0
    assert "10 runs, base seed 7 -> 0 violations" in capsys.readouterr().out
    assert not list(tmp_path.glob("tcran-fail-*"))


def test_fuzz_machine_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("--fuzz", "5", "--report", "machine-readable") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "base_seed": 42,
        "by_class": {},
        "failing_seeds": [],
        "runs": 5,
        "violations": 0,
    }


def test_fuzz_dumps_failing_seeds(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_cli("--fuzz", "2", "--seed", "9", "--mutate", "a5-keep-inmap")
    assert code == 3
    captured = capsys.readouterr()
    assert "violation (safety) at seed 9" in captured.err
    dumps = sorted(p.name for p in tmp_path.glob("tcran-fail-*"))
    assert any(n.endswith(".scn") for n in dumps)
    assert any(n.endswith(".trace") for n in dumps)
    # The sweep runs untraced; the dump comes from a traced rerun, which
    # must log the very run a traced Engine makes of that seed.
    scn = gen_random_scenario(9, n_nodes=3 + 9 % 28)
    eng = Engine(scn, 9, mutations=("a5-keep-inmap",))
    with pytest.raises(SafetyViolation):
        eng.run()
    assert eng.trace
    want = render_trace(render_scenario(scn), 9, eng.trace, None, ["a5-keep-inmap"])
    assert (tmp_path / "tcran-fail-9.trace").read_bytes() == want.encode()


def _dump_a_failing_seed(tmp_path, monkeypatch, capsys) -> Path:
    """The trace that a mutated sweep dumps for seed 9, which trips the
    conservation check at t=5.8."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("--fuzz", "1", "--seed", "9", "--mutate", "a5-keep-inmap") == 3
    capsys.readouterr()
    return tmp_path / "tcran-fail-9.trace"


def test_a_mutated_fuzz_dump_replays_to_its_violation(tmp_path, monkeypatch, capsys):
    trace = _dump_a_failing_seed(tmp_path, monkeypatch, capsys)
    assert "\nmutate = a5-keep-inmap\n" in trace.read_text()
    assert run_cli("--replay", str(trace)) == 3
    captured = capsys.readouterr()
    assert captured.err == "safety violation: t=5.8: credit sum 19/18 != total 1\n"
    assert captured.out == ""


def test_a_failing_run_whose_recorded_line_was_edited_diverges(
    tmp_path, monkeypatch, capsys
):
    trace = _dump_a_failing_seed(tmp_path, monkeypatch, capsys)
    head, body = trace.read_text().split("--- trace ---\n")
    lines = body.splitlines()
    assert lines[1] == "0|1|A2|fanout|hold=1/3"
    lines[1] = "0|1|A2|fanout|hold=2/3"
    trace.write_text(head + "--- trace ---\n" + "\n".join(lines) + "\n")
    assert run_cli("--replay", str(trace)) == 6
    assert capsys.readouterr().err == (
        "replay divergence: trace line 2: recorded '0|1|A2|fanout|hold=2/3', "
        "replay produced '0|1|A2|fanout|hold=1/3'\n"
    )


def test_fuzz_rejects_nonpositive_count(capsys):
    assert run_cli("--fuzz", "0") == 2


@pytest.mark.parametrize("k", ["1", "0", "-3"])
def test_fuzz_rejects_fewer_than_two_nodes(k, capsys):
    assert run_cli("--fuzz", "2", "--nodes", k, "--seed", "5") == 2
    assert capsys.readouterr().err == "error: --nodes needs K >= 2\n"
