"""Scenario text format: parse/render round-trips and validation."""

import pytest

from tcran.credit import credit
from tcran.errors import ParseError, ValidationError
from tcran.scenario import (
    Event,
    Scenario,
    gen_random_scenario,
    load_scenario,
    render_scenario,
)

MINIMAL = """\
tcran-scenario v1

[channels]
1

[nodes]
1: 1 @1
2: 1 @1

[topology]
1-2

[start]
at 0 node 1

[workload]
1: 2
2: 1

[plan]
1: 2=1/2
"""


def scn(text=MINIMAL):
    return load_scenario(text)


def test_minimal_scenario_parses_with_defaults():
    s = scn()
    assert s.credit_total == credit(1)
    assert s.t_e == 5.0
    assert s.weak_wait == 50.0
    assert s.d_ack == 0.5
    assert s.delay == (1.0, 1.0)
    assert s.horizon is None
    assert s.choice == "lowest"
    assert not s.work_while_dark
    assert s.nodes() == [1, 2]
    assert s.adjacency()[1] == frozenset({2})


def test_round_trip_is_identity_on_minimal():
    s = scn()
    assert load_scenario(render_scenario(s)) == s


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_is_identity_on_random_scenarios(seed):
    s = gen_random_scenario(seed, n_nodes=3 + seed % 12)
    assert load_scenario(render_scenario(s)) == s


def test_random_scenarios_validate_and_vary(subtests=None):
    kinds = set()
    for seed in range(30):
        s = gen_random_scenario(seed)
        s.validate()
        kinds.update(ev.kind for ev in s.events)
    assert "pu-appear" in kinds
    assert {"fail", "crash"} & kinds


def test_failure_free_generator_emits_no_events():
    for seed in range(20):
        assert gen_random_scenario(seed, failure_free=True).events == ()


def test_delay_range_syntax():
    s = scn(MINIMAL.replace("[channels]", "[params]\ndelay = 0.5..2\n\n[channels]"))
    assert s.delay == (0.5, 2.0)


def test_events_sort_by_time():
    text = MINIMAL + "\n[events]\nat 9 pu-appear 1\nat 3 pu-disappear 1\n"
    s = scn(text)
    assert [e.at for e in s.events] == [3.0, 9.0]
    assert s.events[0] == Event(3.0, "pu-disappear", 1)


def test_missing_header_line_number():
    with pytest.raises(ParseError) as e:
        load_scenario("[params]\ncredit = 1\n")
    assert e.value.line == 1


def test_bad_number_reports_its_line():
    text = MINIMAL.replace("1: 2\n", "1: abc\n")
    with pytest.raises(ParseError) as e:
        load_scenario(text)
    assert e.value.line == MINIMAL.splitlines().index("1: 2") + 1


def test_duplicate_node_rejected():
    text = MINIMAL.replace("2: 1 @1", "2: 1 @1\n2: 1 @1")
    with pytest.raises(ParseError, match="declared twice"):
        load_scenario(text)


def test_unknown_section_rejected():
    with pytest.raises(ParseError, match="unknown section"):
        load_scenario("tcran-scenario v1\n[junk]\n")


def test_unknown_event_kind_rejected():
    text = MINIMAL + "\n[events]\nat 1 explode 1\n"
    with pytest.raises(ParseError, match="unknown event kind"):
        load_scenario(text)


def test_missing_start_rejected():
    text = MINIMAL.replace("[start]\nat 0 node 1\n", "")
    with pytest.raises(ParseError, match="start"):
        load_scenario(text)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("at 0 node 1", "at 0 node 9"), "start node"),
        (lambda t: t.replace("1: 2=1/2", "1: 2=2"), "retain"),
        (lambda t: t.replace("[plan]\n1: 2=1/2", "[plan]\n2: 1=1/2 1=1/4"), "two grants"),
        (lambda t: t.replace("1-2", "1-1"), "self-loop"),
        (lambda t: t.replace("2: 1 @1", "2: 1 @9"), "tuned"),
    ],
)
def test_structural_validation(mangle, message):
    with pytest.raises(ValidationError, match=message):
        load_scenario(mangle(MINIMAL))


def test_edge_endpoints_must_share_a_channel():
    text = MINIMAL.replace("[channels]\n1", "[channels]\n1 2").replace(
        "2: 1 @1", "2: 2 @2"
    )
    with pytest.raises(ValidationError, match="share no channel"):
        load_scenario(text)


def test_plan_to_non_neighbor_rejected():
    text = MINIMAL.replace("[topology]\n1-2", "[topology]\n1-2 # dropped below")
    text = text.replace("1-2 # dropped below", "1-2")  # keep edge; plan to distant
    text = text.replace("2: 1 @1", "2: 1 @1\n3: 1 @1").replace(
        "1: 2=1/2", "1: 3=1/2"
    )
    with pytest.raises(ValidationError, match="non-neighbor"):
        load_scenario(text)


def test_negative_workload_rejected():
    with pytest.raises(ValidationError, match="negative workload"):
        load_scenario(MINIMAL.replace("2: 1\n", "2: -1\n"))


def test_pu_event_on_unknown_channel_rejected():
    text = MINIMAL + "\n[events]\nat 1 pu-appear 7\n"
    with pytest.raises(ValidationError, match="unknown channel"):
        load_scenario(text)


def test_comments_and_blank_lines_ignored():
    noisy = MINIMAL.replace("[topology]", "# a comment\n\n[topology]  # trailing")
    assert load_scenario(noisy) == scn()
