"""Spectrum model: LCS shrinking/restoring under primary-user churn."""

from hypothesis import given, strategies as st

from tcran.channels import ChannelWorld


def world():
    return ChannelWorld(
        gcs=frozenset({2, 3, 5, 6, 7, 9}),
        lcs={
            1: {2, 3, 5},
            2: {3, 5, 6, 9},
            3: {5},
            4: {5},
            5: {5, 7, 9},
            6: {5, 9},
        },
        tuned={n: 5 for n in range(1, 7)},
    )


def test_single_channel_nodes_go_dark_when_it_is_taken():
    w = world()
    hit, retuned = w.pu_appear(5)
    assert hit == [3, 4]
    assert retuned == [1, 2, 5, 6]
    assert w.affected(3) and w.affected(4)
    assert not any(w.affected(n) for n in (1, 2, 5, 6))


def test_retuned_nodes_hop_to_lowest_remaining_channel():
    w = world()
    w.pu_appear(5)
    assert w.tuned[1] == 2
    assert w.tuned[2] == 3
    assert w.tuned[5] == 7
    assert w.tuned[6] == 9


def test_disappear_restores_exactly_the_original_holders():
    w = world()
    w.pu_appear(5)
    back = w.pu_disappear(5)
    assert back == [3, 4]
    for n in range(1, 7):
        assert not w.affected(n)
        assert 5 in w.lcs[n]


def test_node_unaffected_by_channel_it_never_listed():
    w = world()
    w.pu_appear(7)
    assert not w.affected(1)
    assert 7 not in w.lcs[5]
    w.pu_disappear(7)
    assert 7 in w.lcs[5]
    assert 7 not in w.lcs[1]


def test_two_pus_need_two_disappearances():
    w = ChannelWorld(
        gcs=frozenset({1, 2}),
        lcs={1: {1, 2}},
        tuned={1: 1},
    )
    w.pu_appear(1)
    w.pu_appear(2)
    assert w.affected(1)
    w.pu_disappear(2)
    assert not w.affected(1)
    assert w.tuned[1] == 2
    w.pu_disappear(1)
    assert w.lcs[1] == {1, 2}


def test_share_a_channel_reflects_current_spectrum():
    w = world()
    assert w.lcs[3] & w.lcs[4]
    w.pu_appear(5)
    assert not w.lcs[3] & w.lcs[4]
    assert w.lcs[2] & w.lcs[6]


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True),
    st.permutations(list(range(1, 7))),
)
def test_appear_disappear_round_trip_restores_original(chans, order):
    w = ChannelWorld(
        gcs=frozenset(range(1, 7)),
        lcs={1: set(chans)},
        tuned={1: min(chans)},
    )
    original = frozenset(chans)
    for ch in order:
        w.pu_appear(ch)
    assert w.affected(1)  # every channel got occupied at some point
    for ch in order:
        w.pu_disappear(ch)
    assert w.lcs[1] == original
    assert w.tuned[1] in original
