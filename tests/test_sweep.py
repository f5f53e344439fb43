"""A safety sweep wider than the acceptance fuzz: more seeds, larger N.

The acceptance sweep covers fuzz seeds 0..999.  This one runs, untraced,
four corpora of tests/outcomes.py: mixed seeds 1000..2999 at 3..30 nodes
with the full event mix (the grid's variant 0), mixed runs at N = 60 and
N = 100, and failure-free runs at N = 100.  Every run must end as
tests/outcomes.tsv says, so a fix or a new gap shows here by seed; the
silent runs it pins are the liveness gaps of the ROADMAP.md item "A run
whose executive is up must announce".  On top of that, no run may break
safety, and every failure-free run announces.
"""

import pytest

import outcomes


def _play(corpus, runs):
    """Each run's (class, detail) by seed, and the seeds where it differs
    from the table's, with both."""
    table = outcomes.read(outcomes.TABLE)
    cells, moved = {}, {}
    for run in runs:
        cells[run.seed] = cell = outcomes.play(run)
        pinned = table.get((corpus, str(run.seed), run.variant), outcomes.STRONG)
        if cell != pinned:
            moved[run.seed] = (pinned, cell)
    return cells, moved


def _unsafe(cells):
    return {seed: cell for seed, cell in cells.items() if cell[0].startswith("safety")}


def test_fuzz_seeds_1000_to_2999_are_safe():
    runs = list(outcomes.grid(range(1000, 3000), variants=[0]))
    cells, moved = _play("grid", runs)
    assert moved == {}
    assert _unsafe(cells) == {}
    failure_free = [r.seed for r in runs if not r.scn.events]
    assert [s for s in failure_free if cells[s][0].startswith("silent")] == []


@pytest.mark.parametrize("n_nodes", [60, 100])
def test_mixed_runs_at_larger_n_are_safe(n_nodes):
    corpus = f"n{n_nodes}"
    cells, moved = _play(corpus, outcomes.CORPORA[corpus].runs())
    assert moved == {}
    assert _unsafe(cells) == {}


def test_failure_free_hundred_node_runs_announce_strong():
    cells, moved = _play("ff100", outcomes.CORPORA["ff100"].runs())
    assert moved == {}
    assert set(cells.values()) == {outcomes.STRONG}
