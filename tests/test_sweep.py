"""A safety sweep wider than the acceptance fuzz: more seeds, larger N.

The acceptance sweep covers fuzz seeds 0..999.  This one runs seeds
1000..2999 at 3..30 nodes with the full event mix, and failure-free runs
at N = 100.  No run may break safety, and every failure-free fuzz run
announces.  The silent ones are collected, not filtered out, so a
failure names its seeds.
"""

from tcran.engine import run_scenario
from tcran.errors import SafetyViolation
from tcran.scenario import gen_random_scenario

# Failure-free fuzz seeds in the range that end with no announcement.
STALE_CLAIM_SEEDS: set[int] = set()


def test_fuzz_seeds_1000_to_2999_are_safe():
    violations, silent = [], set()
    for seed in range(1000, 3000):
        scn = gen_random_scenario(seed, n_nodes=3 + seed % 28)
        try:
            rep, _ = run_scenario(scn, seed, collect_trace=False)
        except SafetyViolation as e:
            violations.append((seed, str(e)))
            continue
        if not scn.events and rep.terminated is None:
            silent.add(seed)
    assert violations == []
    assert silent == STALE_CLAIM_SEEDS


def test_failure_free_hundred_node_runs_announce_strong():
    for seed in range(50):
        scn = gen_random_scenario(seed, n_nodes=100, failure_free=True)
        rep, _ = run_scenario(scn, seed, collect_trace=False)
        assert rep.terminated == "strong" and not rep.horizon_hit, f"seed {seed}"
