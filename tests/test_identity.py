"""Behaviour pin: traces, reports and safety failures stay byte-identical.

One sha256 covers everything the runs below produce: every trace line
and every field of the report (or the safety error) for the goldens at a
few seeds and for a fixed fuzz corpus, plus the exit code, stderr and
trace file of both deliberate protocol mutations run through the CLI.
A refactor must leave the digest unchanged.  A change that alters
behaviour on purpose updates the constant and says why.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from tcran import cli
from tcran.engine import Engine
from tcran.errors import SafetyViolation
from tcran.protocol import KNOWN_MUTATIONS
from tcran.scenario import gen_random_scenario, load_scenario, render_scenario

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
GOLDEN_NAMES = ("sec6", "sec6_pu", "b4_cluster", "b4_cluster_nopu")
GOLDEN_SEEDS = (1, 2, 3)
# Seeds 145 and 164 take the role-requeue path of delivery.
FUZZ_SEEDS = range(100, 200)

EXPECTED_DIGEST = "3184d8d7125b27e6d4ca6dae3fbfd2f6335af7799351cfce7de87d15a6bc65ba"

# Mixed runs (seed, node count) that reach the rare surrender paths the
# corpus above misses: a returned handover parcel (924, 1094, 517, 1095,
# 1126), a SpecialReclaim (950), and an ordinary parcel bounced back to
# escrow and re-sent (22, 67).
RARE_PATH_RUNS = (
    (924, 3),
    (1094, 5),
    (517, 60),
    (1095, 60),
    (1126, 60),
    (950, 60),
    (22, 60),
    (67, 14),
)
RARE_PATH_DIGEST = "a78870a8cce136762d83634bfbce90790a8ed39f99daa5fc6965774d905431f3"


def _digest_run(h, scn, seed: int):
    eng = Engine(scn, seed)
    try:
        outcome = json.dumps(asdict(eng.run()), sort_keys=True)
    except SafetyViolation as e:
        outcome = f"safety violation: {e}"
    h.update("\n".join(eng.trace).encode())
    h.update(f"\n{outcome}\n".encode())


def test_traces_reports_and_failures_are_unchanged(tmp_path, capsys):
    h = hashlib.sha256()
    for name in GOLDEN_NAMES:
        scn = load_scenario((GOLDENS / f"{name}.scn").read_text())
        for seed in GOLDEN_SEEDS:
            _digest_run(h, scn, seed)
    # The walkthrough trips the in-map bug; the announce-guard bug needs
    # a run whose executive settles before all credit is back.
    random1 = tmp_path / "random1.scn"
    random1.write_text(render_scenario(gen_random_scenario(1)))
    bait = {"a5-keep-inmap": GOLDENS / "sec6.scn", "c2-skip-hold-check": random1}
    for mutation in KNOWN_MUTATIONS:
        out = tmp_path / f"{mutation}.trace"
        code = cli.main(
            [
                "--scenario",
                str(bait[mutation]),
                "--mutate",
                mutation,
                "--trace-out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_SAFETY, mutation
        h.update(f"{mutation}|{code}|{captured.err}".encode())
        h.update(out.read_bytes())
    for seed in FUZZ_SEEDS:
        _digest_run(h, gen_random_scenario(seed, n_nodes=3 + seed % 28), seed)
    assert h.hexdigest() == EXPECTED_DIGEST


def test_rare_surrender_paths_are_unchanged():
    h = hashlib.sha256()
    for seed, n_nodes in RARE_PATH_RUNS:
        _digest_run(h, gen_random_scenario(seed, n_nodes=n_nodes), seed)
    assert h.hexdigest() == RARE_PATH_DIGEST
