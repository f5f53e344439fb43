"""Behaviour pin over a wide grid of timings: one sha256 of every run.

The grid is mixed fuzz seeds 0..999, each at node count 3 + seed % 28,
under six timing variants: the scenario as generated, and five with its
delay range and weak-wait replaced.  For every run the hash takes the
trace and the report, or the text of the SafetyViolation that ended it.
A run without world events also hashes the reference detector's report
for the same scenario and seed, so the grid pins the engine and
tcran.mattern together, at fixed and at drawn delays alike.

Run from the repo root:

    PYTHONPATH=src python tests/identity_wide.py

It prints the digest and exits 1 unless it equals WIDE_DIGEST.  A
refactor leaves the digest unchanged; a change that alters behaviour on
purpose updates the constant and says why.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

from tcran.engine import Engine
from tcran.errors import SafetyViolation
from tcran.mattern import run_reference
from tcran.scenario import gen_random_scenario

SEEDS = range(1000)

# Timing fields replaced in each variant; the first keeps the generated ones.
VARIANTS = (
    {},
    {"delay": (1.0, 1.0), "weak_wait": 0.0},
    {"delay": (0.5, 2.0), "weak_wait": 1.0},
    {"delay": (1.0, 1.0), "weak_wait": 5.0},
    {"delay": (0.1, 20.0), "weak_wait": 50.0},
    {"delay": (0.1, 20.0), "weak_wait": 0.0},
)

WIDE_DIGEST = "89eeaaf43237f223e6de536442630439c7d34873c4073464574c573b9332755f"


def digest() -> str:
    h = hashlib.sha256()
    for i, timing in enumerate(VARIANTS):
        for seed in SEEDS:
            scn = dataclasses.replace(gen_random_scenario(seed, 3 + seed % 28), **timing)
            eng = Engine(scn, seed)
            try:
                outcome = json.dumps(dataclasses.asdict(eng.run()), sort_keys=True)
            except SafetyViolation as e:
                outcome = f"safety violation: {e}"
            h.update(f"{i}|{seed}\n".encode())
            h.update("\n".join(eng.trace).encode())
            h.update(f"\n{outcome}\n".encode())
            if not scn.events:
                ref = dataclasses.asdict(run_reference(scn, seed))
                h.update(f"{json.dumps(ref, sort_keys=True)}\n".encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    got = digest()
    print(got)
    return 0 if got == WIDE_DIGEST else 1


if __name__ == "__main__":
    sys.exit(main())
