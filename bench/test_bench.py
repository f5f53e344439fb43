"""Self-test for the benchmark at a tiny size:  python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from metrics import end_to_end, measure, traced_run  # noqa: E402
from tcran.engine import Engine  # noqa: E402
from tracing import Calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"fuzz_mixed": 6, "scale_ff": 1, "record_replay": 6}
SIMULATED = ("failed_share", "strong_share", "ctrl_msgs_per_run",
             "detect_delay_p50", "detect_delay_tail")


def test_spec_lists_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_and_tracing_changes_nothing(name):
    workload = WORKLOADS[name]
    seeds = workload.seeds(1, TINY[name])
    step = Engine.step

    layers, plain, problems = traced_run(ROOT, workload, seeds, 0, None)
    assert problems == []
    assert Engine.step is step, "tracer left a wrapper installed"
    again = measure(workload, seeds, 0, Calls())
    assert again.digest == plain.digest

    e2e, _ = end_to_end(plain, setup_s=1.0)
    e2e_again, _ = end_to_end(again, setup_s=1.0)
    for key in SIMULATED:
        assert e2e.get(key) == e2e_again.get(key)
    for group, got in (("end_to_end", e2e), ("per_layer", layers)):
        for metric in SPEC[group]:
            assert got[metric["name"]][1] == metric["unit"], metric["name"]


def test_fuzz_corpus_adds_no_trace_layer_work():
    workload = WORKLOADS["fuzz_mixed"]
    small, _, _ = traced_run(ROOT, workload, workload.seeds(1, 3), 0, None)
    large, _, _ = traced_run(ROOT, workload, workload.seeds(1, 6), 0, None)
    assert large["scenario.gen.calls"][0] == small["scenario.gen.calls"][0] + 3
    for key in ("trace.snapshot.calls", "trace.lines", "scenario.load.calls"):
        assert large[key] == small[key], key


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
