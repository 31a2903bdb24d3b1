"""Smoke test of the benchmark itself: every workload runs at a tiny size,
in both modes, and emits every metric ``BENCHMARK.json`` names, with its
unit.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402  (needs the paths above)

TINY = {"setups": 2, "warmup": 20, "count_ops": 60}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric(workload, trace):
    result, detail = run.run(workload, seed=3, seconds=0.2, trace=trace,
                             sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= TINY["count_ops"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    if not trace:
        for name in ("ops_per_s", "read_p50_us", "setup_s"):
            assert result["metrics"][name]["value"] > 0


def test_runs_nowhere_without_the_program(tmp_path):
    """Copied away from the source tree, the command fails without a
    result line."""
    import shutil
    import subprocess

    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger-rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
