"""Self-tests of the benchmark at tiny sizes (``--smoke``).

    python3 -m pytest -q perfbench/test_smoke.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that an injected output fault is counted as a failed operation, and
that the exact per-layer counts repeat across two traced runs with one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from spans import is_exact  # noqa: E402


def bench(workload: str, *flags: str, trace: int = 0, seed: int = 5) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_fault_injection(workload):
    result = bench(workload)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(v["value"] > 0 for v in result["metrics"].values())

    faulty = bench(workload, "--inject-fault")
    assert not faulty["correct"]
    assert faulty["failed"] / faulty["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = bench(workload, trace=1)
    second = bench(workload, trace=1)
    _assert_metrics(first, SPEC["per_layer"])
    assert first["correct"] and second["correct"]
    exact = [name for name in first["metrics"] if is_exact(name)]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    busy = [name for name in first["metrics"] if first["metrics"][name]["value"] > 0]
    for name in EXERCISED[workload]:
        assert name in busy, name


# Per-layer metrics each workload must exercise.
EXERCISED = {
    "cli_chain": ["cli.eval.calls", "matching.read_matched_samples.records",
                  "calibrators.fit.lc-dep.conf_xy.obj_evals", "metrics.heatmap.s"],
    "protocol_grid": [f"calibrators.fit.{m}.{fs}.s" for m in ("hb", "lc", "lc-dep", "bc", "bc-dep")
                      for fs in ("conf", "conf_xy", "conf_wh", "full")]
    + ["harness.self_s", "optimizer.accept_ratio", "metrics.compute_d_ece.retained_frac"],
    "coco_match": ["detections.load_dataset.records", "matching.match_detections.pairs",
                   "matching.match_detections.matched_frac", "cli.match.s"],
}
