"""Tiny-size runs of every workload, untraced and traced, plus the command
line contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(name, traced):
    result = run.measure(workloads.get(name, tiny=True), seed=3, seconds=0, traced=traced)
    assert result["failures"] == []
    assert result["ops"] == workloads.get(name, tiny=True).cycle
    return result


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_tiny_untraced_run_passes_its_checks(name):
    result = _tiny_run(name, traced=False)
    metrics = run.end_to_end_metrics(result)
    for m in SPEC["end_to_end"]:
        if m["name"] != "setup_s":
            assert metrics[m["name"]][1] == m["unit"]
            assert metrics[m["name"]][0] > 0
    if name.startswith("certify"):
        assert set(result["forgeries"]) == {
            "xi-moved", "eta-doubled-xi-halved", "declared-tolerance"}
        assert result["forgeries"]["xi-moved"] is False


def test_traced_runs_reach_every_layer_metric():
    """Each per-layer metric of BENCHMARK.json reads non-zero on some
    workload, so no name there has drifted from the spans and counts."""
    wanted = {m["name"] for m in SPEC["per_layer"]}
    reached = set()
    for name in workloads.SPECS:
        result = _tiny_run(name, traced=True)
        assert len(result["untraced"]) == len(result["latencies"])
        metrics = run.layer_metrics(result, SPEC["per_layer"])
        reached |= {k for k in wanted if metrics[k][0]}
        if name.startswith("decide"):
            # rejected inputs are exactly the generator's signalling controls
            assert metrics["nonsignalling.rejected_ratio"] == (
                1 / workloads.SIGNALLING_EVERY, "ratio")
    assert reached == wanted


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.SPECS)


def test_command_prints_contract_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-exact-m3", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-hybrid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_relative_times_divide_by_the_surrounding_references():
    result = {"ops": 2, "failed": 0, "latencies": [1.0, 3.0], "references": [0.1, 0.3, 0.1],
              "verify_s": [], "cert_bytes": [], "forgeries": None}
    metrics = run.end_to_end_metrics(result)
    assert metrics["op_p50_ref"] == (pytest.approx(10.0), "ref")  # 1 / 0.2 and 3 / 0.2
    assert metrics["ops_per_ref"] == (pytest.approx(2 / 20), "1/ref")
    assert metrics["op_p50_s"] == (2.0, "s")
