"""Smoke test of the benchmark itself, at toy sizes:

    python3 -m pytest bench/test_bench.py

Each workload must emit every metric of BENCHMARK.json with its unit,
traced counts must repeat exactly, and a directory holding only the
benchmark must be refused.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "verify": ["verify_s"],
    "graphs": ["graph_build_vertices_per_s", "graph_query_p50_us", "graph_query_p"],
    "queries": ["query_p50_ms", "query_p", "queries_per_s"],
}
# counts that depend only on the inputs, so they repeat across runs of a seed
DETERMINISTIC = [
    "schreier.orbit_mod_q.calls",
    "schreier.orbit_mod_q.states",
    "linear.freeness_sweep.words",
    "action.witness.letters",
    "schreier.build_ball.vertices",
]


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    result = _result(proc)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("fingerprint ")
    for key in ("commit", "python", "nproc", "cpu_model", "mem_total_mb"):
        assert key in json.loads(lines[0].split(" ", 1)[1])
    for name in NAMED[workload] + ["setup_s", "peak_rss_mb", "failed_frac"]:
        assert any(line.startswith(f"metric {name}") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 1))["metrics"] for _ in range(2))
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "verify":
        # q_max = 12 at toy size: 11 moduli, each BFS run by the index, rank,
        # Schreier-generator checks, plus 5 oracle moduli
        assert first["schreier.orbit_mod_q.calls"]["value"] == 38
        assert first["schreier.orbit_mod_q.useful_ratio"]["value"] == 11 / 38


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
