"""Smoke test of the benchmark at tiny sizes (about two minutes).

Run from the root of a stoplab checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {d["name"]: d["unit"] for d in declared}
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert record["checks_failed_frac"] == 0.0
    assert record["provenance"]["generated_config_sha256"]


# The objective's smoothness is 2.  L = 0.2 breaks the step-size condition the
# decomposition check verifies; L = 1e-3 makes the run raise (gamma2
# overflows), which counts every expected check as failed.
@pytest.mark.parametrize("L", [0.2, 1e-3])
def test_broken_schedule_reports_a_nonzero_failure_share(L):
    cfg = workloads.generate("cov-wide", 3, tiny=True)
    cfg["schedule"] = {"variant": "theorem-main", "L": L}
    record = run.measure(run.Context.create(ROOT), "cov-wide", cfg, 0.0, trace=False)
    assert record["checks_failed_frac"] > 0
    assert record["result"]["failed"] > 0
    assert not record["result"]["correct"]


def test_generation_depends_only_on_the_seed():
    for name in workloads.NAMES:
        a = workloads.canonical(workloads.generate(name, 9))
        assert a == workloads.canonical(workloads.generate(name, 9))
    assert workloads.generate("lsq-d64", 1) != workloads.generate("lsq-d64", 2)
    assert workloads.generate("cov-wide", 1)["base_seed"] == 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "cov-wide", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
