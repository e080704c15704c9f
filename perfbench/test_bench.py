"""Self-tests of the benchmark: tiny runs print every metric with its
unit, and a tampered output makes the command fail.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "3", "--seconds", "1", "--tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_lists_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYERS
    ]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in list(result["metrics"]) + ["failed_frac"]:
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_with_identical_outputs(workload):
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    manifest = json.loads((HERE / "out" / workload / "manifest.json").read_text())
    assert manifest["outputs"] == manifest["outputs_traced"]


@pytest.mark.parametrize("workload", ["certify-builtin", "certify-external", "oracle-verify"])
def test_tampered_output_fails_the_run(workload):
    # a full-ops radius one too large, or a violation in the oracle's list
    proc = bench("--workload", workload, "--trace", "0", "--inject-fault")
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == 1


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = bench("--workload", "certify-builtin", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
