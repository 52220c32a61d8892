"""Tiny runs of every workload report every metric BENCHMARK.json names."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def launch(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_file_lists_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["build", "train", "eval"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["build", "train", "eval"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = launch(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # build's fixed unsolvable case is its only failure: one per round of
    # build_cases solves, one failed solve and five dataset calls
    per_round = workloads.TINY.build_cases + 6
    assert result["failed"] == (result["attempted"] // per_round if workload == "build" else 0)
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = launch(tmp_path, "--workload", "build", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
