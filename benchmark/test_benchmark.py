"""The benchmark's own test: every workload in smoke mode, untraced and traced.

    python3 -m pytest benchmark/test_benchmark.py

Smoke mode runs one round of each workload at a small size with the same
oracle checks, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(root, record_dir, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmark", "run.py"), *args,
         "--record-dir", str(record_dir)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload, trace, tmp_path):
    proc = _run(ROOT, tmp_path, "--workload", workload, "--seed", "3",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in line["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0.0 for m in line["metrics"].values())
    records = os.listdir(tmp_path)
    assert len([r for r in records if r.endswith(".json")]) == 1


def test_without_the_library_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), tmp_path / "records", "--workload", "figures", "--smoke")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
