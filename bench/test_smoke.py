"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

Run from the root of the repository::

    python -m pytest bench/test_smoke.py

Each run must pass its output checks and print every metric that
``BENCHMARK.json`` declares, with the declared unit. The benchmark must
also refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["geojson-fs-ingest", "citygml-roundtrip", "geojson-index-ingest",
                                      "mixed-search-write"])
def test_tiny_run_checks_outputs_and_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    assert report["end_to_end"]["error_rate"]["value"] == 0
    assert report["end_to_end"]["disk_bytes_per_input_byte"]["value"] >= 0
    assert report["input"]["input_bytes"] > 0 and report["input"]["features"] > 0
    assert not (ROOT / ".bench_tmp").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
