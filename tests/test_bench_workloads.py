"""The benchmark's two training workloads run one round and pass their checks.

Each runs on a copy of ``bench/``, ``src/`` and ``BENCHMARK.json``, as the
benchmark is run on a fresh checkout, so a change to what toy-train or
paper-train calls, or to toy-train's "epochs are byte-identical" check,
fails here and not only when the benchmark runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["toy-train", "paper-train"])
def test_training_workload_round_passes_its_checks(tmp_path, workload):
    ignore = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
