"""The demos run to completion in a fresh interpreter (all but demo 03,
which takes far longer than the rest)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("name", [
    "01_dense_kernels.py", "02_embedding_lookups.py", "04_train_dlrm.py",
    "05_synthetic_traces.py", "07_benchmark_cli.py"])
def test_demo_exits_0(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_parallel_demo_matches_serial():
    proc = run_demo("06_parallel_simulation.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("bit-identical to serial -> True") == 3
    assert "False" not in proc.stdout
