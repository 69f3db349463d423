"""The demos run to completion in a fresh interpreter."""

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
    "01_dense_kernels.py", "02_embedding_lookups.py",
    "03_factorization_machine.py", "04_train_dlrm.py",
    "05_synthetic_traces.py", "07_benchmark_cli.py"])
def test_demo_exits_0(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_dense_demo_checks_hold():
    proc = run_demo("01_dense_kernels.py")
    assert proc.returncode == 0, proc.stderr
    for line in ("same seed, same draws: True",
                 "derived substreams differ: True",
                 "full product == stitched shard products: True",
                 "whole-batch buckets equal the shard-by-shard sums bit for "
                 "bit: True"):
        assert line + "\n" in proc.stdout
    assert "False" not in proc.stdout


def test_parallel_demo_matches_serial():
    proc = run_demo("06_parallel_simulation.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("bit-identical to serial -> True") == 3
    assert "False" not in proc.stdout
    # the 4-row batch on 2 devices, tables 1 and 2 owned by device 1
    assert ("device 0 receives: t0[0:2]<-dev0, t1[0:2]<-dev1, "
            "t2[0:2]<-dev1, t3[0:2]<-dev0\n"
            "device 1 receives: t0[2:4]<-dev0, t1[2:4]<-dev1, "
            "t2[2:4]<-dev1, t3[2:4]<-dev0\n") in proc.stdout
