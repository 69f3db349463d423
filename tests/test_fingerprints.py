"""Bit fingerprints of tiny CLI runs.

Each run in ``RUNS`` goes through ``cli.main`` in process with
``--emit=json``, ``--metrics-file``, ``--report-file`` and
``--save-checkpoint``. The sha256 of its metric log, of its checkpoint file
and of its comm report (the report file's lines after the first, which is
the JSON report and holds the wall time) must equal the entry recorded in
``fingerprints.json``, so an unintended change to any bit of training (loss,
accuracy, validation, parameters) or to any collective's bytes fails here
even when serial and N-device runs still agree with each other.

The file also records the numpy and BLAS versions it was made under. A mismatch message names their recorded and current
values, so a changed environment can be told apart from a changed program.

A change that alters bits on purpose rewrites the file and says why:

    PYTHONPATH=src python tests/test_fingerprints.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from dlrmkit import cli

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

BASE = (
    "--arch-embedding-size=23-17-11",
    "--arch-sparse-feature-size=4",
    "--arch-mlp-bot=5-9-4",
    "--arch-mlp-top=7-3-1",
    "--mini-batch-size=12",
    "--num-batches=4",
    "--num-indices-per-lookup=3",
    "--emit=json",
)

# 1, 2 and 3 devices; SGD and Adagrad; random data with fixed and variable
# lookup counts and synthetic data; train mode with validation records.
RUNS = {
    "serial-sgd-random-fixed": (
        "--seed=5", "--num-indices-per-lookup-fixed", "--eval-interval=2",
        "--val-batches=2"),
    "2dev-adagrad-random-variable": (
        "--seed=6", "--num-devices=2", "--optimizer=adagrad",
        "--eval-interval=2", "--val-batches=2"),
    "3dev-sgd-synthetic": (
        "--seed=7", "--num-devices=3", "--data-generation=synthetic",
        "--eval-interval=3", "--val-batches=1"),
    "3dev-adagrad-random-fixed-benchmark": (
        "--seed=8", "--num-devices=3", "--optimizer=adagrad",
        "--num-indices-per-lookup-fixed", "--mode=benchmark"),
    "serial-adagrad-synthetic": (
        "--seed=9", "--optimizer=adagrad", "--data-generation=synthetic"),
}


def environment() -> dict:
    """The settings the bits depend on besides the program."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(workdir: Path) -> dict:
    """Run every entry of RUNS; return name -> metric/checkpoint/comm
    hashes."""
    out = {}
    for name, flags in RUNS.items():
        metrics, checkpoint, report = (workdir / f"{name}.{ext}"
                                       for ext in ("log", "ckpt", "report"))
        code = cli.main([*BASE, *flags, f"--metrics-file={metrics}",
                         f"--report-file={report}",
                         f"--save-checkpoint={checkpoint}"])
        if code != 0:
            raise RuntimeError(f"run {name} exited {code}")
        comm = report.read_bytes().split(b"\n", 1)[1]
        out[name] = {"metrics_sha256": _sha256(metrics),
                     "checkpoint_sha256": _sha256(checkpoint),
                     "comm_sha256": hashlib.sha256(comm).hexdigest()}
    return out


def test_tiny_runs_keep_their_bits(tmp_path, capsys):
    recorded = json.loads(FINGERPRINTS.read_text())
    current = fingerprints(tmp_path)
    capsys.readouterr()     # the runs' own stdout
    assert set(current) == set(recorded["runs"]), "RUNS and the file differ"
    mismatches = [
        f"{name} {key}: recorded {want}, current {current[name][key]}"
        for name, hashes in recorded["runs"].items()
        for key, want in hashes.items() if current[name][key] != want]
    assert not mismatches, (
        "\n".join(mismatches) + f"\nrecorded under {recorded['environment']}"
        f"\ncurrent {environment()}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = fingerprints(Path(tmp))
    FINGERPRINTS.write_text(json.dumps(
        {"environment": environment(), "runs": runs}, indent=2) + "\n")
    print(f"wrote {FINGERPRINTS}", file=sys.stderr)
