"""Property-based check of the determinism contract: a serial
``train_step`` and a ``ParallelTrainer`` on any device count give the same
bits.

Hypothesis draws a small architecture, a batch, a device count (up to two
more devices than samples, so some shards are empty), an optimizer and a
lookup layout (empty segments, repeated rows, weights or none). Each example
trains a few steps serially and on the devices, then requires equal losses
as hex strings, equal parameters as bytes (so -0.0 and NaN count) and
replicas equal to replica 0. The same runs under a GEMM whose output rows
depend on their position in the call check that no product's rows move.
The pooled case runs both with every kernel's independent calls on three
threads, however small; under numpy's GEMM its parameters must also equal
the inline serial ones byte for byte.

A second property replays the command line: two in-process runs of the
same tiny flag set give byte-identical metric lines and comm reports, and
its one-device run gives the metric lines of its N-device run.

The searches are derandomized and keep no example database, so every run
checks the same examples; a failure prints the shrunk ``Case`` or flags.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlrmkit import cli
from dlrmkit.embedding import SparseBatch, offsets_from_lengths
from dlrmkit.model import DlrmConfig, init_model
from dlrmkit.optim import make_optimizer
from dlrmkit.parallel import ParallelTrainer, make_plan, train_step

from conftest import pool_every_call
from oracles import position_skewed_matmul

STEPS = 3


@dataclass(frozen=True)
class Case:
    embedding_sizes: tuple[int, ...]
    sparse_dim: int
    bottom_hidden: tuple[int, ...]
    top_hidden: tuple[int, ...]
    dense_dim: int
    batch: int
    num_devices: int
    optimizer: str
    max_lookups: int
    weighted: bool
    data_seed: int

    def config(self) -> DlrmConfig:
        return DlrmConfig(
            embedding_sizes=list(self.embedding_sizes),
            sparse_dim=self.sparse_dim,
            bottom_mlp_dims=[self.dense_dim, *self.bottom_hidden,
                             self.sparse_dim],
            top_mlp_dims=[*self.top_hidden, 1], seed=self.data_seed)

    def batches(self) -> list:
        """STEPS batches; every segment holds 0..max_lookups lookups."""
        rng = np.random.default_rng(self.data_seed)
        out = []
        for _ in range(STEPS):
            dense = rng.uniform(-1.0, 1.0, (self.batch, self.dense_dim))
            sparse = []
            for rows in self.embedding_sizes:
                lengths = rng.integers(0, self.max_lookups + 1, self.batch)
                nnz = int(lengths.sum())
                weights = (rng.uniform(-2.0, 2.0, nnz) if self.weighted
                           else None)
                sparse.append(SparseBatch(offsets_from_lengths(lengths),
                                          rng.integers(0, rows, nnz),
                                          weights))
            labels = rng.integers(0, 2, self.batch).astype(np.float64)
            out.append((dense, sparse, labels))
        return out


widths = st.integers(1, 19)


@st.composite
def cases(draw) -> Case:
    batch = draw(st.integers(1, 13))
    return Case(
        embedding_sizes=tuple(draw(st.lists(st.integers(1, 12), min_size=1,
                                            max_size=4))),
        sparse_dim=draw(st.sampled_from([1, 2, 3, 8, 9])),
        bottom_hidden=tuple(draw(st.lists(widths, max_size=2))),
        top_hidden=tuple(draw(st.lists(widths, max_size=2))),
        dense_dim=draw(st.integers(1, 6)),
        batch=batch,
        num_devices=draw(st.integers(2, batch + 2)),
        optimizer=draw(st.sampled_from(["sgd", "adagrad"])),
        max_lookups=draw(st.integers(0, 4)),
        weighted=draw(st.booleans()),
        data_seed=draw(st.integers(0, 2 ** 16)))


def param_bytes(bottom, top, tables) -> list[bytes]:
    return ([a.tobytes() for mlp in (bottom, top) for layer in mlp.layers
             for a in (layer.weight, layer.bias)]
            + [t.weights.tobytes() for t in tables])


def serial_params(case: Case) -> list[bytes]:
    model = init_model(case.config())
    opt = make_optimizer(case.optimizer, 0.1)
    for b in case.batches():
        train_step(model, *b, opt)
    return param_bytes(model.bottom, model.top, model.tables)


def check_serial_equals_parallel(case: Case) -> list[bytes]:
    """Serial and parallel training agree; returns the parameter bytes."""
    config, batches = case.config(), case.batches()
    serial = init_model(config)
    opt = make_optimizer(case.optimizer, 0.1)
    serial_losses = [train_step(serial, *b, opt).loss.hex() for b in batches]

    trainer = ParallelTrainer(
        init_model(config), make_plan(config, case.batch, case.num_devices),
        case.optimizer, 0.1)
    losses = [trainer.step(*b).loss.hex() for b in batches]
    assert losses == serial_losses
    want = param_bytes(serial.bottom, serial.top, serial.tables)
    for bottom, top in trainer.replicas:
        assert param_bytes(bottom, top, trainer.tables) == want
    return want


@pytest.mark.parametrize("gemm", ["blas", "position-skewed"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=cases())
def test_serial_and_parallel_steps_agree(gemm, case):
    with pytest.MonkeyPatch.context() as mp:
        if gemm == "position-skewed":
            mp.setattr(np, "matmul", position_skewed_matmul)
        check_serial_equals_parallel(case)


# Fewer examples than the inline case: every pool hand-off of these tiny
# products costs about 50 us, and the pooled kernels' bits are also checked
# call by call in test_dense.py.
@pytest.mark.parametrize("gemm", ["blas", "position-skewed"])
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=cases())
def test_pooled_serial_and_parallel_steps_agree(gemm, case):
    with pytest.MonkeyPatch.context() as mp:
        if gemm == "position-skewed":
            mp.setattr(np, "matmul", position_skewed_matmul)
        pool_every_call(mp)
        params = check_serial_equals_parallel(case)
    if gemm == "blas":
        assert params == serial_params(case)


@st.composite
def cli_flags(draw) -> tuple[list[str], int]:
    """A tiny flag set, without ``--num-devices``, and a device count."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    d = draw(st.sampled_from([1, 2, 4]))
    batch = draw(st.integers(1, 9))
    flags = [
        "--arch-embedding-size=" + "-".join(map(str, sizes)),
        f"--arch-sparse-feature-size={d}",
        f"--arch-mlp-bot=3-{d}",
        "--arch-mlp-top=4-1",
        f"--mini-batch-size={batch}",
        f"--num-indices-per-lookup={draw(st.integers(1, min(sizes + [3])))}",
        f"--num-batches={draw(st.integers(1, 3))}",
        "--optimizer=" + draw(st.sampled_from(["sgd", "adagrad"])),
        "--data-generation=" + draw(st.sampled_from(["random", "synthetic"])),
        "--mode=" + draw(st.sampled_from(["train", "benchmark"])),
        f"--seed={draw(st.integers(0, 2 ** 16))}",
        "--emit=json",
    ]
    return flags, draw(st.integers(1, batch))


def cli_run(flags: list[str]) -> tuple[list[str], str | None]:
    """The metric lines and comm report of one in-process run."""
    config, options = cli.parse_args(flags)
    runner = (cli.run_training if options.mode == "train"
              else cli.run_benchmark)
    report, metric_lines = runner(config, options)
    return metric_lines, report.comm_report


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(drawn=cli_flags())
def test_same_flags_replay_byte_for_byte(drawn):
    flags, num_devices = drawn
    devices = [*flags, f"--num-devices={num_devices}"]
    first = cli_run(devices)
    assert cli_run(devices) == first
    assert cli_run(flags)[0] == first[0]
