"""Tests of the benchmark's own code: the independent computations, the
wrappers' installation and removal, and checks failing on corrupted output.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from dlrmkit import cli, datagen, dense, model, optim, parallel  # noqa: E402
from dlrmkit.dense import RngStream  # noqa: E402

TINY = ("--arch-embedding-size=30-20-25", "--arch-sparse-feature-size=4",
        "--arch-mlp-bot=5-8-4", "--arch-mlp-top=6-1", "--mini-batch-size=8",
        "--num-indices-per-lookup=3", "--data-generation=random",
        "--optimizer=sgd", "--mode=benchmark")
TINY_SYNTH = ("--arch-embedding-size=40-30", "--arch-sparse-feature-size=4",
              "--arch-mlp-bot=13-4", "--arch-mlp-top=4-1",
              "--mini-batch-size=8", "--num-indices-per-lookup=4",
              "--data-generation=synthetic", "--optimizer=adagrad",
              "--mode=train")
TINY_SERIAL = bench.Workload("tiny-serial", TINY, steps=3)
TINY_3DEV = bench.Workload("tiny-3dev", TINY, steps=3, devices=3)
TINY_TRAIN = bench.Workload("tiny-synth", TINY_SYNTH, steps=3)


# ---------------------------------------------------------------------------
# independent forward

def test_reference_loss_hand_case():
    # bottom: relu(2*1 - 1*1 + 0.5) = 1.5; table rows 0 and 2 pool to 4.0;
    # interaction [1.5, 1.5*4.0]; logit 1.5 + 0.5*6.0 - 4.0 = 0.5; label 1
    bottom = [(np.array([[1.0, -1.0]]), np.array([0.5]))]
    top = [(np.array([[1.0, 0.5]]), np.array([-4.0]))]
    table = np.array([[1.0], [2.0], [3.0]])
    loss = checks.reference_loss(
        bottom, top, [table], np.array([[2.0, 1.0]]),
        [(np.array([0, 2]), np.array([0, 2]), None)], np.array([1.0]))
    assert loss == pytest.approx(math.log1p(math.exp(-0.5)), rel=1e-15)


def test_pooled_sums_handles_empty_segments_and_weights():
    table = np.arange(8.0).reshape(4, 2)
    out = checks.pooled_sums(table, [0, 0, 2, 2, 3], [1, 3, 0],
                             [1.0, 2.0, 0.5])
    np.testing.assert_array_equal(
        out, [[0, 0], [2 + 12, 3 + 14], [0, 0], [0, 0.5]])


def test_reference_loss_matches_program_step_loss():
    config, options = cli.parse_args(TINY_SERIAL.argv(seed=4))
    m = model.init_model(config)
    dense_x, sparse, labels = cli.make_source(config, options).next_batch()
    reference = checks.reference_loss(
        [(l.weight, l.bias) for l in m.bottom.layers],
        [(l.weight, l.bias) for l in m.top.layers],
        [t.weights for t in m.tables], dense_x,
        [(s.offsets, s.indices, s.weights) for s in sparse], labels)
    step = parallel.train_step(m, dense_x, sparse, labels, optim.Sgd(0.1))
    assert checks.check_reference_loss(step.loss, reference) == []


# ---------------------------------------------------------------------------
# collective volumes

def test_collective_bytes_hand_case():
    # 2 devices, shards of 2 and 1 samples, table 0 on device 0 and table 1
    # on device 1, d = 2, bottom MLP 3 -> 2, top MLP 3 -> 1
    got = checks.collective_bytes([0, 1], [2, 1], 2, [[3, 2], [3, 1]],
                                  weight_components=6, bias_components=3)
    assert got == {
        "butterfly_shuffle": 1 * 2 * 8 + 2 * 2 * 8,         # 48
        "grad_reverse_shuffle": 48,
        "stat_allreduce": 2 * (5 * 8) + 2 * (4 * 8),        # 144
        "grad_allreduce": 2 * (6 * 6 + 3 * 2) * 8 + 2 * (6 * 3 + 3) * 8,
        "loss_gather": 2 * 1 * 8,
    }


def test_collective_bytes_match_the_trainer_comm_log():
    config, options = cli.parse_args(TINY_3DEV.argv(seed=2))
    plan = parallel.make_plan(config, options.mini_batch_size, 3)
    trainer = parallel.ParallelTrainer(model.init_model(config), plan)
    source = cli.make_source(config, options)
    for _ in range(2):
        trainer.step(*source.next_batch())
    trainer.close()
    expected = checks.collective_bytes(
        plan.table_assignment, [3, 3, 2], config.sparse_dim,
        [config.bottom_mlp_dims, config.top_dims_chain()],
        len(dense.CROSS_TERMS), dense.LEVELS)
    per_step = checks.parse_comm_report(parallel.format_comm_report(
        trainer.comm))
    assert checks.check_comm(per_step, expected, steps=2) == []


# ---------------------------------------------------------------------------
# wrappers

def _references():
    owners = tracer.CALLER_MODULES + tuple(c for c, *_ in tracer.METHODS)
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_every_original():
    before = _references()
    t = tracer.Tracer()
    with t.installed():
        wrapped = tracer.installed_wrappers()
        assert "dlrmkit.model.matmul" in wrapped
        assert "dlrmkit.parallel.mlp_forward" in wrapped
        assert "dlrmkit.cli.train_step" in wrapped
        assert "ParallelTrainer.step" in " ".join(wrapped)
    assert tracer.installed_wrappers() == []
    after = _references()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_round_restores_originals_and_attributes_the_steps():
    before = _references()
    t = tracer.Tracer()
    rnd = bench.run_round(TINY_SERIAL, 1, t)
    assert all(v is before[k] for k, v in _references().items())
    assert t.calls["dense.matmul"] > 0 and t.calls[tracer.STEP] == 3
    assert 0.0 < rnd.covered_s <= rnd.loop_s


@pytest.mark.parametrize("trace", [False, True])
def test_only_traced_rounds_run_with_wrappers(monkeypatch, trace):
    seen = []
    run_benchmark = cli.run_benchmark

    def spy(*args):
        seen.append(bool(tracer.installed_wrappers()))
        return run_benchmark(*args)

    monkeypatch.setattr(cli, "run_benchmark", spy)
    result = bench.run(TINY_SERIAL, 1, 0.0, trace)
    assert result.correct, result.failures
    # traced runs alternate untraced and traced rounds
    assert seen == [trace and r % 2 == 1 for r in range(len(result.rounds))]


def test_untraced_run_never_installs(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracer.Tracer, "installed", refuse)
    result = bench.run(TINY_SERIAL, 1, 0.0, trace=False)
    assert result.correct, result.failures


# ---------------------------------------------------------------------------
# whole runs on tiny configurations

@pytest.mark.parametrize("workload", [TINY_SERIAL, TINY_3DEV, TINY_TRAIN])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_runs_pass_every_check(workload, trace):
    result = bench.run(workload, 3, 0.0, trace)
    assert result.correct, result.failures
    assert result.failed == 0
    assert result.attempted == workload.steps * len(result.rounds)
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert result.metrics.keys() == units.keys()
    assert all(math.isfinite(v) for v, _ in result.metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())


def test_corrupted_program_loss_fails_the_run(monkeypatch):
    run_benchmark = cli.run_benchmark

    def corrupt(*args):
        report, lines = run_benchmark(*args)
        report.records[0]["loss"] = float(np.nextafter(
            report.records[0]["loss"], np.inf))
        return report, lines

    monkeypatch.setattr(cli, "run_benchmark", corrupt)
    result = bench.run(TINY_3DEV, 1, 0.0, trace=False)
    assert not result.correct
    assert result.failed == result.attempted > 0


# ---------------------------------------------------------------------------
# each check fails on a corrupted output

def test_reference_check_fails_beyond_tolerance():
    assert checks.check_reference_loss(0.7, 0.7) == []
    assert checks.check_reference_loss(0.7 * (1 + 1e-8), 0.7)


def test_loss_checks_fail_on_non_finite_or_changed_bits():
    losses = [0.69, 0.68, 0.67]
    assert checks.check_losses([losses, list(losses)]) == []
    assert checks.check_losses([[0.69, math.nan, 0.67]])
    bumped = [0.69, float(np.nextafter(0.68, 1.0)), 0.67]
    assert checks.check_losses([losses, bumped])
    assert checks.check_identical_losses(bumped, losses, "serial")
    assert checks.check_identical_losses(losses[:2], losses, "serial")


def test_comm_check_fails_on_wrong_bytes_or_missing_step():
    expected = {"butterfly_shuffle": 48, "loss_gather": 16}
    good = {0: dict(expected), 1: dict(expected)}
    assert checks.check_comm(good, expected, steps=2) == []
    assert checks.check_comm({0: dict(expected)}, expected, steps=2)
    bad = {0: dict(expected), 1: {**expected, "loss_gather": 24}}
    assert checks.check_comm(bad, expected, steps=2)


def test_profile_check_fails_on_corrupted_profile():
    trace = RngStream(5).integers(0, 50, size=400).tolist()
    profile = datagen.profile_trace(trace)
    args = (trace, profile.uniques, profile.probabilities)
    assert checks.check_bootstrap_profile(*args) == []
    swapped = list(profile.uniques)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.check_bootstrap_profile(trace, swapped,
                                          profile.probabilities)
    shifted = dict(profile.probabilities)
    shifted[0] += 2.0 / len(trace)
    shifted[max(shifted)] -= 2.0 / len(trace)
    assert checks.check_bootstrap_profile(trace, profile.uniques, shifted)
    heavy = dict(profile.probabilities)
    heavy[1] = heavy.get(1, 0.0) + 1e-6
    assert checks.check_bootstrap_profile(trace, profile.uniques, heavy)


def test_index_range_check():
    assert checks.check_index_range([0, 4, 9], 10, "t") == []
    assert checks.check_index_range([0, 10], 10, "t")
    assert checks.check_index_range([-1, 3], 10, "t")


def test_benchmark_json_names_the_measured_workloads_and_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER_UNITS
