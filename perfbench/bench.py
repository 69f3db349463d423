"""Workloads, timed rounds, correctness checks and metrics.

A run repeats whole rounds for its time budget. A round is one call into the
program, ``cli.parse_args`` then ``cli.run_benchmark`` or
``cli.run_training`` as ``dlrmkit`` itself does, with the workload's flags and
a fixed step count. Every round of a run has the same seed and flags, so every
round must reproduce the first round's losses bit for bit.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from dlrmkit import cli, datagen, dense, model, parallel

import checks
from tracer import BATCH, Tracer, replaced

DESK_FLAGS = (
    "--arch-embedding-size=" + "-".join(["10000"] * 8),
    "--arch-sparse-feature-size=64",
    "--arch-mlp-bot=512-512-64",
    "--arch-mlp-top=1024-1024-1024-1",
    "--mini-batch-size=256",
    "--num-indices-per-lookup=100",
    "--data-generation=random",
    "--optimizer=sgd",
    "--mode=benchmark",
)

# Desk-sized MLPs: with 13-32-16 and 32-1 a step was almost only interpreted
# Python, whose speed on a shared host drifts too much for a steady
# samples_per_s; bootstrap profiling still dominates setup_s.
SYNTH_FLAGS = (
    "--arch-embedding-size=500-500-500-500",
    "--arch-sparse-feature-size=64",
    "--arch-mlp-bot=13-512-512-64",
    "--arch-mlp-top=1024-1024-1024-1",
    "--mini-batch-size=128",
    "--num-indices-per-lookup=16",
    "--data-generation=synthetic",
    "--optimizer=adagrad",
    "--mode=train",
)


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    steps: int              # --num-batches of one round
    devices: int = 1

    def argv(self, seed: int, devices: int | None = None) -> list[str]:
        devices = self.devices if devices is None else devices
        extra = [f"--num-devices={devices}"] if devices > 1 else []
        return [*self.flags, *extra, f"--num-batches={self.steps}",
                f"--seed={seed}"]


WORKLOADS = {w.name: w for w in (
    Workload("desk-serial", DESK_FLAGS, steps=4),
    Workload("desk-4dev", DESK_FLAGS, steps=4, devices=4),
    Workload("synth-train", SYNTH_FLAGS, steps=8),
)}

END_TO_END_UNITS = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

COLLECTIVES = ("butterfly_shuffle", "grad_reverse_shuffle", "stat_allreduce",
               "grad_allreduce", "loss_gather")

PER_LAYER_UNITS = {
    "step.wall_ms": "ms",
    "step.unattributed_ms": "ms",
    "step.attributed_pct": "%",
    "dense.matmul_ms": "ms",
    "dense.matmul_gflops": "GFLOP/s",
    "dense.exact_reduce_ms": "ms",
    "model.mlp_ms": "ms",
    "model.interact_ms": "ms",
    "model.loss_ms": "ms",
    "embedding.lookup_ms": "ms",
    "embedding.backward_ms": "ms",
    "embedding.lookups": "count",
    "embedding.unique_rows": "count",
    "optim.dense_ms": "ms",
    "optim.sparse_ms": "ms",
    "optim.rows_updated": "count",
    "parallel.shuffle_ms": "ms",
    "parallel.allreduce_ms": "ms",
    **{f"parallel.bytes.{c}": "B" for c in COLLECTIVES},
    "datagen.profile_s": "s",
    "datagen.bootstrap_accesses": "count",
    "datagen.batch_ms": "ms",
    "datagen.generate_ms": "ms",
    "setup.init_model_s": "s",
    "proc.minor_faults": "count",
    "proc.sys_ms": "ms",
    "trace.overhead_pct": "%",
}

# layer metric -> tracer layers whose self time it sums, per step
STEP_LAYERS = {
    "dense.matmul_ms": ("dense.matmul",),
    "dense.exact_reduce_ms": ("dense.exact_reduce",),
    "model.mlp_ms": ("model.mlp",),
    "model.interact_ms": ("model.interact",),
    "model.loss_ms": ("model.loss",),
    "embedding.lookup_ms": ("embedding.lookup",),
    "embedding.backward_ms": ("embedding.backward",),
    "optim.dense_ms": ("optim.dense",),
    "optim.sparse_ms": ("optim.sparse",),
    "parallel.shuffle_ms": ("parallel.shuffle",),
    "parallel.allreduce_ms": ("parallel.allreduce",),
}


@dataclass
class Round:
    setup_s: float          # call into the program until the step loop starts
    loop_s: float           # the whole step loop, first step included
    samples: int
    losses: list[float]
    comm_report: str | None
    covered_s: float | None = None      # traced rounds: loop time in spans

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.loop_s


@dataclass
class Result:
    rounds: list[Round] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


def run_round(workload: Workload, seed: int, tracer: Tracer | None = None
              ) -> Round:
    """One call into the program; setup is the time before its step loop."""
    with tracer.installed() if tracer is not None else nullcontext():
        t_call = time.perf_counter()
        config, options = cli.parse_args(workload.argv(seed))
        runner = (cli.run_benchmark if options.mode == "benchmark"
                  else cli.run_training)
        report, _ = runner(config, options)
        t_return = time.perf_counter()
    # the loop ends just before the call returns (only the comm report is
    # formatted after it), so it started wall_seconds before the return
    loop_start = t_return - report.wall_seconds
    train = [r for r in report.records if r["split"] == "train"]
    return Round(
        setup_s=loop_start - t_call,
        loop_s=report.wall_seconds,
        samples=len(train) * options.mini_batch_size,
        losses=[r["loss"] for r in train],
        comm_report=report.comm_report,
        covered_s=(tracer.covered_s(loop_start, t_return)
                   if tracer is not None else None),
    )


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Whole rounds until the next one would end past ``seconds``.

    With ``trace`` the rounds alternate untraced and traced, so the tracing
    overhead is measured under the same conditions as the spans.
    """
    result = Result()
    tracer = Tracer() if trace else None
    min_rounds = 4 if trace else 3
    start = time.perf_counter()
    while True:
        traced = trace and len(result.rounds) % 2 == 1
        result.attempted += workload.steps
        try:
            result.rounds.append(
                run_round(workload, seed, tracer if traced else None))
        except Exception:
            traceback.print_exc()
            result.failures.append(
                f"round {len(result.rounds)} raised; see the traceback")
            break
        result.traced.append(traced)
        elapsed = time.perf_counter() - start
        done = len(result.rounds)
        if done >= min_rounds and elapsed * (done + 1) / done > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if result.rounds:
        result.failures += checks.check_losses([r.losses for r in result.rounds])
        try:
            result.failures += check_pass(workload, seed, result.rounds)
        except Exception:
            traceback.print_exc()
            result.failures.append("the check pass raised; see the traceback")
    if result.failures:
        result.failed = result.attempted
    if not result.rounds or (trace and not any(result.traced)):
        return result
    if trace:
        result.metrics = layer_metrics(result, tracer)
    else:
        result.metrics = {
            "samples_per_s": statistics.median(
                r.samples_per_s for r in result.rounds),
            "setup_s": statistics.median(r.setup_s for r in result.rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result.metrics = {k: (result.metrics[k], u) for k, u in units.items()}
    return result


# ---------------------------------------------------------------------------
# checks against independent computations and required properties

def check_pass(workload: Workload, seed: int, rounds: list[Round]) -> list[str]:
    """Rebuild the run's inputs and check the first round against them."""
    failures = []
    config, options = cli.parse_args(workload.argv(seed))
    first = rounds[0]
    if len(first.losses) != workload.steps:
        failures.append(f"round 0 logged {len(first.losses)} steps, "
                        f"expected {workload.steps}")

    # the data source of the run, with its bootstrap profiles captured
    bootstraps = []
    profile_trace = datagen.profile_trace

    def capture(trace):
        profile = profile_trace(trace)
        bootstraps.append((list(trace), profile))
        return profile

    with replaced(profile_trace, capture):
        source = cli.make_source(config, options, key=0)
    batches = [source.next_batch() for _ in range(workload.steps)]
    for s, (_, sparse, _) in enumerate(batches):
        for t, sb in enumerate(sparse):
            failures += checks.check_index_range(
                sb.indices, config.embedding_sizes[t], f"batch {s} table {t}")
    if options.data_generation == "synthetic" and not options.synthetic_profiles:
        if len(bootstraps) != config.num_tables:
            failures.append(f"{len(bootstraps)} bootstrap profiles for "
                            f"{config.num_tables} tables")
        for t, (trace, profile) in enumerate(bootstraps):
            failures += [f"table {t} bootstrap profile: {msg}" for msg in
                         checks.check_bootstrap_profile(
                             trace, profile.uniques, profile.probabilities)]

    initial = model.init_model(config)
    dense_x, sparse, labels = batches[0]
    reference = checks.reference_loss(
        [(l.weight, l.bias) for l in initial.bottom.layers],
        [(l.weight, l.bias) for l in initial.top.layers],
        [t.weights for t in initial.tables], dense_x,
        [(sb.offsets, sb.indices, sb.weights) for sb in sparse], labels)
    if first.losses:
        failures += checks.check_reference_loss(first.losses[0], reference)

    if options.num_devices > 1:
        failures += check_parallel(workload, seed, config, options, initial,
                                   batches[0], rounds)
    return failures


def check_parallel(workload, seed, config, options, initial, batch0,
                   rounds) -> list[str]:
    """Serial equivalence, replica agreement and collective volumes."""
    failures = []
    serial_config, serial_options = cli.parse_args(workload.argv(seed, 1))
    runner = (cli.run_benchmark if serial_options.mode == "benchmark"
              else cli.run_training)
    serial_report, _ = runner(serial_config, serial_options)
    serial_losses = [r["loss"] for r in serial_report.records
                     if r["split"] == "train"]
    failures += checks.check_identical_losses(
        rounds[0].losses, serial_losses, "the serial run")

    plan = parallel.make_plan(config, options.mini_batch_size,
                              options.num_devices)
    expected = checks.collective_bytes(
        plan.table_assignment,
        [hi - lo for lo, hi in zip(plan.shard_bounds, plan.shard_bounds[1:])],
        config.sparse_dim,
        [list(config.bottom_mlp_dims), config.top_dims_chain()],
        len(dense.CROSS_TERMS), dense.LEVELS)
    for r, rnd in enumerate(rounds):
        failures += [f"round {r}: {msg}" for msg in checks.check_comm(
            checks.parse_comm_report(rnd.comm_report or ""), expected,
            len(rnd.losses))]

    trainer = parallel.ParallelTrainer(initial, plan, options.optimizer,
                                       options.learning_rate)
    try:
        step = trainer.step(*batch0)
    finally:
        trainer.close()
    failures += checks.check_identical_losses(
        [step.loss], rounds[0].losses[:1], "a separate parallel trainer")
    divergence = trainer.max_replica_divergence()
    if divergence != 0.0:
        failures.append(f"replicas diverge by {divergence!r} after one step")
    return failures


# ---------------------------------------------------------------------------
# per-layer metrics of the traced rounds

def layer_metrics(result: Result, tracer: Tracer) -> dict[str, float]:
    traced = [r for r, t in zip(result.rounds, result.traced) if t]
    plain = [r for r, t in zip(result.rounds, result.traced) if not t]
    steps = sum(len(r.losses) for r in traced)
    loop_s = sum(r.loop_s for r in traced)
    covered_s = sum(r.covered_s for r in traced)
    per_step_ms = {
        name: 1000.0 * sum(tracer.self_s[l] for l in layers) / steps
        for name, layers in STEP_LAYERS.items()
    }
    comm = {c: 0 for c in COLLECTIVES}
    for r in traced:
        for totals in checks.parse_comm_report(r.comm_report or "").values():
            for c, nbytes in totals.items():
                comm[c] += nbytes
    batches = tracer.calls[BATCH]
    matmul_s = tracer.self_s["dense.matmul"]
    return {
        "step.wall_ms": 1000.0 * loop_s / steps,
        "step.unattributed_ms": 1000.0 * (loop_s - covered_s) / steps,
        "step.attributed_pct": 100.0 * covered_s / loop_s,
        **per_step_ms,
        "dense.matmul_gflops": (tracer.counts["flops"] / matmul_s / 1e9
                                if matmul_s else 0.0),
        "embedding.lookups": tracer.counts["embedding.lookups"] / steps,
        "embedding.unique_rows": tracer.counts["embedding.unique_rows"] / steps,
        "optim.rows_updated": tracer.counts["optim.rows_updated"] / steps,
        **{f"parallel.bytes.{c}": comm[c] / steps for c in COLLECTIVES},
        "datagen.profile_s": tracer.total_s["datagen.profile"] / len(traced),
        "datagen.bootstrap_accesses": (
            tracer.counts["datagen.bootstrap_accesses"] / len(traced)),
        "datagen.batch_ms": 1000.0 * tracer.total_s[BATCH] / batches,
        "datagen.generate_ms": (
            1000.0 * tracer.total_s["datagen.generate"] / batches),
        "setup.init_model_s": tracer.total_s["setup.init_model"] / len(traced),
        "proc.minor_faults": tracer.counts["proc.minor_faults"] / steps,
        "proc.sys_ms": 1000.0 * tracer.counts["proc.sys_s"] / steps,
        "trace.overhead_pct": 100.0 * (
            statistics.median(r.samples_per_s for r in plain)
            / statistics.median(r.samples_per_s for r in traced) - 1.0),
    }


def result_json(result: Result) -> dict:
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items()},
    }
