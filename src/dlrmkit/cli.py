"""Command-line entry point: parse benchmark flags, build configs, run the
training loop, emit metric logs and per-operator profiling.

Flag syntax follows the dash-separated-list convention
(``--arch-mlp-bot=512-512-64``). Both modes run one loop with the same
flags: ``--mode=train`` draws each batch inside the timed loop,
``--mode=benchmark`` draws them all before the clock starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .dense import RngStream, matmul_tile_rows
from .datagen import (
    RandomDataSpec,
    TraceGenerator,
    adjust_distribution,
    default_first_touch_floor,
    gen_dense_batch,
    gen_sparse_batch,
    load_profile,
    profile_trace,
    read_criteo,
)
from .embedding import SparseBatch, offsets_from_lengths
from .model import (
    DlrmConfig,
    DlrmModel,
    bce_from_logits,
    dlrm_forward,
    init_model,
)
from .optim import make_optimizer
from .parallel import ParallelTrainer, format_comm_report, make_plan, train_step
from .timing import NullTimer, StageTimer

__all__ = [
    "CliError",
    "RunOptions",
    "RunReport",
    "parse_args",
    "config_to_args",
    "run_training",
    "run_benchmark",
    "save_checkpoint",
    "load_checkpoint",
    "main",
]

CHECKPOINT_MAGIC = "DLRMKIT1"


class CliError(ValueError):
    """Configuration constraint violation; message names the constraint."""


# ---------------------------------------------------------------------------
# options and parsing

@dataclass
class RunOptions:
    mode: str = "train"
    data_generation: str = "random"
    mini_batch_size: int = 128
    num_batches: int = 10
    num_indices_per_lookup: int = 4
    num_indices_per_lookup_fixed: bool = False
    enable_profiling: bool = False
    optimizer: str = "sgd"
    learning_rate: float = 0.1
    num_devices: int = 1
    criteo_path: str | None = None
    criteo_val_path: str | None = None
    vocab_sizes: list[int] | None = None
    emit: str = "text"
    eval_interval: int = 0
    val_batches: int = 0
    save_checkpoint: str | None = None
    load_checkpoint: str | None = None
    synthetic_profiles: str | None = None
    first_touch_boost: float = 10.0
    metrics_file: str | None = None
    report_file: str | None = None
    use_gpu: bool = False


def _dash_ints(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split("-")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected dash-separated integers, got {text!r}"
        )
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"list entries must be positive integers, got {text!r}"
        )
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dlrmkit",
        description="recommendation-model kernel benchmark and trainer",
        exit_on_error=False,
    )
    p.add_argument("--arch-embedding-size", type=_dash_ints, default=[8, 8],
                   help="rows per embedding table, dash-separated")
    p.add_argument("--arch-sparse-feature-size", type=int, default=4)
    p.add_argument("--arch-mlp-bot", type=_dash_ints, default=[4, 8, 4],
                   help="bottom MLP dims incl. dense input width")
    p.add_argument("--arch-mlp-top", type=_dash_ints, default=[8, 4, 1],
                   help="top MLP dims excl. derived input width")
    p.add_argument("--data-generation", default="random",
                   choices=["random", "synthetic", "criteo"])
    p.add_argument("--mini-batch-size", type=int, default=128)
    p.add_argument("--num-batches", type=int, default=10)
    p.add_argument("--num-indices-per-lookup", type=int, default=4)
    p.add_argument("--num-indices-per-lookup-fixed", action="store_true")
    p.add_argument("--enable-profiling", action="store_true")
    p.add_argument("--optimizer", default="sgd", choices=["sgd", "adagrad"])
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-devices", type=int, default=1)
    p.add_argument("--criteo-path", default=None)
    p.add_argument("--criteo-val-path", default=None)
    p.add_argument("--vocab-sizes", type=_dash_ints, default=None,
                   help="hash moduli per categorical feature (criteo)")
    p.add_argument("--emit", default="text", choices=["json", "text"])
    p.add_argument("--mode", default="train", choices=["train", "benchmark"])
    p.add_argument("--eval-interval", type=int, default=0)
    p.add_argument("--val-batches", type=int, default=0)
    p.add_argument("--save-checkpoint", default=None)
    p.add_argument("--load-checkpoint", default=None)
    p.add_argument("--synthetic-profiles", default=None,
                   help="directory of per-table trace profiles "
                        "(table_<i>.profile); bootstrapped when absent")
    p.add_argument("--first-touch-boost", type=float, default=10.0)
    p.add_argument("--metrics-file", default=None)
    p.add_argument("--report-file", default=None)
    p.add_argument("--use-gpu", action="store_true",
                   help="accepted for command-line compatibility; ignored")
    return p


def parse_args(argv) -> tuple[DlrmConfig, RunOptions]:
    ns = build_parser().parse_args(argv)
    if ns.arch_mlp_bot[-1] != ns.arch_sparse_feature_size:
        raise CliError(
            f"--arch-mlp-bot last dim ({ns.arch_mlp_bot[-1]}) must equal "
            f"--arch-sparse-feature-size ({ns.arch_sparse_feature_size})"
        )
    if ns.arch_mlp_top[-1] != 1:
        raise CliError(
            f"--arch-mlp-top must end in 1, got {ns.arch_mlp_top[-1]}"
        )
    try:
        config = DlrmConfig(
            embedding_sizes=ns.arch_embedding_size,
            sparse_dim=ns.arch_sparse_feature_size,
            bottom_mlp_dims=ns.arch_mlp_bot,
            top_mlp_dims=ns.arch_mlp_top,
            seed=ns.seed,
        )
    except ValueError as e:
        raise CliError(str(e)) from e
    # every RunOptions field is the destination of the flag of that name
    options = RunOptions(**{f.name: getattr(ns, f.name)
                            for f in dataclasses.fields(RunOptions)})
    _validate(config, options)
    return config, options


def _validate(config: DlrmConfig, options: RunOptions) -> None:
    if options.mini_batch_size < 1:
        raise CliError("--mini-batch-size must be positive")
    if options.num_batches < 0:
        raise CliError("--num-batches must be nonnegative")
    if options.num_devices < 1:
        raise CliError("--num-devices must be >= 1")
    if options.num_devices > options.mini_batch_size:
        raise CliError(
            f"--num-devices ({options.num_devices}) must not exceed "
            f"--mini-batch-size ({options.mini_batch_size})"
        )
    for flag, value in (("--learning-rate", options.learning_rate),
                        ("--first-touch-boost", options.first_touch_boost)):
        if not math.isfinite(value) or value < 0:
            raise CliError(f"{flag} must be finite and nonnegative, "
                           f"got {value}")
    for flag, value in (("--eval-interval", options.eval_interval),
                        ("--val-batches", options.val_batches)):
        if value < 0:
            raise CliError(f"{flag} must be nonnegative, got {value}")
    has_validation = options.val_batches > 0 or (
        options.data_generation == "criteo" and options.criteo_val_path)
    if options.eval_interval and not has_validation:
        raise CliError("--eval-interval needs validation data: set "
                       "--val-batches (or --criteo-val-path in criteo mode)")
    if options.data_generation in ("random", "synthetic"):
        k = options.num_indices_per_lookup
        if k < 1:
            raise CliError("--num-indices-per-lookup must be positive")
        smallest = min(config.embedding_sizes)
        if k > smallest:
            raise CliError(
                f"--num-indices-per-lookup ({k}) exceeds the smallest "
                f"--arch-embedding-size entry ({smallest})"
            )
    if options.data_generation == "criteo":
        if options.criteo_path is None:
            raise CliError("--data-generation=criteo requires --criteo-path")
        if config.num_tables != 26 or config.dense_dim != 13:
            raise CliError(
                "criteo data needs 26 embedding tables and a 13-wide dense "
                f"input, config has {config.num_tables} tables and dense "
                f"width {config.dense_dim}"
            )
        vocab = options.vocab_sizes or config.embedding_sizes
        if len(vocab) != 26:
            raise CliError("--vocab-sizes must list 26 entries")
        if any(v > m for v, m in zip(vocab, config.embedding_sizes)):
            raise CliError(
                "--vocab-sizes entries must not exceed the table sizes"
            )


def config_to_args(config: DlrmConfig, options: RunOptions) -> list[str]:
    """Serialize back to a flag list; parse_args of the result round-trips.

    Every RunOptions field is written as the flag of that name: booleans
    as bare flags when set, lists joined with dashes, ``None`` omitted.
    """
    def dashes(values):
        return "-".join(str(v) for v in values)

    argv = [
        f"--arch-embedding-size={dashes(config.embedding_sizes)}",
        f"--arch-sparse-feature-size={config.sparse_dim}",
        f"--arch-mlp-bot={dashes(config.bottom_mlp_dims)}",
        f"--arch-mlp-top={dashes(config.top_mlp_dims)}",
        f"--seed={config.seed}",
    ]
    for f in dataclasses.fields(RunOptions):
        flag, value = "--" + f.name.replace("_", "-"), getattr(options, f.name)
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            argv.append(f"{flag}={dashes(value)}")
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


# ---------------------------------------------------------------------------
# data sources

class _RandomSource:
    """Random-mode batches; generation is independent of device count."""

    stream_key = 10

    def __init__(self, config: DlrmConfig, options: RunOptions, key: int):
        self.spec = RandomDataSpec(
            batch_size=options.mini_batch_size,
            dense_dim=config.dense_dim,
            table_sizes=list(config.embedding_sizes),
            indices_per_lookup=options.num_indices_per_lookup,
            indices_fixed=options.num_indices_per_lookup_fixed,
        )
        self.stream = RngStream(config.seed).derive(self.stream_key, key)

    def _sparse(self, t: int) -> SparseBatch:
        return gen_sparse_batch(self.spec, t, self.stream)

    def next_batch(self):
        dense = gen_dense_batch(self.spec, self.stream)
        sparse = [self._sparse(t) for t in range(len(self.spec.table_sizes))]
        labels = (self.stream.uniform(1, self.spec.batch_size)[0]
                  < 0.5).astype(np.float64)
        return dense, sparse, labels


class _SyntheticSource(_RandomSource):
    """Synthetic-mode batches: per-table trace generators drive the indices.

    Profiles come from --synthetic-profiles when given; otherwise each table
    bootstraps one from a random trace (two-phase behavior). Profiles are
    adjusted with the first-touch floor before generation.
    """

    stream_key = 11

    def __init__(self, config: DlrmConfig, options: RunOptions, key: int):
        super().__init__(config, options, key)
        planned = max(1, int(options.num_batches * options.mini_batch_size
                             * self.spec.mean_lookups()))
        self.generators = []
        for t, m in enumerate(config.embedding_sizes):
            if options.synthetic_profiles:
                path = f"{options.synthetic_profiles}/table_{t}.profile"
                try:
                    profile = load_profile(path)
                except ValueError as e:
                    raise CliError(f"{path}: {e}") from e
                if profile.uniques and max(profile.uniques) >= m:
                    raise CliError(
                        f"{path}: profile for table {t} references id "
                        f"{max(profile.uniques)} outside [0, {m})"
                    )
            else:
                # long enough relative to m that repeat distances get mass;
                # the cap bounds bootstrap memory and time on long runs
                boot_len = min(max(planned, 4 * m, 64), 100000)
                boot = self.stream.integers(0, m, size=boot_len)
                profile = profile_trace(boot.tolist())
            adjusted = adjust_distribution(profile, default_first_touch_floor(
                profile, planned, options.first_touch_boost))
            self.generators.append(TraceGenerator(adjusted, self.stream))

    def _sparse(self, t: int) -> SparseBatch:
        lengths = self.spec.draw_lengths(self.stream)
        ids = self.generators[t].next(int(lengths.sum()))
        return SparseBatch(offsets_from_lengths(lengths),
                           np.array(ids, dtype=np.int64))


class _CriteoSource:
    """Batched tab-separated click-log records."""

    def __init__(self, config: DlrmConfig, options: RunOptions, path: str):
        self.config = config
        self.batch_size = options.mini_batch_size
        self.vocab = options.vocab_sizes or config.embedding_sizes
        self.path = path
        self._iter = read_criteo(path, self.vocab)

    def _next_record(self):
        """The next record, wrapping around at the end of the file; a
        malformed or empty file raises CliError naming it."""
        try:
            s = next(self._iter, None)
            if s is None:
                self._iter = read_criteo(self.path, self.vocab)
                s = next(self._iter, None)
        except ValueError as e:     # CriteoFormatError, undecodable bytes
            raise CliError(f"{self.path}: {e}") from e
        if s is None:
            raise CliError(f"{self.path}: no records")
        return s

    def next_batch(self):
        rows, cats, labels = [], [], []
        for _ in range(self.batch_size):
            s = self._next_record()
            rows.append(s.dense)
            cats.append(s.categorical)
            labels.append(float(s.label))
        dense = np.stack(rows)
        cats = np.stack(cats)
        sparse = [
            SparseBatch(np.arange(self.batch_size + 1, dtype=np.int64),
                        cats[:, t].astype(np.int64))
            for t in range(26)
        ]
        return dense, sparse, np.array(labels)


def make_source(config: DlrmConfig, options: RunOptions, key: int = 0,
                validation: bool = False):
    if validation and options.data_generation == "criteo":
        return _CriteoSource(config, options, options.criteo_val_path)
    if options.data_generation == "random":
        return _RandomSource(config, options, key)
    if options.data_generation == "synthetic":
        return _SyntheticSource(config, options, key)
    return _CriteoSource(config, options, options.criteo_path)


# ---------------------------------------------------------------------------
# reports and metric logs

@dataclass
class RunReport:
    records: list[dict] = field(default_factory=list)
    operator_seconds: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    profiling_enabled: bool = False
    comm_report: str | None = None

    def attributed_fraction(self) -> float:
        if self.wall_seconds <= 0.0:
            return 1.0
        return sum(self.operator_seconds.values()) / self.wall_seconds

    def ranked_operators(self) -> list[tuple[str, float]]:
        return sorted(self.operator_seconds.items(), key=lambda kv: -kv[1])


def format_metric_record(record: dict, emit: str) -> str:
    if emit == "json":
        return json.dumps(record, sort_keys=True)
    return ("iteration {iteration} split {split} loss {loss:.6f} "
            "accuracy {accuracy:.6f}".format(**record))


def format_report(report: RunReport, emit: str) -> str:
    if emit == "json":
        payload = {
            "wall_seconds": report.wall_seconds,
            "profiling_enabled": report.profiling_enabled,
            "num_records": len(report.records),
            "matmul_tile_rows": matmul_tile_rows(),
        }
        if report.profiling_enabled:
            payload["operator_seconds"] = dict(report.ranked_operators())
            payload["attributed_fraction"] = report.attributed_fraction()
        return json.dumps(payload, sort_keys=True)
    lines = [f"wall clock: {report.wall_seconds:.4f} s over "
             f"{len(report.records)} records",
             f"matmul tile rows: {matmul_tile_rows()}"]
    if report.profiling_enabled:
        lines.append("operator                seconds    share")
        for name, secs in report.ranked_operators():
            share = secs / report.wall_seconds if report.wall_seconds else 0.0
            lines.append(f"{name:<22} {secs:>9.4f} {share:>8.2%}")
        lines.append(f"attributed: {report.attributed_fraction():.2%} of wall")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkpoints

def _config_digest(config: DlrmConfig) -> str:
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _named_params(model: DlrmModel):
    """(archive name, parameter array) pairs in archive order."""
    for name, mlp in (("bottom", model.bottom), ("top", model.top)):
        for l, layer in enumerate(mlp.layers):
            yield f"{name}_w_{l}", layer.weight
            yield f"{name}_b_{l}", layer.bias
    for t, table in enumerate(model.tables):
        yield f"table_{t}", table.weights


def save_checkpoint(path: str, model: DlrmModel) -> None:
    """Text header (magic, version, config digest) + npz parameter payload.

    The file is written beside ``path`` under a temporary name and then
    renamed over it, so a failed save leaves any earlier checkpoint intact.
    """
    arrays = {
        "config_json": np.frombuffer(
            json.dumps(dataclasses.asdict(model.config),
                       sort_keys=True).encode("ascii"), dtype=np.uint8),
        **dict(_named_params(model)),
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(f"{CHECKPOINT_MAGIC} v1 {_config_digest(model.config)}\n"
                    .encode("ascii"))
            buf = io.BytesIO()
            np.savez(buf, **arrays)
            f.write(buf.getvalue())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> DlrmModel:
    """Parameters from a checkpoint file; a file that is not a complete,
    readable checkpoint raises CliError naming ``path``."""
    try:
        return _read_checkpoint(path)
    except CliError:
        raise
    except (EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as e:
        raise CliError(f"{path}: unreadable checkpoint "
                       f"({type(e).__name__}: {e})") from e


def _read_checkpoint(path: str) -> DlrmModel:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", "replace").split()
        if len(header) != 3 or header[0] != CHECKPOINT_MAGIC:
            raise CliError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        if header[1] != "v1":
            raise CliError(
                f"{path}: unsupported checkpoint version {header[1]}")
        payload = np.load(io.BytesIO(f.read()))
    if not isinstance(payload, np.lib.npyio.NpzFile):
        raise ValueError("payload is not an npz archive")
    cfg_dict = json.loads(bytes(payload["config_json"]).decode("ascii"))
    config = DlrmConfig(**cfg_dict)
    if _config_digest(config) != header[2]:
        raise CliError(f"{path}: checkpoint config digest mismatch")
    model = init_model(config)
    for name, param in _named_params(model):
        value = payload[name]
        if value.shape != param.shape:
            raise ValueError(f"array {name} has shape {value.shape}, "
                             f"expected {param.shape}")
        param[...] = value
    return model


# ---------------------------------------------------------------------------
# runs

def _build_model(config: DlrmConfig, options: RunOptions) -> DlrmModel:
    if options.load_checkpoint:
        model = load_checkpoint(options.load_checkpoint)
        # seed is a run parameter, not architecture; everything else must match
        if dataclasses.replace(model.config, seed=config.seed) != config:
            raise CliError(
                "checkpoint architecture does not match the command-line "
                "config"
            )
        return model
    return init_model(config)


def _evaluate(model: DlrmModel, eval_batches) -> tuple[float, float]:
    losses, correct, total = [], 0, 0
    for dense, sparse, labels in eval_batches:
        prob, logits = dlrm_forward(model, dense, sparse)
        losses.append(bce_from_logits(logits, labels))
        correct += int(np.sum((prob > 0.5) == (labels > 0.5)))
        total += labels.shape[0]
    per_all = np.concatenate(losses)
    return float(per_all.mean()), correct / total


def _eval_batches(config: DlrmConfig, options: RunOptions) -> list:
    if options.criteo_val_path and options.data_generation == "criteo":
        source = make_source(config, options, validation=True)
        count = max(1, options.val_batches)
    elif options.val_batches > 0:
        source = make_source(config, options, key=1)
        count = options.val_batches
    else:
        return []
    return [source.next_batch() for _ in range(count)]


def _run(config: DlrmConfig, options: RunOptions,
         pregenerate: bool) -> tuple[RunReport, list[str]]:
    """The step loop of both modes: one metric record per iteration,
    validation records every --eval-interval iterations, and the trained
    parameters saved to --save-checkpoint. Batches are either drawn before
    the clock starts or drawn per step under the ``datagen`` section. The
    options are checked as ``parse_args`` checks them, so a library caller
    gets the same ``CliError``."""
    _validate(config, options)
    model = _build_model(config, options)
    source = make_source(config, options, key=0)
    batches = ([source.next_batch() for _ in range(options.num_batches)]
               if pregenerate else None)
    eval_batches = _eval_batches(config, options)

    timer = StageTimer() if options.enable_profiling else NullTimer()
    report = RunReport(profiling_enabled=options.enable_profiling)
    metric_lines: list[str] = []
    # the trainer, if any, trains ``model`` in place
    trainer = None
    if options.num_devices > 1:
        plan = make_plan(config, options.mini_batch_size, options.num_devices)
        trainer = ParallelTrainer(model, plan, options.optimizer,
                                  options.learning_rate)
        step = trainer.step
    else:
        step = functools.partial(train_step, model, optimizer=make_optimizer(
            options.optimizer, options.learning_rate))

    def record(it: int, split: str, loss: float, accuracy: float):
        rec = {"iteration": it, "split": split, "loss": loss,
               "accuracy": accuracy}
        report.records.append(rec)
        metric_lines.append(format_metric_record(rec, options.emit))

    t0 = time.perf_counter()
    for it in range(options.num_batches):
        if batches is None:
            with timer.section("datagen"):
                dense, sparse, labels = source.next_batch()
        else:
            dense, sparse, labels = batches[it]
        result = step(dense, sparse, labels, timer=timer)
        record(it, "train", result.loss, result.accuracy)
        if (options.eval_interval and eval_batches
                and (it + 1) % options.eval_interval == 0):
            record(it, "validation", *_evaluate(model, eval_batches))
    report.wall_seconds = time.perf_counter() - t0
    if options.enable_profiling:
        report.operator_seconds = dict(timer.seconds)
    if trainer is not None:
        report.comm_report = format_comm_report(trainer.comm)
    if options.save_checkpoint:
        save_checkpoint(options.save_checkpoint, model)
    return report, metric_lines


def run_training(config: DlrmConfig,
                 options: RunOptions) -> tuple[RunReport, list[str]]:
    """Train over the selected source, drawing each batch inside the timed
    loop. Deterministic per seed."""
    return _run(config, options, pregenerate=False)


def run_benchmark(config: DlrmConfig,
                  options: RunOptions) -> tuple[RunReport, list[str]]:
    """The training loop over batches pre-generated before the clock
    starts, so the timed loop holds only the steps."""
    return _run(config, options, pregenerate=True)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    try:
        config, options = parse_args(
            argv if argv is not None else sys.argv[1:])
    except (CliError, argparse.ArgumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:
        # argparse exits directly for unrecognized flags
        return int(e.code) if e.code else 2
    if options.use_gpu:
        print("note: --use-gpu is accepted for compatibility and ignored",
              file=sys.stderr)
    runner = run_training if options.mode == "train" else run_benchmark
    try:
        report, metric_lines = runner(config, options)
    except (CliError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in metric_lines:
        print(line)
    rendered = format_report(report, options.emit)
    print(rendered)
    if report.comm_report:
        print(report.comm_report, end="")
    if options.metrics_file:
        with open(options.metrics_file, "w", encoding="utf-8") as f:
            f.write("\n".join(metric_lines) + ("\n" if metric_lines else ""))
    if options.report_file:
        with open(options.report_file, "w", encoding="utf-8") as f:
            f.write(rendered + "\n")
            if report.comm_report:
                f.write(report.comm_report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
