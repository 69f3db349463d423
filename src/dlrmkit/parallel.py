"""Deterministic in-process simulation of hybrid parallelism: embedding
tables model-parallel across virtual devices, MLPs data-parallel with
replicated parameters, a butterfly-shuffle personalized all-to-all, and
synchronous allreduce.

There is one step body, ``_step``. ``ParallelTrainer.step`` runs it on a
P-device plan and the serial ``train_step`` on the one-device plan, whose
shuffles move 0 bytes and whose reductions have a single replica. Devices
run one at a time in ascending order, and a failure in a device's work is
raised as ``device d: ...``.

The simulator is bit-equivalent to serial execution for any device count:
per-sample computation never mixes rows, cross-sample gradient reductions
use the exact grid components from :mod:`dlrmkit.dense` (invariant to
contiguous partitioning), and every collective reduces in ascending replica
order. The MLP gradient allreduce is streamed: devices add their
components, in ascending device order, into one running sum per layer, so
only one device's contribution is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dense
from .dense import Matrix
from .embedding import SparseBatch, lookup_batch, lookup_backward
from .model import (
    DlrmConfig,
    DlrmModel,
    MlpGrads,
    MlpParams,
    activation,
    bce_from_logits,
    check_sparse_batches,
    forward_logits,
    interact_backward,
    layer_grad_components,
    mlp_backward_trace,
)
# The step runs the MLPs through ``forward_logits``; ``mlp_forward`` stays
# bound here because perfbench/test_perfbench.py checks that the benchmark's
# tracer patches this module's reference to it.
from .model import mlp_forward  # noqa: F401
from .optim import make_optimizer
from .timing import NullTimer

__all__ = [
    "DevicePlan",
    "ShuffleSlice",
    "CommLog",
    "StepResult",
    "partition_tables",
    "shard_bounds",
    "make_plan",
    "butterfly_shuffle",
    "inverse_shuffle",
    "allreduce",
    "allreduce_max",
    "train_step",
    "ParallelTrainer",
    "format_comm_report",
]


# ---------------------------------------------------------------------------
# device plan

@dataclass
class DevicePlan:
    num_devices: int
    table_assignment: list[int]   # table id -> owning device
    shard_bounds: list[int]       # len num_devices + 1, contiguous sample ranges

    def validate(self):
        if self.num_devices < 1:
            raise ValueError("need at least one device")
        if any(not 0 <= d < self.num_devices for d in self.table_assignment):
            raise ValueError("table assigned to a device outside the plan")
        b = self.shard_bounds
        if len(b) != self.num_devices + 1:
            raise ValueError(
                f"shard bounds need num_devices + 1 = {self.num_devices + 1} "
                f"entries, got {len(b)}")
        if b[0] != 0 or any(x > y for x, y in zip(b, b[1:])):
            raise ValueError("shard bounds must start at 0 and be nondecreasing")
        sizes = [y - x for x, y in zip(b, b[1:])]
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("shard sizes must differ by at most 1")

    def shard(self, device: int) -> tuple[int, int]:
        return self.shard_bounds[device], self.shard_bounds[device + 1]

    @property
    def batch_size(self) -> int:
        return self.shard_bounds[-1]


def partition_tables(table_sizes: list[int], num_devices: int) -> list[int]:
    """Greedy largest-first assignment minimizing the max per-device load.

    Ties (equally loaded devices) go to the lowest device id. Returns the
    table -> device map.
    """
    if num_devices < 1:
        raise ValueError("need at least one device")
    loads = [0] * num_devices
    assignment = [0] * len(table_sizes)
    order = sorted(range(len(table_sizes)),
                   key=lambda t: (-table_sizes[t], t))
    for t in order:
        dev = min(range(num_devices), key=lambda d: (loads[d], d))
        assignment[t] = dev
        loads[dev] += table_sizes[t]
    return assignment


def shard_bounds(batch_size: int, num_devices: int) -> list[int]:
    """Contiguous shards, sizes differing by <= 1, earlier devices larger."""
    base, extra = divmod(batch_size, num_devices)
    bounds = [0]
    for d in range(num_devices):
        bounds.append(bounds[-1] + base + (1 if d < extra else 0))
    return bounds


def make_plan(config: DlrmConfig, batch_size: int,
              num_devices: int) -> DevicePlan:
    sizes = [m * config.sparse_dim for m in config.embedding_sizes]
    plan = DevicePlan(num_devices, partition_tables(sizes, num_devices),
                      shard_bounds(batch_size, num_devices))
    plan.validate()
    return plan


# ---------------------------------------------------------------------------
# collectives (simulated by explicit buffer hand-off)

@dataclass
class ShuffleSlice:
    source_device: int
    table_id: int
    sample_range: tuple[int, int]
    values: Matrix


@dataclass
class CommLog:
    """Per-step record of simulated collective traffic."""

    entries: list[tuple[int, str, int, int]] = field(default_factory=list)

    def add(self, step: int, collective: str, nbytes: int, participants: int):
        self.entries.append((step, collective, int(nbytes), participants))


def butterfly_shuffle(per_table_outputs: dict[int, Matrix], plan: DevicePlan,
                      comm: CommLog | None = None, step: int = 0
                      ) -> list[list[ShuffleSlice]]:
    """Redistribute per-table full-batch lookup results into per-device,
    all-table batch shards.

    Input: table id -> (batch x d) matrix, resident on the owning device.
    Output: for each device, one slice per table (ascending table id)
    covering that device's sample range, tagged with its source device.
    """
    for t in per_table_outputs:
        if per_table_outputs[t].shape[0] != plan.batch_size:
            raise ValueError(
                f"table {t} output has {per_table_outputs[t].shape[0]} rows, "
                f"plan expects {plan.batch_size}"
            )
    if set(per_table_outputs) != set(range(len(plan.table_assignment))):
        raise ValueError("per-table outputs do not match the plan's tables")
    out: list[list[ShuffleSlice]] = [[] for _ in range(plan.num_devices)]
    moved = 0
    for dst in range(plan.num_devices):
        lo, hi = plan.shard(dst)
        for t in sorted(per_table_outputs):
            src = plan.table_assignment[t]
            values = per_table_outputs[t][lo:hi]
            out[dst].append(ShuffleSlice(src, t, (lo, hi), values))
            if src != dst:
                moved += values.nbytes
    if comm is not None:
        comm.add(step, "butterfly_shuffle", moved, plan.num_devices)
    return out


def inverse_shuffle(per_device_grads: list[dict[int, Matrix]],
                    plan: DevicePlan, comm: CommLog | None = None,
                    step: int = 0) -> dict[int, Matrix]:
    """Route per-shard embedding gradients back to table owners.

    Input: per device, table id -> (shard x d) gradient slice. Output: table
    id -> full (batch x d) gradient, rows concatenated in ascending device
    (= sample) order on the owner.
    """
    num_tables = len(plan.table_assignment)
    moved = 0
    full: dict[int, Matrix] = {}
    for t in range(num_tables):
        owner = plan.table_assignment[t]
        parts = []
        for dev in range(plan.num_devices):
            g = per_device_grads[dev][t]
            lo, hi = plan.shard(dev)
            if g.shape[0] != hi - lo:
                raise ValueError(
                    f"device {dev} grad for table {t} has {g.shape[0]} rows, "
                    f"shard is {hi - lo}"
                )
            parts.append(g)
            if dev != owner:
                moved += g.nbytes
        full[t] = np.concatenate(parts, axis=0) if parts else np.empty((0, 0))
    if comm is not None:
        comm.add(step, "grad_reverse_shuffle", moved, plan.num_devices)
    return full


def allreduce(per_replica: list[Matrix]) -> Matrix:
    """Elementwise sum in ascending replica order; all replicas receive it."""
    if not per_replica:
        raise ValueError("allreduce needs at least one replica")
    shape = np.shape(per_replica[0])
    for i, m in enumerate(per_replica[1:], start=1):
        if np.shape(m) != shape:
            raise ValueError(
                f"replica {i} shape {np.shape(m)} != replica 0 shape {shape}"
            )
    out = np.array(per_replica[0], dtype=np.float64, copy=True)
    for m in per_replica[1:]:
        out = out + m
    return out


def allreduce_max(per_replica: list[np.ndarray]) -> np.ndarray:
    """Elementwise max in ascending replica order (exact, order-free)."""
    out = np.array(per_replica[0], dtype=np.float64, copy=True)
    for m in per_replica[1:]:
        out = np.maximum(out, m)
    return out


def _allreduce_bytes(payload_bytes: int, participants: int) -> int:
    # reduce-to-root plus broadcast, each (P-1) transfers
    return 2 * (participants - 1) * payload_bytes


# ---------------------------------------------------------------------------
# the step core, shared by the serial step and every simulated device

@dataclass
class StepResult:
    loss: float
    accuracy: float
    probs: np.ndarray


@dataclass
class _ShardResult:
    """One shard's forward/backward output; nothing in it mixes samples."""

    per_sample_loss: np.ndarray
    probs: np.ndarray
    bottom_traces: list[tuple[Matrix, Matrix, np.ndarray, np.ndarray]]
    top_traces: list[tuple[Matrix, Matrix, np.ndarray, np.ndarray]]
    emb_grads: list[Matrix]     # ascending table id


def _forward_backward(bottom: MlpParams, top: MlpParams, dense_x: Matrix,
                      emb: list[Matrix], labels: np.ndarray, n_total: int,
                      timer) -> _ShardResult:
    """``model.forward_logits``, the per-sample BCE and the per-sample
    backward sweeps over one shard of an ``n_total``-sample mini-batch.

    The logit gradient is (p - y) / n_total, the shard's rows of the
    gradient of the full-batch mean loss. A shard may be empty when there
    are more devices than samples; every stage then yields empty arrays.
    """
    logits, bottom_cache, top_cache = forward_logits(bottom, top, dense_x,
                                                     emb, timer)
    with timer.section("loss"):
        per_sample = bce_from_logits(logits, labels)
        probs = activation(logits, "sigmoid")
        grad_logits = (probs - labels) / n_total
    with timer.section("top_mlp"):
        top_traces, grad_inter = mlp_backward_trace(
            top, top_cache, grad_logits[:, None])
    with timer.section("interaction"):
        grad_dense_repr, grad_embs = interact_backward(
            bottom_cache.post[-1], emb, grad_inter)
    with timer.section("bottom_mlp"):
        bottom_traces, _ = mlp_backward_trace(
            bottom, bottom_cache, grad_dense_repr)
    return _ShardResult(per_sample, probs, bottom_traces, top_traces,
                        grad_embs)


def _guard(fn, device: int):
    """Run device ``device``'s work ``fn(device)``; a failure in it is
    re-raised as ``device d: ...``, serial steps included (device 0)."""
    try:
        return fn(device)
    except Exception as e:
        raise RuntimeError(f"device {device}: {e}") from e


def _reduce_mlp_grads(traces_per_dev: list[list[tuple]],
                      n_total: int) -> tuple[MlpGrads, int, int]:
    """Exact full-batch gradients of one MLP from every device's per-layer
    ``mlp_backward_trace`` entries, plus the per-replica payload bytes of
    the stat and component allreduces.

    Per layer: allreduce of the local column abs-maxima (the shared grids);
    then the component allreduce, streamed in ascending device order, which
    is the reduce-to-root order of ``allreduce``: device 0's components
    become the running sum, and each later device adds its own into it in
    place, one slice product at a time; then one rounding in
    ``sum_components``. The adds are those of ``allreduce`` over the
    per-device lists, so the bits are too, but only the running sum and one
    product buffer are held instead of every device's components. A layer's
    sum is freed before the next layer's is built. Each device's
    contribution runs under ``_guard``.
    """
    grads = MlpGrads([], [])
    stat_payload = grad_payload = 0
    for l in range(len(traces_per_dev[0])):
        x_max = allreduce_max([t[l][2] for t in traces_per_dev])
        g_max = allreduce_max([t[l][3] for t in traces_per_dev])
        sums = None
        for d in range(len(traces_per_dev)):
            sums = _guard(lambda d: layer_grad_components(
                *traces_per_dev[d][l][:2], x_max, g_max, n_total,
                out=sums), d)
        w_comps, b_comps = sums
        grads.weights.append(dense.sum_components(w_comps))
        grads.biases.append(dense.sum_components(b_comps))
        stat_payload += x_max.nbytes + g_max.nbytes
        grad_payload += sum(c.nbytes for c in w_comps + b_comps)
        del sums, w_comps, b_comps
    return grads, stat_payload, grad_payload


def _update(optimizer, bottom: MlpParams, top: MlpParams, grads: dict,
            table_grads) -> None:
    optimizer.apply_mlp(bottom, grads["bottom"])
    optimizer.apply_mlp(top, grads["top"])
    for table, g in table_grads:
        optimizer.apply_table(table, g)


def _step(tables: list, replicas: list[tuple[MlpParams, MlpParams]],
          optimizers: list, plan: DevicePlan, comm: CommLog, step_idx: int,
          dense_x: Matrix, batches: list[SparseBatch], labels: np.ndarray,
          timer) -> StepResult:
    """One hybrid-parallel training step over ``plan``, serial or not.

    Owners look up their tables over the full mini-batch, the butterfly
    shuffle hands every device its shard of each table, each device runs
    ``_forward_backward`` on its shard, the per-sample losses are gathered,
    each MLP's gradients are reduced exactly, the embedding gradients return
    to their owners, and every device applies its update. Devices run one at
    a time in ascending order, each one's work under ``_guard``. Timed under
    ``embedding_lookup``, ``shuffle``, ``bottom_mlp``, ``interaction``,
    ``top_mlp`` (each MLP's reduction under its own section), ``loss`` and
    ``optimizer`` for every device count.
    """
    n_total = dense_x.shape[0]
    if np.shape(labels) != (n_total,):
        raise ValueError(f"labels have shape {np.shape(labels)}, "
                         f"expected ({n_total},)")
    check_sparse_batches(batches, len(tables), n_total)
    devices = range(plan.num_devices)

    # phase 1: owners look up their tables over the full mini-batch
    with timer.section("embedding_lookup"):
        owned = [[t for t, dev in enumerate(plan.table_assignment) if dev == d]
                 for d in devices]
        per_table = {}
        for d in devices:
            per_table.update(_guard(lambda d: {
                t: lookup_batch(tables[t], batches[t]) for t in owned[d]}, d))

    # phase 2: personalized all-to-all
    with timer.section("shuffle"):
        shuffled = butterfly_shuffle(per_table, plan, comm, step_idx)

    # phase 3: the shared forward/backward on each device's shard
    def local(d):
        lo, hi = plan.shard(d)
        emb = [s.values for s in shuffled[d]]   # ascending table id
        return _forward_backward(*replicas[d], dense_x[lo:hi], emb,
                                 labels[lo:hi], n_total, timer)
    shards = [_guard(local, d) for d in devices]

    # phase 4a: loss/accuracy gather (per-sample values, ascending order)
    with timer.section("loss"):
        per_sample = np.concatenate([r.per_sample_loss for r in shards])
        probs = np.concatenate([r.probs for r in shards])
        loss = float(per_sample.mean())
        acc = float(np.mean((probs > 0.5) == (labels > 0.5)))
        comm.add(step_idx, "loss_gather",
                 sum(r.per_sample_loss.nbytes + r.probs.nbytes
                     for d, r in enumerate(shards) if d != 0),
                 plan.num_devices)

    # phase 4b: exact gradient allreduce, layer by layer, each device
    # adding into one running sum in device order
    grads = {}
    for which in ("bottom", "top"):
        with timer.section(f"{which}_mlp"):
            grads[which], stat_payload, grad_payload = _reduce_mlp_grads(
                [getattr(r, f"{which}_traces") for r in shards], n_total)
            for name, payload in (("stat_allreduce", stat_payload),
                                  ("grad_allreduce", grad_payload)):
                comm.add(step_idx, name,
                         _allreduce_bytes(payload, plan.num_devices),
                         plan.num_devices)

    # phase 5: embedding gradients return to their owners
    with timer.section("shuffle"):
        full_emb_grads = inverse_shuffle(
            [dict(enumerate(r.emb_grads)) for r in shards], plan, comm,
            step_idx)
    with timer.section("embedding_lookup"):
        table_grads = [_guard(lambda d: [
            (tables[t], lookup_backward(tables[t], batches[t],
                                        full_emb_grads[t]))
            for t in owned[d]], d) for d in devices]

    # phase 6: synchronous update (replicas get identical dense grads)
    with timer.section("optimizer"):
        for d in devices:
            _guard(lambda d: _update(optimizers[d], *replicas[d], grads,
                                     table_grads[d]), d)
    return StepResult(loss, acc, probs)


def train_step(model: DlrmModel, dense_x: Matrix,
               batches: list[SparseBatch], labels: np.ndarray,
               optimizer, timer=None) -> StepResult:
    """One serial forward/backward/update pass over a mini-batch: the
    hybrid step on a one-device plan, whose shuffles move 0 bytes and whose
    reductions have one replica.
    """
    plan = DevicePlan(1, [0] * len(model.tables), [0, dense_x.shape[0]])
    return _step(model.tables, [(model.bottom, model.top)], [optimizer],
                 plan, CommLog(), 0, dense_x, batches, labels,
                 timer or NullTimer())


# ---------------------------------------------------------------------------
# parallel trainer

class ParallelTrainer:
    """Replicated-MLP, partitioned-table trainer with simulated collectives.

    It trains the model it is given in place: the tables are the model's
    own (each table lives once, on its owner device), replica 0 is the
    model's bottom and top MLP, and only replicas 1..P-1 are copies. Its
    step is the same step body as ``train_step``, on a P-device plan.
    """

    def __init__(self, model: DlrmModel, plan: DevicePlan,
                 optimizer_name: str = "sgd", lr: float = 0.1,
                 eps: float = 1e-10):
        plan.validate()
        if len(plan.table_assignment) != model.config.num_tables:
            raise ValueError("plan does not cover the model's tables")
        self.plan = plan
        self.replicas: list[tuple[MlpParams, MlpParams]] = [
            (model.bottom, model.top)]
        self.replicas += [(model.bottom.copy(), model.top.copy())
                          for _ in range(plan.num_devices - 1)]
        self.tables = model.tables
        self.optimizers = [make_optimizer(optimizer_name, lr, eps)
                           for _ in range(plan.num_devices)]
        self.comm = CommLog()
        self.step_count = 0

    def close(self):
        """Nothing to release; kept so callers may close every trainer."""

    def step(self, dense_x: Matrix, batches: list[SparseBatch],
             labels: np.ndarray, timer=None) -> StepResult:
        if dense_x.shape[0] != self.plan.batch_size:
            raise ValueError(
                f"batch size {dense_x.shape[0]} does not match plan "
                f"({self.plan.batch_size})"
            )
        result = _step(self.tables, self.replicas, self.optimizers,
                       self.plan, self.comm, self.step_count, dense_x,
                       batches, labels, timer or NullTimer())
        self.step_count += 1
        return result

    # -- inspection ----------------------------------------------------------

    def replica_params(self, device: int = 0) -> tuple[MlpParams, MlpParams]:
        return self.replicas[device]

    def max_replica_divergence(self) -> float:
        """Max abs difference between replica 0 and any other replica."""
        worst = 0.0
        b0, t0 = self.replicas[0]
        for bottom, top in self.replicas[1:]:
            for ref, other in ((b0, bottom), (t0, top)):
                for l_ref, l_other in zip(ref.layers, other.layers):
                    worst = max(
                        worst,
                        float(np.abs(l_ref.weight - l_other.weight).max(initial=0.0)),
                        float(np.abs(l_ref.bias - l_other.bias).max(initial=0.0)),
                    )
        return worst


def format_comm_report(comm: CommLog) -> str:
    """Fixed-format table: one 'step, collective, bytes, participants' row
    per collective event."""
    lines = ["step, collective, bytes, participants"]
    for step, name, nbytes, participants in comm.entries:
        lines.append(f"{step}, {name}, {nbytes}, {participants}")
    return "\n".join(lines) + "\n"
