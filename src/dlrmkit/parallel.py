"""Deterministic in-process simulation of hybrid parallelism: embedding
tables model-parallel across virtual devices, MLPs data-parallel with
replicated parameters, a butterfly-shuffle personalized all-to-all, and
synchronous allreduce.

There is one step body, ``_step``. ``ParallelTrainer.step`` runs it on a
P-device plan and the serial ``train_step`` on the one-device plan, whose
shuffles move 0 bytes and whose reductions have a single replica. Devices
run one at a time in ascending order, and a failure in a device's work is
raised as ``device d: ...``, one in an MLP layer's reduction over the
gathered rows as ``<which> MLP layer l: ...``; only a kernel's independent
calls may run on ``dense.WORKERS`` threads, and their errors are raised in
the caller.

The simulator is bit-equivalent to serial execution for any device count:
per-sample computation never mixes rows, and each device runs its shard's
products at the shard's batch positions (``dense.matmul``'s ``first_row``),
so its rows go through the serial run's GEMM calls; cross-sample gradient
reductions use the exact grid components from :mod:`dlrmkit.dense`
(invariant to contiguous partitioning), and every collective reduces in
ascending replica order. Every hand-off from the devices to the full batch
(the per-sample losses and probabilities, each MLP layer's input and
output gradient, each table's gradient) is one ``_gather``: each device's
shard is copied into its own rows of one full-batch array, in ascending
device order. One ``model.layer_grad_components`` call, through which
every layer gradient goes, snaps a layer's gathered rows onto their grids
and makes one product per component (slice pair, bucket), folded into the
gradient as soon as it is made. A column's abs-max is exact over any
partition of the rows and a snap is elementwise, so these are the slices
each device would snap on grids shared by a max-allreduce; the partial
sums of slice products are exact, so a bucket has the bits of summing the
devices' own products in device order, as the component allreduce's
reduce-to-root does, at the cost of one product instead of P products and
P - 1 adds. A layer holds its gradient, one bucket and the slices,
``3 * n * (in + out)`` doubles for an ``in -> out`` layer and batch ``n``,
which costs less than the six components while
``n < 2 * in * out / (in + out)``. The comm log records the bytes the stat
(column-max) and component allreduces of a P-device run move. Nothing
non-finite is applied: the loss and every gradient are checked before any
device updates, and a failure raises ``FloatingPointError`` naming it.

A step holds each large buffer only until its last reader is done. The
lookups go once every shard's forward/backward has run. The reduction
takes the layers in order and consumes their traces: a layer's activations
and output gradients are dropped once they are gathered, and the slices
once the layer's gradients are made, so both MLPs' activations are gone
before the embedding backward. Each table's batch gradient goes once its
sparse backward has run, and the optimizers update in blocks
(:mod:`dlrmkit.optim`). The high-water mark therefore comes at the end of
the embedding backward and in the update, which hold every MLP gradient
and every table gradient at once: the finiteness check must pass on all
of them before any device applies one.
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
    batch_size: int

    def validate(self):
        if self.num_devices < 1:
            raise ValueError("need at least one device")
        if any(not 0 <= d < self.num_devices for d in self.table_assignment):
            raise ValueError("table assigned to a device outside the plan")
        if self.batch_size < 0:
            raise ValueError(f"batch size {self.batch_size} is negative")

    @property
    def shard_bounds(self) -> list[int]:
        """The devices' contiguous sample ranges, ``shard_bounds`` of the
        batch: ``num_devices + 1`` entries from 0 to ``batch_size``."""
        return shard_bounds(self.batch_size, self.num_devices)

    def shard(self, device: int) -> tuple[int, int]:
        bounds = self.shard_bounds
        return bounds[device], bounds[device + 1]


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
                      batch_size)
    plan.validate()
    return plan


# ---------------------------------------------------------------------------
# collectives (simulated by explicit buffer hand-off)

@dataclass
class CommLog:
    """Per-step record of simulated collective traffic."""

    entries: list[tuple[int, str, int, int]] = field(default_factory=list)

    def add(self, step: int, collective: str, nbytes: int, participants: int):
        self.entries.append((step, collective, int(nbytes), participants))


def butterfly_shuffle(per_table_outputs: dict[int, Matrix], plan: DevicePlan,
                      comm: CommLog | None = None, step: int = 0
                      ) -> list[list[Matrix]]:
    """Redistribute per-table full-batch lookup results into per-device,
    all-table batch shards.

    Input: table id -> (batch x d) matrix, resident on the owning device.
    Output: for each device, one slice per table in ascending table id,
    holding the rows of that device's shard. The plan says where each came
    from: slice t of device d was sent by device ``plan.table_assignment[t]``
    and covers the samples ``plan.shard(d)``.
    """
    for t in per_table_outputs:
        if per_table_outputs[t].shape[0] != plan.batch_size:
            raise ValueError(
                f"table {t} output has {per_table_outputs[t].shape[0]} rows, "
                f"plan expects {plan.batch_size}"
            )
    if set(per_table_outputs) != set(range(len(plan.table_assignment))):
        raise ValueError("per-table outputs do not match the plan's tables")
    out: list[list[Matrix]] = [[] for _ in range(plan.num_devices)]
    moved = 0
    for dst in range(plan.num_devices):
        lo, hi = plan.shard(dst)
        for t in sorted(per_table_outputs):
            values = per_table_outputs[t][lo:hi]
            out[dst].append(values)
            if plan.table_assignment[t] != dst:
                moved += values.nbytes
    if comm is not None:
        comm.add(step, "butterfly_shuffle", moved, plan.num_devices)
    return out


def inverse_shuffle(per_device_grads: list[list[Matrix]],
                    plan: DevicePlan, comm: CommLog | None = None,
                    step: int = 0) -> dict[int, Matrix]:
    """Route per-shard embedding gradients back to table owners.

    Input: per device, one (shard x d) gradient slice per table in
    ascending table id, as ``butterfly_shuffle`` hands them out. Output: table
    id -> full (batch x d) gradient on the owner, each table's slices
    ``_gather``-ed in ascending device (= sample) order.
    """
    moved = 0
    full: dict[int, Matrix] = {}
    for t, owner in enumerate(plan.table_assignment):
        parts = [grads[t] for grads in per_device_grads]
        full[t] = _gather(parts, plan.shard_bounds, f"table {t} gradient")
        moved += sum(g.nbytes for d, g in enumerate(parts) if d != owner)
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
    bottom_traces: list[tuple[Matrix, Matrix]]
    top_traces: list[tuple[Matrix, Matrix]]
    emb_grads: list[Matrix]     # ascending table id


def _forward_backward(bottom: MlpParams, top: MlpParams, dense_x: Matrix,
                      emb: list[Matrix], labels: np.ndarray, n_total: int,
                      first_row: int, timer) -> _ShardResult:
    """``model.forward_logits``, the per-sample BCE and the per-sample
    backward sweeps over one shard of an ``n_total``-sample mini-batch,
    whose first sample is sample ``first_row`` of the batch.

    The logit gradient is (p - y) / n_total, the shard's rows of the
    gradient of the full-batch mean loss. A shard may be empty when there
    are more devices than samples; every stage then yields empty arrays.
    """
    logits, bottom_cache, top_cache = forward_logits(bottom, top, dense_x,
                                                     emb, timer, first_row)
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


def _guard(fn, index: int, label: str = "device"):
    """Run ``fn(index)``; a failure in it is re-raised as ``<label>
    <index>: ...``, so ``device d: ...`` for a device's work, serial steps
    included (device 0)."""
    try:
        return fn(index)
    except Exception as e:
        raise RuntimeError(f"{label} {index}: {e}") from e


def _gather(parts, bounds: list[int], what: str) -> np.ndarray:
    """``bounds[-1]`` rows whose rows ``[bounds[d], bounds[d + 1])`` are
    ``parts[d]``, copied in ascending device order, each under ``_guard``.
    A part without its shard's rows raises ``device d: <what> has r rows,
    shard is s``; one without part 0's trailing shape names both shapes."""
    full = np.empty((bounds[-1], *parts[0].shape[1:]), parts[0].dtype)

    def copy(d):
        part, rows = parts[d], full[bounds[d]:bounds[d + 1]]
        if part.shape != rows.shape:
            raise ValueError(
                f"{what} has {len(part)} rows, shard is {len(rows)}"
                if len(part) != len(rows) else
                f"{what} has shape {part.shape}, shard is {rows.shape}")
        rows[...] = part

    for d in range(len(bounds) - 1):
        _guard(copy, d)
    return full


def _require_finite(values, what: str) -> None:
    """Stop the step before its update when ``values`` holds a NaN or an
    infinity: raise ``FloatingPointError("<what> is not finite")``.

    A NaN makes both the max and the min NaN, +inf shows in the max and
    -inf in the min, so two reductions decide it without a boolean array
    the size of ``values``; an empty array passes. The two run as
    independent kernel calls (``dense.run_calls``), concurrently on a
    large array when there are kernel workers.
    """
    extremes = dense.run_calls([lambda: np.max(values, initial=0.0),
                                lambda: np.min(values, initial=0.0)],
                               np.size(values))
    if not all(np.isfinite(extremes)):
        raise FloatingPointError(f"{what} is not finite")


def _reduce_mlp_grads(traces_per_dev: list[list[tuple]], bounds: list[int],
                      which: str) -> tuple[MlpGrads, int, int]:
    """Exact full-batch gradients of one MLP (``which``, as errors name it)
    from every device's per-layer ``mlp_backward_trace`` pairs, plus the
    per-replica payload bytes of the stat and component allreduces.

    Per layer, the devices' ``x_l`` and then their ``gz_l`` are gathered
    over ``bounds`` (``_gather`` as ``<which> layer <l> trace``), and one
    ``layer_grad_components`` call over the full batch, under ``_guard`` as
    ``<which> layer <l>``, makes the layer's (grad_W, grad_b) with the bits
    of the per-device scheme (see the module docstring). The payloads are
    those of the column maxima and component lists a P-device run
    exchanges, computed from the shapes.

    The traces are consumed: a layer's entries are set to None as it is
    gathered, and the gathered buffers, which become slices, are dropped
    once its gradients are made, so none are left when this returns.
    Callers that need the traces afterwards pass copies of the lists.
    """
    shapes = [(gz.shape[1], x.shape[1]) for x, gz in traces_per_dev[0]]
    # Every weight gradient is allocated before any layer's buffers, so each
    # layer's slices and bucket are freed together above them; allocated
    # between the slices, the kept gradients split the free heap and raised
    # desk-4dev's peak RSS.
    grads = MlpGrads([np.empty(shape) for shape in shapes], [])
    stat_payload = grad_payload = 0
    for l, (n_out, n_in) in enumerate(shapes):
        xs, gzs = zip(*(trace[l] for trace in traces_per_dev))
        for trace in traces_per_dev:
            trace[l] = None
        x_full, gz_full = (_gather(parts, bounds, f"{which} layer {l} trace")
                           for parts in (xs, gzs))
        del xs, gzs
        grads.weights[l], bias = _guard(lambda l: layer_grad_components(
            x_full, gz_full, bounds[-1], grads.weights[l]), l,
            f"{which} layer")
        del x_full, gz_full
        grads.biases.append(bias)
        stat_payload += (n_in + n_out) * 8
        grad_payload += (len(dense.CROSS_TERMS) * n_out * n_in
                         + dense.LEVELS * n_out) * 8
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
    to their owners, and every device applies its update. The loss, each
    MLP layer's gradients and each table's gradient are checked as they are
    made; a non-finite one raises ``FloatingPointError`` naming it before
    any device updates. Each buffer is dropped after its last reader (see
    the module docstring). Devices run one at
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
        return _forward_backward(*replicas[d], dense_x[lo:hi], shuffled[d],
                                 labels[lo:hi], n_total, lo, timer)
    shards = [_guard(local, d) for d in devices]
    del per_table, shuffled     # the lookups' last readers are done

    # phase 4a: loss/accuracy gather (per-sample values, ascending order)
    with timer.section("loss"):
        per_sample = _gather([r.per_sample_loss for r in shards],
                             plan.shard_bounds, "per-sample loss")
        probs = _gather([r.probs for r in shards], plan.shard_bounds,
                        "probabilities")
        loss = float(per_sample.mean())
        acc = float(np.mean((probs > 0.5) == (labels > 0.5)))
        comm.add(step_idx, "loss_gather",
                 sum(r.per_sample_loss.nbytes + r.probs.nbytes
                     for d, r in enumerate(shards) if d != 0),
                 plan.num_devices)
        _require_finite(loss, "loss")

    # phase 4b: exact gradient allreduce, layer by layer, over gathered rows
    grads = {}
    for which in ("bottom", "top"):
        with timer.section(f"{which}_mlp"):
            grads[which], stat_payload, grad_payload = _reduce_mlp_grads(
                [getattr(r, f"{which}_traces") for r in shards],
                plan.shard_bounds, f"{which} MLP")
            for l, (w, b) in enumerate(zip(grads[which].weights,
                                           grads[which].biases)):
                _require_finite(w, f"{which} MLP layer {l} weight gradient")
                _require_finite(b, f"{which} MLP layer {l} bias gradient")
            for name, payload in (("stat_allreduce", stat_payload),
                                  ("grad_allreduce", grad_payload)):
                comm.add(step_idx, name,
                         _allreduce_bytes(payload, plan.num_devices),
                         plan.num_devices)

    # phase 5: embedding gradients return to their owners
    with timer.section("shuffle"):
        full_emb_grads = inverse_shuffle([r.emb_grads for r in shards], plan,
                                         comm, step_idx)
        del shards
    with timer.section("embedding_lookup"):
        table_grads = {}
        for d in devices:
            table_grads.update(_guard(lambda d: {
                t: lookup_backward(tables[t], batches[t],
                                   full_emb_grads.pop(t))
                for t in owned[d]}, d))
        for t, g in table_grads.items():
            _require_finite(g.values, f"device {plan.table_assignment[t]}: "
                                      f"table {t} gradient")

    # phase 6: synchronous update (replicas get identical dense grads)
    with timer.section("optimizer"):
        for d in devices:
            _guard(lambda d: _update(optimizers[d], *replicas[d], grads,
                                     [(tables[t], table_grads[t])
                                      for t in owned[d]]), d)
    return StepResult(loss, acc, probs)


def train_step(model: DlrmModel, dense_x: Matrix,
               batches: list[SparseBatch], labels: np.ndarray,
               optimizer, timer=None) -> StepResult:
    """One serial forward/backward/update pass over a mini-batch: the
    hybrid step on a one-device plan, whose shuffles move 0 bytes and whose
    reductions have one replica.
    """
    plan = DevicePlan(1, [0] * len(model.tables), dense_x.shape[0])
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
                 optimizer_name: str = "sgd", lr: float = 0.1):
        plan.validate()
        if len(plan.table_assignment) != model.config.num_tables:
            raise ValueError("plan does not cover the model's tables")
        self.plan = plan
        self.replicas: list[tuple[MlpParams, MlpParams]] = [
            (model.bottom, model.top)]
        self.replicas += [(model.bottom.copy(), model.top.copy())
                          for _ in range(plan.num_devices - 1)]
        self.tables = model.tables
        self.optimizers = [make_optimizer(optimizer_name, lr)
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
