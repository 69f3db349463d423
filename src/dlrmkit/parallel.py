"""Deterministic in-process simulation of hybrid parallelism: embedding
tables model-parallel across virtual devices, MLPs data-parallel with
replicated parameters, a butterfly-shuffle personalized all-to-all, and
synchronous allreduce.

The simulator is provably bit-equivalent to serial execution for any device
count: per-sample computation never mixes rows, cross-sample gradient
reductions use the exact grid components from :mod:`dlrmkit.dense` (invariant
to contiguous partitioning), and every collective reduces in ascending
replica order at fixed barriers, so results are also independent of the
scheduler (single-threaded or thread pool). The MLP gradient allreduce is
streamed: devices add their components, in ascending device order, into one
running sum per layer, so only one device's contribution is in flight.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
    interact,
    interact_backward,
    layer_grad_components,
    mlp_backward_trace,
    mlp_forward,
)
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
    """Forward pass, per-sample BCE and the per-sample backward sweeps over
    one shard of an ``n_total``-sample mini-batch.

    The logit gradient is (p - y) / n_total, the shard's rows of the
    gradient of the full-batch mean loss.
    """
    with timer.section("bottom_mlp"):
        dense_repr, bottom_cache = mlp_forward(bottom, dense_x)
    with timer.section("interaction"):
        inter = interact(dense_repr, emb)
    with timer.section("top_mlp"):
        logits, top_cache = mlp_forward(top, inter)
    with timer.section("loss"):
        z = logits[:, 0]
        # a shard can be empty when there are more devices than samples
        per_sample = bce_from_logits(z, labels)[2] if z.size else z
        probs = activation(z[None, :], "sigmoid")[0]
        grad_logits = (probs - labels) / n_total
    with timer.section("top_mlp"):
        top_traces, grad_inter = mlp_backward_trace(
            top, top_cache, grad_logits[:, None])
    with timer.section("interaction"):
        grad_dense_repr, grad_embs = interact_backward(
            dense_repr, emb, grad_inter)
    with timer.section("bottom_mlp"):
        bottom_traces, _ = mlp_backward_trace(
            bottom, bottom_cache, grad_dense_repr)
    return _ShardResult(per_sample, probs, bottom_traces, top_traces,
                        grad_embs)


def _combine(collective, per_replica: list):
    """Run a collective; a lone replica's value is used as is, not copied."""
    return per_replica[0] if len(per_replica) == 1 else collective(per_replica)


def _reduce_mlp_grads(traces_per_dev: list[list[tuple]], n_total: int,
                      guard, timer) -> tuple[MlpGrads, int, int]:
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
    sum is freed before the next layer's is built. ``guard(fn, d)`` runs
    device d's contribution ``fn(d)`` on the calling thread.
    """
    grads = MlpGrads([], [])
    stat_payload = grad_payload = 0
    for l in range(len(traces_per_dev[0])):
        with timer.section("allreduce"):
            x_max = _combine(allreduce_max, [t[l][2] for t in traces_per_dev])
            g_max = _combine(allreduce_max, [t[l][3] for t in traces_per_dev])
        sums = None
        with timer.section("device_compute"):
            for d in range(len(traces_per_dev)):
                sums = guard(lambda d: layer_grad_components(
                    *traces_per_dev[d][l][:2], x_max, g_max, n_total,
                    out=sums), d)
        w_comps, b_comps = sums
        with timer.section("allreduce"):
            grads.weights.append(dense.sum_components(w_comps))
            grads.biases.append(dense.sum_components(b_comps))
        stat_payload += x_max.nbytes + g_max.nbytes
        grad_payload += sum(c.nbytes for c in w_comps + b_comps)
        del sums, w_comps, b_comps
    return grads, stat_payload, grad_payload


def _update(optimizer, bottom: MlpParams, top: MlpParams, grads: dict,
            table_grads) -> None:
    optimizer.apply_mlp(bottom, grads["bottom"], "bottom")
    optimizer.apply_mlp(top, grads["top"], "top")
    for table, g in table_grads:
        optimizer.apply_table(table, g)


def train_step(model: DlrmModel, dense_x: Matrix,
               batches: list[SparseBatch], labels: np.ndarray,
               optimizer, timer=None) -> StepResult:
    """One serial forward/backward/update pass over a mini-batch: the
    one-device case of the hybrid-parallel step, which has no shuffle and
    no allreduce. Each MLP's gradient reduction is timed under its section.
    """
    timer = timer or NullTimer()
    n_total = dense_x.shape[0]
    with timer.section("embedding_lookup"):
        emb_out = [lookup_batch(tb, sb)
                   for tb, sb in zip(model.tables, batches)]
    shard = _forward_backward(model.bottom, model.top, dense_x, emb_out,
                              labels, n_total, timer)
    grads = {}
    for which, traces in (("bottom", shard.bottom_traces),
                          ("top", shard.top_traces)):
        with timer.section(f"{which}_mlp"):
            grads[which] = _reduce_mlp_grads(
                [traces], n_total, lambda fn, d: fn(d), NullTimer())[0]
    with timer.section("embedding_lookup"):
        table_grads = [lookup_backward(tb, sb, g) for tb, sb, g
                       in zip(model.tables, batches, shard.emb_grads)]
    with timer.section("optimizer"):
        _update(optimizer, model.bottom, model.top, grads,
                zip(model.tables, table_grads))
    acc = float(np.mean((shard.probs > 0.5) == (labels > 0.5)))
    return StepResult(float(shard.per_sample_loss.mean()), acc, shard.probs)


# ---------------------------------------------------------------------------
# parallel trainer

class ParallelTrainer:
    """Replicated-MLP, partitioned-table trainer with simulated collectives.

    It trains the model it is given in place: the tables are the model's
    own (each table lives once, on its owner device), replica 0 is the
    model's bottom and top MLP, and only replicas 1..P-1 are copies.

    ``concurrent=True`` runs per-device work on a thread pool; all
    cross-device reductions happen at barriers in ascending replica order, so
    both scheduler modes produce identical bits (asserted by the test suite).
    The devices' contributions to the gradient allreduce run one at a time
    on the calling thread, in device order, under either scheduler.
    """

    def __init__(self, model: DlrmModel, plan: DevicePlan,
                 optimizer_name: str = "sgd", lr: float = 0.1,
                 eps: float = 1e-10, concurrent: bool = False):
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
        self._pool = (ThreadPoolExecutor(max_workers=plan.num_devices)
                      if concurrent and plan.num_devices > 1 else None)

    # -- scheduling ---------------------------------------------------------

    def _run_per_device(self, fn):
        """Run fn(device) for every device; returns results in device order."""
        devices = range(self.plan.num_devices)
        if self._pool is None:
            return [self._guard(fn, d) for d in devices]
        futures = [self._pool.submit(self._guard, fn, d) for d in devices]
        return [f.result() for f in futures]

    @staticmethod
    def _guard(fn, device: int):
        try:
            return fn(device)
        except Exception as e:
            raise RuntimeError(f"device {device}: {e}") from e

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()

    # -- one training step ---------------------------------------------------

    def step(self, dense_x: Matrix, batches: list[SparseBatch],
             labels: np.ndarray, timer=None) -> StepResult:
        timer = timer or NullTimer()
        plan = self.plan
        n_total = dense_x.shape[0]
        if n_total != plan.batch_size:
            raise ValueError(
                f"batch size {n_total} does not match plan "
                f"({plan.batch_size})"
            )
        step_idx = self.step_count

        # phase 1: owners look up their tables over the full mini-batch
        owned = [[t for t, dev in enumerate(plan.table_assignment) if dev == d]
                 for d in range(plan.num_devices)]

        with timer.section("embedding_lookup"):
            def do_lookups(device):
                return {t: lookup_batch(self.tables[t], batches[t])
                        for t in owned[device]}
            per_dev_lookups = self._run_per_device(do_lookups)
        per_table = {t: m for dev_out in per_dev_lookups
                     for t, m in dev_out.items()}

        # phase 2: personalized all-to-all
        with timer.section("shuffle"):
            shuffled = butterfly_shuffle(per_table, plan, self.comm, step_idx)

        # phase 3: the shared forward/backward on each device's shard
        with timer.section("device_compute"):
            def local(device):
                lo, hi = plan.shard(device)
                bottom, top = self.replicas[device]
                emb = [s.values for s in shuffled[device]]  # ascending table id
                return _forward_backward(bottom, top, dense_x[lo:hi], emb,
                                         labels[lo:hi], n_total, NullTimer())
            shards = self._run_per_device(local)

        # phase 4a: loss/accuracy gather (per-sample values, ascending order)
        with timer.section("loss"):
            per_sample = np.concatenate([r.per_sample_loss for r in shards])
            probs = np.concatenate([r.probs for r in shards])
            loss = float(per_sample.mean())
            acc = float(np.mean((probs > 0.5) == (labels > 0.5)))
            self.comm.add(step_idx, "loss_gather",
                          sum(r.per_sample_loss.nbytes + r.probs.nbytes
                              for d, r in enumerate(shards) if d != 0),
                          plan.num_devices)

        # phase 4b: exact gradient allreduce, layer by layer, each device
        # adding into one running sum in device order under both schedulers
        grads = {}
        for which in ("bottom", "top"):
            grads[which], stat_payload, grad_payload = _reduce_mlp_grads(
                [getattr(r, f"{which}_traces") for r in shards], n_total,
                self._guard, timer)
            for name, payload in (("stat_allreduce", stat_payload),
                                  ("grad_allreduce", grad_payload)):
                self.comm.add(step_idx, name,
                              _allreduce_bytes(payload, plan.num_devices),
                              plan.num_devices)

        # phase 5: embedding gradients return to their owners
        with timer.section("shuffle"):
            full_emb_grads = inverse_shuffle(
                [dict(enumerate(r.emb_grads)) for r in shards], plan,
                self.comm, step_idx)

        with timer.section("embedding_lookup"):
            def table_grads(device):
                return {t: lookup_backward(self.tables[t], batches[t],
                                           full_emb_grads[t])
                        for t in owned[device]}
            sparse_per_dev = self._run_per_device(table_grads)

        # phase 6: synchronous update (replicas get identical dense grads)
        with timer.section("optimizer"):
            self._run_per_device(lambda d: _update(
                self.optimizers[d], *self.replicas[d], grads,
                ((self.tables[t], g) for t, g in sparse_per_dev[d].items())))

        self.step_count += 1
        return StepResult(loss, acc, probs)

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
