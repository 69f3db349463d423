"""Hybrid parallelism, simulated: tables partitioned across virtual devices,
MLPs replicated, a butterfly shuffle between them -- and training results
that match serial execution bit for bit on any device count.
"""

import numpy as np

from dlrmkit.dense import RngStream
from dlrmkit.embedding import SparseBatch, offsets_from_lengths
from dlrmkit.model import DlrmConfig, init_model
from dlrmkit.optim import make_optimizer
from dlrmkit.parallel import (
    ParallelTrainer,
    butterfly_shuffle,
    format_comm_report,
    make_plan,
    partition_tables,
    train_step,
)

cfg = DlrmConfig(embedding_sizes=[50, 30, 20, 20], sparse_dim=4,
                 bottom_mlp_dims=[6, 4], top_mlp_dims=[8, 1], seed=3)

print("== table partitioning (greedy largest-first) ==")
sizes = [m * cfg.sparse_dim for m in cfg.embedding_sizes]
for ndev in (1, 2, 3):
    assign = partition_tables(sizes, ndev)
    loads = [sum(s for s, d in zip(sizes, assign) if d == dev)
             for dev in range(ndev)]
    print(f"{ndev} devices: assignment {assign}, loads {loads}")

print("\n== butterfly shuffle on a 2-device plan ==")
plan = make_plan(cfg, batch_size=4, num_devices=2)
rng = RngStream(1)
per_table = {t: rng.normal(4, cfg.sparse_dim)
             for t in range(cfg.num_tables)}
# slice t of device d comes from table t's owner and covers d's shard
for dev, slices in enumerate(butterfly_shuffle(per_table, plan)):
    lo, hi = plan.shard(dev)
    desc = ", ".join(f"t{t}[{lo}:{hi}]<-dev{plan.table_assignment[t]}"
                     for t in range(len(slices)))
    print(f"device {dev} receives: {desc}")


def gen(seed, steps, batch):
    r = RngStream(seed)
    for _ in range(steps):
        dense = r.uniform(batch, 6)
        sparse = [SparseBatch(offsets_from_lengths([2] * batch),
                              r.integers(0, m, 2 * batch))
                  for m in cfg.embedding_sizes]
        labels = (r.uniform(1, batch)[0] < 0.5).astype(np.float64)
        yield dense, sparse, labels


print("\n== serial vs parallel training, 30 steps, batch 9 ==")
serial = init_model(cfg)
opt = make_optimizer("adagrad", 0.1)
serial_losses = [train_step(serial, *b, opt).loss for b in gen(77, 30, 9)]
print(f"serial final loss: {serial_losses[-1]:.12f}")

for ndev in (2, 3, 4):
    trainer = ParallelTrainer(init_model(cfg), make_plan(cfg, 9, ndev),
                              "adagrad", 0.1)
    losses = [trainer.step(*b).loss for b in gen(77, 30, 9)]
    print(f"{ndev} devices: losses bit-identical to serial -> "
          f"{losses == serial_losses}, replica divergence "
          f"{trainer.max_replica_divergence()}")

print("\n== per-step communication volume (2 devices, 2 steps) ==")
trainer = ParallelTrainer(init_model(cfg), make_plan(cfg, 8, 2),
                          "sgd", 0.1)
feed = gen(78, 2, 8)
for b in feed:
    trainer.step(*b)
print(format_comm_report(trainer.comm), end="")
