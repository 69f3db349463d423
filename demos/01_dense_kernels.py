"""Dense kernel walkthrough: deterministic products, activations, seeded
streams, and the partition-invariant batch reduction.

The two properties showcased at the bottom are what the parallel trainer is
built on: row-sliced matrix products keep their bits, and cross-sample
gradient sums do not care how the samples are grouped.
"""

import numpy as np

from dlrmkit.dense import (
    RngStream,
    activation,
    activation_grad,
    dot,
    grid_components,
    matmul,
    outer_sum_components,
    sum_components,
)

rng = RngStream(2024)

print("== products ==")
a = np.array([[1.0, 2.0], [3.0, 4.0]])
b = np.array([[5.0], [6.0]])
print("A @ B =", matmul(a, b).ravel(), " (hand result: 17, 39)")
print("dot([1,2],[3,4]) =", dot([1.0, 2.0], [3.0, 4.0]))

print("\n== activations ==")
x = np.array([[-2.0, 0.0, 2.0]])
for kind in ("relu", "sigmoid", "identity"):
    print(f"{kind:>8}: {activation(x, kind)[0]}  grad {activation_grad(x, kind)[0]}")

print("\n== seeded streams (Philox) ==")
print("same seed, same draws:",
      np.array_equal(RngStream(7).uniform(2, 3), RngStream(7).uniform(2, 3)))
print("derived substreams differ:",
      not np.array_equal(rng.derive(0).normal(2, 2),
                         rng.derive(1).normal(2, 2)))

print("\n== row-slice stability ==")
x = rng.normal(6, 5)
w = rng.normal(5, 4)
full = matmul(x, w)
# each shard passes its first row's batch position, so its rows sit where
# they sit in the full product's GEMM call
sliced = np.vstack([matmul(x[lo:hi], w, first_row=lo)
                    for lo, hi in [(0, 2), (2, 5), (5, 6)]])
print("full product == stitched shard products:",
      np.array_equal(full, sliced))

print("\n== partition-invariant batch reduction ==")
gy = rng.normal(9, 3) * np.array([[1.0, 1e8, 1e-6]])
xs = rng.normal(9, 4)
# the whole batch is split once, in place, onto grids anchored at each
# column's abs-max; the arrays themselves become the last slices
g_slices = grid_components(gy.copy(), 9)
x_slices = grid_components(xs.copy(), 9)


def buckets(g_slices, x_slices):
    # one exact product per slice pair over the given rows; copied, since
    # the generator reuses its buffer
    return [c.copy() for c in outer_sum_components(g_slices, x_slices)]


whole = buckets(g_slices, x_slices)
# every partial sum of slice products is exact, so the buckets of any
# contiguous row blocks, added block by block as an allreduce of
# per-device buckets would, give the whole-batch buckets
shards = [(0, 3), (3, 5), (5, 9)]
per_shard = [buckets([g[lo:hi] for g in g_slices],
                     [x[lo:hi] for x in x_slices]) for lo, hi in shards]
print("whole-batch buckets equal the shard-by-shard sums bit for bit:",
      all(np.array_equal(w_, sum(p_)) for w_, p_ in
          zip(whole, zip(*per_shard))))
print("recombined gradient:\n", sum_components(whole))
