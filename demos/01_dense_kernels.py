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
sliced = np.vstack([matmul(x[:2], w), matmul(x[2:5], w), matmul(x[5:], w)])
print("full product == stitched shard products:",
      np.array_equal(full, sliced))

print("\n== partition-invariant batch reduction ==")
gy = rng.normal(9, 3) * np.array([[1.0, 1e8, 1e-6]])
xs = rng.normal(9, 4)
gmax, xmax = np.abs(gy).max(axis=0), np.abs(xs).max(axis=0)


def shard_components(lo, hi):
    # split each operand onto its batch-wide grids once, then take the
    # slice products
    return outer_sum_components(grid_components(gy[lo:hi], gmax, 9),
                                grid_components(xs[lo:hi], xmax, 9))


whole = shard_components(0, 9)
parts = None
for lo, hi in ((0, 3), (3, 5), (5, 9)):
    piece = shard_components(lo, hi)
    parts = piece if parts is None else [p + q for p, q in zip(parts, piece)]
print("shard components sum to the full components bit for bit:",
      all(np.array_equal(w_, p_) for w_, p_ in zip(whole, parts)))
print("recombined gradient:\n", sum_components(whole))
