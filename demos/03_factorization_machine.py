"""Factorization-machine predictor: the O(n^2 d) naive evaluation versus the
factorized O(n d) identity, on growing problem sizes."""

import time

import numpy as np

from dlrmkit.dense import RngStream
from dlrmkit.model import FmParams, fm_predict, fm_predict_naive

rng = RngStream(42)

print("== tiny hand-checkable instance ==")
p = FmParams(b=0.0, w=np.zeros(2), V=np.array([[1.0], [2.0]]))
x = np.array([1.0, 1.0])
print("naive:", fm_predict_naive(p, x), " factorized:", fm_predict(p, x),
      " (single pair term 1*2 = 2)")

print("\n== agreement over random instances ==")
worst = 0.0
for _ in range(200):
    n = int(rng.integers(1, 33, ()))
    d = int(rng.integers(1, 9, ()))
    params = FmParams(float(rng.normal(1, 1)[0, 0]), rng.normal(1, n)[0],
                      rng.normal(n, d))
    xv = rng.normal(1, n)[0]
    worst = max(worst, abs(fm_predict_naive(params, xv)
                           - fm_predict(params, xv)))
print(f"max |naive - factorized| over 200 instances: {worst:.3e}")

print("\n== linear-time scaling of the factorized path ==")
for n in (256, 1024, 4096):
    params = FmParams(0.0, rng.normal(1, n)[0], rng.normal(n, 16))
    xv = rng.normal(1, n)[0]
    reps = 50
    # the naive path is O(n^2 d), so it repeats fewer times as n grows
    naive_reps = max(1, reps * 256 ** 2 // n ** 2)
    t0 = time.perf_counter()
    for _ in range(reps):
        fm_predict(params, xv)
    fact = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(naive_reps):
        fm_predict_naive(params, xv)
    naive = (time.perf_counter() - t0) / naive_reps
    print(f"n={n:5d}: factorized {fact * 1e6:8.1f} us   "
          f"naive {naive * 1e6:10.1f} us   speedup {naive / fact:6.1f}x")
