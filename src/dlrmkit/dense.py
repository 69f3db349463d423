"""Dense numeric kernel: deterministic matrix products, activations, seeded RNG
streams, and partition-invariant cross-sample reductions.

Everything here is float64. Two determinism guarantees matter to the rest of
the package:

* ``matmul`` makes one BLAS GEMM call per tile of ``TILE_ROWS`` (64) rows,
  zero-padding partial tiles, and places row ``i`` of ``a`` at position
  ``(first_row + i) % TILE_ROWS`` of its call. A caller that passes a row
  slice's batch offset as ``first_row`` sends every row through the same
  call shape, at the same position, as the full batch does, so the rows of
  ``matmul(a[lo:hi], b, first_row=lo)`` are bit-identical to rows
  ``lo:hi`` of ``matmul(a, b)``. This holds whatever the BLAS does with a
  row's position in its call; it assumes only that a GEMM output row
  depends on its own input row and ``b``, not on the other rows. (A plain
  whole-matrix GEMM does not have this property: its kernels sum in
  different orders for different matrix heights.) When ``b``'s width N is
  not a multiple of 8, OpenBLAS's AVX-512 kernels send the fringe columns
  down another path, whose bits differ between one and two BLAS threads;
  so every such ``b`` is zero-padded to a multiple of 8 columns and the
  result sliced back to N.

* ``grid_components`` splits each full-batch operand of a cross-sample
  reduction once, in place, into grid-snapped slices on grids anchored at
  its column abs-maxima; a row's slices are those any shard holding it
  would snap onto the same grids. ``outer_sum_components`` /
  ``col_sum_components`` take the slices of the whole sample set and
  reduce over the sample axis with products and partial sums that are
  exact in float64. Exact arithmetic is associative, so each bucket is
  bit-identical to the ascending-shard sum of the per-shard buckets for
  any contiguous partition of the samples, the property that makes
  data-parallel gradient allreduce match serial training exactly. They
  yield one bucket per slice pair (level), one product or column sum
  each, and ``sum_components`` folds each bucket into the result as soon
  as it is drawn: a weight gradient holds the result and one bucket, never
  all six components. A zero column snaps to +0.0 through the same add
  and subtract as any other; a NaN column stays NaN.

* A kernel's independent GEMM calls, ``matmul``'s tile calls and the
  blocks of output rows a bucket is cut into, may run on ``WORKERS``
  threads: the calling one and ``WORKERS - 1`` of one lazily made pool.
  ``WORKERS`` is the CPUs this process may use over the threads each
  OpenBLAS call uses, so a default run, where OpenBLAS already takes every
  CPU, has one and runs every call inline, as do calls of fewer than
  ``MIN_WORK`` multiply-adds. The caller allocates every output (and every
  zero-padded partial tile) before the calls start, and each call writes
  its own rows of it, so no call reads what another writes and the
  threads cannot change a bit: the tile calls are the inline path's calls,
  at the same shapes and row positions, and a bucket's row blocks are
  exact sums, as any cut of its rows is.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Matrix",
    "RngStream",
    "TILE_ROWS",
    "WORKERS",
    "MIN_WORK",
    "kernel_workers",
    "run_calls",
    "matmul",
    "dot",
    "activation",
    "activation_grad",
    "CROSS_TERMS",
    "reduction_bits",
    "grid_components",
    "outer_sum_components",
    "col_sum_components",
    "sum_components",
]

# A Matrix is a 2-D float64 ndarray (row-major). Helpers below validate shape.
Matrix = np.ndarray


class ShapeError(ValueError):
    """Dimension mismatch between operands; message names both shapes."""


def _as_matrix(a, name: str) -> Matrix:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    return out


# ---------------------------------------------------------------------------
# kernel threads

def kernel_workers(cpus: int, environ) -> int:
    """Threads for a kernel's independent GEMM calls: ``cpus`` over the
    threads each OpenBLAS call uses, at least 1.

    The BLAS thread count is read from the variables OpenBLAS reads,
    ``OPENBLAS_NUM_THREADS`` and then ``OMP_NUM_THREADS`` in ``environ``;
    a value that is not a positive integer counts as unset, and with
    neither set OpenBLAS uses every CPU.
    """
    blas_threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            blas_threads = threads
            break
    return max(1, cpus // blas_threads)


WORKERS = kernel_workers(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1, os.environ)
# Multiply-adds below which a call runs inline: a pool hand-off costs more
# than a smaller GEMM, so tiny models never pay for one.
MIN_WORK = 1 << 20


@lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    # made on the first pooled call, and its threads on the first submits
    return ThreadPoolExecutor(threads, thread_name_prefix="dlrmkit-kernel")


def _run_in_order(calls) -> list:
    return [call() for call in calls]


def run_calls(calls, work: int) -> list:
    """The results of the independent zero-argument ``calls``, in order;
    each does about ``work`` multiply-adds.

    With ``WORKERS`` > 1, two or more calls and ``work`` ≥ ``MIN_WORK``,
    the calls are cut into ``WORKERS`` contiguous groups: the first runs on
    the calling thread, the others on the pool, each under a copy of the
    caller's context (so numpy's ``errstate`` holds in them). Otherwise
    they run inline in order. It returns once every call has finished, and
    a call's exception is raised here. Calls must not share an output, and
    should only call numpy: they may run concurrently.
    """
    workers = WORKERS
    if workers == 1 or len(calls) < 2 or work < MIN_WORK:
        return _run_in_order(calls)
    cuts = [len(calls) * w // workers for w in range(workers + 1)]
    groups = [calls[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    pool = _pool(workers - 1)
    futures = [pool.submit(contextvars.copy_context().run, _run_in_order, g)
               for g in groups[1:]]
    try:
        results = _run_in_order(groups[0])
    finally:
        for future in futures:      # every call is done before this returns
            future.exception()
    for future in futures:
        results += future.result()
    return results


def _gemm(a: Matrix, b: Matrix, out: Matrix):
    """The call ``np.matmul(a, b, out=out)``, looking ``np.matmul`` up when
    it runs."""
    return lambda: np.matmul(a, b, out=out)


# ---------------------------------------------------------------------------
# products

# Rows per GEMM call in ``matmul``. Row slices keep their bits at any
# height; 64 keeps the 64-row shards of a 256 batch on 4 devices in whole
# tiles.
TILE_ROWS = 64


def matmul(a: Matrix, b: Matrix, first_row: int = 0) -> Matrix:
    """Matrix product whose rows keep their bits under row slicing.

    Row ``i`` of ``a`` sits at position ``(first_row + i) % TILE_ROWS`` of
    a ``TILE_ROWS``-row GEMM call, and zeros fill the rest of a partial
    tile. A ``b`` whose width N is not a multiple of 8 gets zero columns up
    to the next multiple, and the result keeps the first N. So
    ``matmul(a[lo:hi], b, first_row=lo)`` equals rows ``lo:hi`` of
    ``matmul(a, b)`` bit for bit, as long as a GEMM output row depends only
    on its own input row and ``b``. A slice that starts or ends inside a
    tile pays for the whole tile. Raises ShapeError on an inner-dimension
    mismatch.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}"
        )
    # row-major tiles whatever a's layout, so a row's call is the same
    a = np.ascontiguousarray(a)
    m, n = a.shape[0], b.shape[1]
    if n % 8:
        # every output column then lies in a whole 8-column block, so none
        # takes the fringe kernel path
        wide = np.zeros((b.shape[0], -(-n // 8) * 8), dtype=np.float64)
        wide[:, :n] = b
        b = wide
    # out row start + i holds row i of a; out's tiles are the GEMM calls,
    # and an empty a makes none
    start = first_row % TILE_ROWS if m else 0
    out = np.empty((-(-(start + m) // TILE_ROWS) * TILE_ROWS, b.shape[1]),
                   dtype=np.float64)
    calls = []
    for t in range(0, out.shape[0], TILE_ROWS):
        lo, hi = max(t - start, 0), min(t + TILE_ROWS - start, m)
        tile = a[lo:hi]
        if hi - lo < TILE_ROWS:
            tile = np.zeros((TILE_ROWS, a.shape[1]), dtype=np.float64)
            tile[start + lo - t:start + hi - t] = a[lo:hi]
        calls.append(_gemm(tile, b, out[t:t + TILE_ROWS]))
    run_calls(calls, TILE_ROWS * a.shape[1] * b.shape[1])
    return out[start:start + m, :n]


def dot(u, v) -> float:
    """Inner product, defined as the 1 x n by n x 1 matmul (same reduction)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise ShapeError(f"dot expects vectors, got {u.shape} and {v.shape}")
    if u.shape[0] != v.shape[0]:
        raise ShapeError(f"dot length mismatch: {u.shape[0]} vs {v.shape[0]}")
    return float(matmul(u[None, :], v[:, None])[0, 0])


# ---------------------------------------------------------------------------
# activations

def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Componentwise activation map."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "identity":
        return x.copy()
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_grad(x: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation, evaluated at pre-activation ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.where(x > 0.0, 1.0, 0.0)
    if kind == "sigmoid":
        s = _sigmoid(x)
        return s * (1.0 - s)
    if kind == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown activation kind: {kind!r}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Evaluate on the side that never overflows exp().
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# seeded RNG streams

@dataclass
class RngStream:
    """Seedable, portable random stream (numpy Philox, counter-based).

    The same (seed, key) always reproduces the same sequence. Substreams for
    independent consumers come from ``derive``, which maps a tuple of integer
    keys through SeedSequence spawn keys, so stream layout is stable no matter
    the draw order elsewhere.
    """

    seed: int
    key: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(key))

    def uniform(self, rows: int, cols: int) -> Matrix:
        """Matrix of draws from [0, 1)."""
        return self._gen.random((rows, cols), dtype=np.float64)

    def normal(self, rows: int, cols: int) -> Matrix:
        """Matrix of standard-normal draws."""
        return self._gen.standard_normal((rows, cols), dtype=np.float64)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size, dtype=np.int64)


# ---------------------------------------------------------------------------
# partition-invariant cross-sample reductions
#
# To sum f64 values over the sample axis with a result that does not depend
# on how samples are grouped, each factor column is split into LEVELS
# magnitude slices snapped to power-of-two grids anchored at the column's
# batch-wide abs-max. Slice quotients carry at most `bits` significant bits,
# so slice products carry at most 2*bits, and sums of up to n of them stay
# below 2^53 grid units: every add is exact, hence order- and
# partition-independent. Only the final recombination of the (few) slice
# totals rounds, and that happens identically everywhere.

LEVELS = 3
# (p, q) slice pairs kept for weight-gradient products, in recombination
# order; dropped pairs contribute below ~2^-80 relative to the column scale.
CROSS_TERMS = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1))


def reduction_bits(n_total: int) -> int:
    """Significand bits per slice so that n_total exact products sum exactly."""
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    return (53 - max(2, math.ceil(math.log2(max(n_total, 2))))) // 2


def grid_components(a: Matrix, n_total: int) -> list[Matrix]:
    """Split the columns of the full-batch ``a`` into LEVELS grid-snapped
    slices, in place: ``a`` itself becomes the last slice.

    Each column's grids are anchored at its abs-max over ``a``'s rows. Given
    the grid, a snap is elementwise, so a row's slices do not depend on the
    other rows, and a column max is the same over any partition of them.
    Non-finite inputs void the exactness guarantee. A zero column snaps to
    +0.0, since (+-0 + c) - c = +0.0; a NaN propagates.
    """
    bits = reduction_bits(n_total)
    # col_max <= 2^e; the floor keeps the grid of every kept slice product
    # (p + q <= 4) at or above 2^-1074, so BLAS never rounds one away
    e = np.maximum(np.frexp(np.abs(a).max(axis=0, initial=0.0))[1],
                   2 * bits - 537)
    out = [np.empty(a.shape, dtype=np.float64) for _ in range(LEVELS - 1)]
    out.append(a)
    # (rem + c) - c and rem - snapped, each op in place: the remainder
    # lives in ``a`` until the last slice is snapped from it, so nothing
    # operand-sized is allocated besides the new slices
    rem = a
    for p, snapped in enumerate(out, start=1):
        # round-to-nearest-even onto the grid 2^(e - p*bits) via the
        # 1.5*2^52 magic constant
        c = np.ldexp(1.5, 52) * np.ldexp(1.0, e - p * bits)
        np.add(rem, c, out=snapped)
        snapped -= c
        if p < LEVELS:
            rem -= snapped
    return out


def outer_sum_components(gs, xs, out=None):
    """Exact-slice components of sum_b outer(gy[b], x[b]) over the samples,
    given the slices ``gs`` of gy and ``xs`` of x from ``grid_components``.

    Yields one bucket per CROSS_TERMS pair, the product of that slice pair
    over every sample: an exact value, equal bit for bit to the sum of that
    product over the row blocks of any contiguous partition, in any order.
    Folding the buckets with ``sum_components`` gives the gradient.

    The first bucket is ``out`` if given, else a fresh (gy_cols x x_cols)
    matrix; every later one is yielded in one reused buffer, so a bucket
    must be used (folded) before the next is drawn. One matrix is thus in
    flight besides the caller's. Each bucket is one GEMM call per block of
    its rows, ``WORKERS`` contiguous blocks (fewer if it has fewer rows),
    run by ``run_calls``; every partial sum is exact, so the cut changes no
    bit.
    """
    n, shape = gs[0].shape[0], (gs[0].shape[1], xs[0].shape[1])
    blocks = min(WORKERS, shape[0]) or 1
    cuts = [shape[0] * w // blocks for w in range(blocks + 1)]
    work = n * -(-shape[0] // blocks) * shape[1]
    bucket = np.empty(shape, dtype=np.float64) if out is None else out
    for k, (p, q) in enumerate(CROSS_TERMS):
        if k == 1:      # the caller keeps the first bucket as its result
            bucket = np.empty(shape, dtype=np.float64)
        g, x = gs[p - 1], xs[q - 1]
        run_calls([_gemm(g[:, r0:r1].T, x, bucket[r0:r1])
                   for r0, r1 in zip(cuts, cuts[1:])], work)
        yield bucket


def col_sum_components(gs):
    """Exact-slice components of the per-column sum over the samples, given
    the slices ``gs`` from ``grid_components``: one column sum per slice
    level, exact, as ``outer_sum_components``' buckets are.
    """
    for g in gs:
        yield g.sum(axis=0)


def sum_components(components):
    """Fold the components in order (the only rounding site): the first
    becomes the result, not a copy, and each later one is added into it in
    place as soon as it is drawn, so ``components`` may be one of the
    generators above.
    """
    components = iter(components)
    out = next(components)
    for c in components:
        out += c
    return out
