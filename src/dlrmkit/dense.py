"""Dense numeric kernel: deterministic matrix products, activations, seeded RNG
streams, and partition-invariant cross-sample reductions.

Everything here is float64. Two determinism guarantees matter to the rest of
the package:

* ``matmul`` makes one BLAS GEMM call per tile of a fixed height, the last
  tile zero-padded, so every row goes through a call of the same shape. The
  rows of ``matmul(a, b)`` are bit-identical whether ``a`` is the full
  mini-batch or any row-slice of it, provided a row's bits do not depend on
  its position inside the tile. (A plain whole-matrix GEMM does not have
  this property: its kernels sum in different orders for different matrix
  heights.) OpenBLAS's AVX-512 kernels make a row depend on its position in
  tiles of 16 or more rows when ``b`` has an odd width N > 192 that is not
  a multiple of 8, so such a ``b`` is zero-padded to a multiple of 8
  columns and the result sliced back to N. The tile height is picked once
  per process by a self-check on first use, which runs the padded product;
  see ``matmul_tile_rows``.

* ``grid_components`` splits each operand of a cross-sample reduction once
  into grid-snapped slices; ``outer_sum_components`` / ``col_sum_components``
  take those slices and reduce over the sample axis with products and
  partial sums that are exact in float64. Exact arithmetic is associative,
  so the reduction result is bit-identical for any contiguous partition of
  the samples, the property that makes data-parallel gradient allreduce
  match serial training exactly. Given ``out=``, they add a shard's
  components into an earlier shard's in place, so a reduction over shards
  holds one set of components at a time. A zero column snaps to +0.0
  through the same add and subtract as any other; a NaN column stays NaN.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Matrix",
    "RngStream",
    "matmul",
    "matmul_tile_rows",
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
# products

# Tile heights tried by the self-check, tallest (fastest) first; 1, the
# per-row product, is the fallback when none passes. 128 is left out: its
# self-check takes about 8 s against 3 s at 64, and the 64-row shards of a
# 256 batch on 4 devices would run padded to 128 rows.
TILE_CANDIDATES = (64, 32, 16, 8, 4, 2)
# OpenBLAS's AVX-512 kernels make a row's bits depend on its position in
# tiles of 16 or more rows when N > 192 is not a multiple of 8: the fringe
# columns take another kernel path. Such a b is zero-padded to a multiple
# of 8 columns inside the tiled product, which the self-check runs as is.
_PAD_WIDER_THAN = 192
# Probe shapes. The N list includes odd widths above _PAD_WIDER_THAN, which
# the padding must make position-invariant. The K list reaches the depths
# of production products (256 to 1024), with one depth that is not a
# multiple of 8. Largest shapes come first so that a failing tile height is
# rejected after few calls.
_PROBE_K = (1024, 257, 65, 64, 3, 1)
_PROBE_N = (1023, 257, 200, 193, 100, 64, 13, 7, 1)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with per-row determinism.

    Each tile of ``matmul_tile_rows()`` rows of ``a`` is one GEMM call; the
    rows past the last whole tile are copied into one zero-padded tile. A
    ``b`` wider than 192 columns whose width N is not a multiple of 8 gets
    zero columns up to the next multiple, and the result keeps the first N.
    result[i] depends only on a[i] and b, so row-slicing ``a`` never changes
    the bits of the surviving rows. Raises ShapeError on an inner-dimension
    mismatch.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}"
        )
    # The self-check only probes row-major tiles.
    return _tiled_matmul(np.ascontiguousarray(a), b, matmul_tile_rows())


def _tiled_matmul(a: Matrix, b: Matrix, tile: int) -> Matrix:
    m, n = a.shape[0], b.shape[1]
    if n > _PAD_WIDER_THAN and n % 8:
        # every output column then lies in a whole 8-column block, so none
        # takes the fringe kernel path
        wide = np.zeros((b.shape[0], -(-n // 8) * 8), dtype=np.float64)
        wide[:, :n] = b
        b = wide
    whole = m - m % tile
    out = np.empty((-(-m // tile) * tile, b.shape[1]), dtype=np.float64)
    for i in range(0, whole, tile):
        np.matmul(a[i:i + tile], b, out=out[i:i + tile])
    if whole != m:
        tail = np.zeros((tile, a.shape[1]), dtype=np.float64)
        tail[:m - whole] = a[whole:]
        np.matmul(tail, b, out=out[whole:])
    return out[:m, :n]


@functools.cache
def matmul_tile_rows() -> int:
    """Rows per GEMM call in ``matmul``, fixed for the life of the process.

    Computed on first use as the tallest of TILE_CANDIDATES whose tiled
    product passes the row-position self-check, else 1 (one call per row).
    The check costs more at taller tiles: on one core of a shared 2-vCPU
    AVX-512 host, 2.9 s when it settles on 64 rows (1.2 s at 32, 0.3 s at
    8), paid once per process.
    """
    return _choose_tile_rows(_tiled_matmul)


def _choose_tile_rows(product) -> int:
    """Tallest tile height in TILE_CANDIDATES at which ``product(a, b, tile)``
    gives every row the same bits at every position in the tile; 1 if none.
    """
    for tile in TILE_CANDIDATES:
        if _rows_position_invariant(product, tile):
            return tile
    return 1


def _rows_position_invariant(product, tile: int) -> bool:
    # Row r of the 2*tile probe rows sits at position r % tile in the full
    # product and at r - o in the window starting at o, so comparing every
    # window offset 1..tile-1 compares each row across every position.
    rng = np.random.default_rng(0)
    for k in _PROBE_K:
        # Magnitudes spanning ~24 decades make any change in the summation
        # order show in the bits.
        a = rng.standard_normal((2 * tile, k)) * np.exp2(
            rng.integers(-40, 41, size=(2 * tile, k)))
        for n in _PROBE_N:
            b = rng.standard_normal((k, n))
            for b_ordered in (b, np.asfortranarray(b)):
                full = product(a, b_ordered, tile)
                for o in range(1, tile):
                    window = product(a[o:o + tile], b_ordered, tile)
                    if not np.array_equal(window, full[o:o + tile]):
                        return False
    return True


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


def grid_components(a: Matrix, col_max: np.ndarray, n_total: int):
    """Split columns of ``a`` into LEVELS grid-snapped slices.

    col_max must be the abs-max of each column over the FULL sample set (all
    shards), so the grids are identical no matter which row-slice ``a`` is.
    Values above col_max (never the case when col_max is computed correctly)
    or non-finite inputs void the exactness guarantee. A zero column
    (col_max 0) snaps to +0.0, since (+-0 + c) - c = +0.0; a NaN propagates.
    """
    a = np.asarray(a, dtype=np.float64)
    bits = reduction_bits(n_total)
    # col_max <= 2^e
    e = np.frexp(np.asarray(col_max, dtype=np.float64))[1]
    comps = []
    rem = a
    for p in range(1, LEVELS + 1):
        # round-to-nearest-even onto the grid 2^(e - p*bits) via the
        # 1.5*2^52 magic constant
        c = np.ldexp(1.5, 52) * np.ldexp(1.0, e - p * bits)
        snapped = (rem + c) - c
        comps.append(snapped)
        if p < LEVELS:
            rem = rem - snapped
    return comps


def outer_sum_components(gs, xs, out=None):
    """Exact-slice components of sum_b outer(gy[b], x[b]), given the slices
    ``gs`` of gy and ``xs`` of x from ``grid_components``.

    Returns one (gy_cols x x_cols) matrix per CROSS_TERMS pair. Each is an
    exact value: summing the per-shard components elementwise and then
    ``sum_components`` gives bits identical to computing over the full batch.

    With ``out`` (a list of such matrices, say an earlier shard's result),
    each product is computed into one reused buffer and added in place into
    its ``out`` entry, which is returned; no other product matrix is
    allocated. The adds are the ones an elementwise sum of the two lists
    would make, so the bits are too.
    """
    if out is None:
        return [gs[p - 1].T @ xs[q - 1] for p, q in CROSS_TERMS]
    buf = np.empty((gs[0].shape[1], xs[0].shape[1]), dtype=np.float64)
    for acc, (p, q) in zip(out, CROSS_TERMS):
        np.matmul(gs[p - 1].T, xs[q - 1], out=buf)
        acc += buf
    return out


def col_sum_components(gs, out=None):
    """Exact-slice components of the per-column sum over samples, given the
    slices ``gs`` from ``grid_components``.

    With ``out`` (an earlier shard's result), the components are added into
    it in place and it is returned, as in ``outer_sum_components``.
    """
    if out is None:
        return [g.sum(axis=0) for g in gs]
    for acc, g in zip(out, gs):
        acc += g.sum(axis=0)
    return out


def sum_components(components):
    """Recombine slice totals in fixed order (the only rounding site)."""
    out = np.array(components[0], dtype=np.float64, copy=True)
    for c in components[1:]:
        out += c
    return out
