"""Embedding tables and pooled multi-hot lookups in offsets/indices form.

A mini-batch of t lookups against one table is a CSR-like triple: ``offsets``
of length t+1 (terminal entry equals len(indices)), flat ``indices`` into the
table, and optional per-index ``weights``. Segment j of a batch is
``indices[offsets[j]:offsets[j+1]]``; its pooled output is the weighted sum
of the referenced rows, accumulated in ascending flat-index order (a strict
fold, so results are reproducible and independent of everything outside the
segment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import Matrix, RngStream

__all__ = [
    "EmbeddingTable",
    "SparseBatch",
    "SparseRowGrad",
    "LookupIndexError",
    "offsets_from_lengths",
    "lengths_from_offsets",
    "lookup_batch",
    "lookup_backward",
]


class LookupIndexError(IndexError):
    """An index falls outside the table; carries table id, position, index."""

    def __init__(self, table_id, position, index, num_rows):
        self.table_id = table_id
        self.position = position
        self.index = index
        super().__init__(
            f"table {table_id}: index {index} at flat position {position} "
            f"out of range [0, {num_rows})"
        )


@dataclass
class EmbeddingTable:
    """An m x d parameter matrix whose rows embed m categories."""

    weights: Matrix
    table_id: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be m x d, got {self.weights.shape}")

    @property
    def num_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def initialize(cls, num_rows: int, dim: int, stream: RngStream,
                   table_id: int = 0) -> "EmbeddingTable":
        """Rows uniform in (-1/sqrt(d), +1/sqrt(d))."""
        bound = 1.0 / np.sqrt(dim)
        w = (stream.uniform(num_rows, dim) * 2.0 - 1.0) * bound
        return cls(w, table_id)


def _integral(values, name: str) -> np.ndarray:
    """``values`` as int64; a non-integral or non-finite value raises a
    ``ValueError`` naming ``name`` instead of being truncated."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iu":
        as_float = raw.astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(as_float)
                             | (as_float != np.floor(as_float)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"{name} must be integers, got "
                             f"{raw.flat[k]} at flat position {k}")
    return raw.astype(np.int64, copy=False)


@dataclass
class SparseBatch:
    """offsets/indices(/weights) encoding of t pooled lookups."""

    offsets: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.offsets = _integral(self.offsets, "offsets")
        self.indices = _integral(self.indices, "indices")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        self.validate()

    def validate(self):
        o = self.offsets
        if o.ndim != 1 or o.shape[0] < 1:
            raise ValueError("offsets must be 1-D with at least the leading 0")
        if o[0] != 0:
            raise ValueError(f"offsets[0] must be 0, got {o[0]}")
        if np.any(np.diff(o) < 0):
            raise ValueError("offsets must be nondecreasing")
        if self.indices.ndim != 1:
            raise ValueError(
                f"indices must be 1-D, got shape {self.indices.shape}")
        if o[-1] != self.indices.shape[0]:
            raise ValueError(
                f"terminal offset {o[-1]} != len(indices) {self.indices.shape[0]}"
            )
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise ValueError(
                f"weights shape {self.weights.shape} does not align with "
                f"indices shape {self.indices.shape}"
            )

    @property
    def num_segments(self) -> int:
        return self.offsets.shape[0] - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def segment_slice(self, j: int) -> slice:
        return slice(int(self.offsets[j]), int(self.offsets[j + 1]))

    def check_bounds(self, table: EmbeddingTable):
        bad = np.nonzero(
            (self.indices < 0) | (self.indices >= table.num_rows)
        )[0]
        if bad.size:
            k = int(bad[0])
            raise LookupIndexError(table.table_id, k, int(self.indices[k]),
                                   table.num_rows)


@dataclass
class SparseRowGrad:
    """Coalesced sparse gradient: ascending unique row ids + one d-vector each."""

    rows: np.ndarray
    values: Matrix

    def to_dense(self, num_rows: int) -> Matrix:
        out = np.zeros((num_rows, self.values.shape[1]))
        out[self.rows] = self.values
        return out


def offsets_from_lengths(lengths) -> np.ndarray:
    """Prefix sums with the leading 0 and the terminal total (CSR style)."""
    lengths = _integral(lengths, "lengths")
    if np.any(lengths < 0):
        raise ValueError("lengths must be nonnegative")
    out = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def lengths_from_offsets(offsets) -> np.ndarray:
    return np.diff(_integral(offsets, "offsets"))


def lookup_batch(table: EmbeddingTable, batch: SparseBatch) -> Matrix:
    """Pooled lookup: row j = sum over segment j of w[index] * weight.

    Empty segments produce zero rows. Accumulation is a strict ascending fold
    over the flat index positions of each segment.
    """
    batch.check_bounds(table)
    t = batch.num_segments
    d = table.dim
    gathered = table.weights[batch.indices]
    if batch.weights is not None:
        gathered = gathered * batch.weights[:, None]
    out = np.zeros((t, d))
    lens = batch.lengths()
    if t and lens.size and np.all(lens == lens[0]) and lens[0] > 0:
        # uniform segment length: one fused strict fold along the middle axis
        k = int(lens[0])
        np.add.reduce(gathered.reshape(t, k, d), axis=1, out=out)
        return out
    offs = batch.offsets
    for j in range(t):
        lo, hi = int(offs[j]), int(offs[j + 1])
        if hi > lo:
            np.add.reduce(gathered[lo:hi], axis=0, out=out[j])
    return out


# Rows still folding when fewer than this many are left finish with one
# np.add.at, so a row hit thousands of times does not cost as many rounds.
_TAIL_ROWS = 32


def lookup_backward(table: EmbeddingTable, batch: SparseBatch,
                    grad_out: Matrix) -> SparseRowGrad:
    """Adjoint of lookup_batch: accumulate grad rows onto table rows.

    Row r receives sum of grad_out[segment(k)] * weight[k] over every flat
    position k with indices[k] == r, folded in ascending k from a zero row.
    Untouched rows are absent from the result; output rows are sorted
    ascending.

    Positions are stable-sorted by row once. Round 0 starts every row with
    its first contribution (plus 0.0, which a fold from a zero row adds);
    round r adds the r-th contribution of every row that has one, in one
    vectorised add over distinct rows. Once fewer than ``_TAIL_ROWS`` rows
    are left, their remaining positions go to one ``np.add.at`` in
    ascending order. Each row therefore sees the same additions in the same
    order as a strict ascending fold, and the bits do not depend on how the
    rows are batched into rounds.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (batch.num_segments, table.dim):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match "
            f"(segments, dim) = {(batch.num_segments, table.dim)}"
        )
    batch.check_bounds(table)
    nnz = batch.indices.shape[0]
    if nnz == 0:
        return SparseRowGrad(np.empty(0, dtype=np.int64),
                             np.empty((0, table.dim)))
    order = np.argsort(batch.indices, kind="stable")
    sorted_rows = batch.indices[order]
    seg = np.repeat(np.arange(batch.num_segments), batch.lengths())[order]
    weights = None if batch.weights is None else batch.weights[order]

    def contrib(pos):
        c = grad_out[seg[pos]]
        if weights is not None:
            c *= weights[pos, None]
        return c

    is_start = np.empty(nnz, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    counts = np.diff(starts, append=nnz)
    values = contrib(starts)
    values += 0.0           # 0.0 + (-0.0) is +0.0
    active = np.arange(starts.shape[0])
    r = 1
    while True:
        active = active[counts[active] > r]
        if active.shape[0] < _TAIL_ROWS:
            break
        values[active] += contrib(starts[active] + r)
        r += 1
    if active.shape[0]:
        tail = np.concatenate([np.arange(s + r, s + c) for s, c
                               in zip(starts[active], counts[active])])
        np.add.at(values, np.repeat(active, counts[active] - r),
                  contrib(tail))
    return SparseRowGrad(sorted_rows[starts], values)
