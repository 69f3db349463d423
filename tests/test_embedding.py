import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlrmkit.dense import RngStream
from dlrmkit.embedding import (
    EmbeddingTable,
    LookupIndexError,
    SparseBatch,
    _TAIL_ROWS,
    lengths_from_offsets,
    lookup_backward,
    lookup_batch,
    offsets_from_lengths,
)

from oracles import (
    grad_rel_err,
    lookup_backward_ref,
    lookup_batch_ref,
    matmul_ref,
    multihot_matrix,
)


class TestOffsets:
    def test_paper_footnote_layout(self):
        # lengths {2,3,1} <-> offsets {0,2,5}; we carry the terminal entry too
        offs = offsets_from_lengths([2, 3, 1])
        assert offs.tolist() == [0, 2, 5, 6]
        assert offs[:-1].tolist() == [0, 2, 5]

    def test_empty(self):
        assert offsets_from_lengths([]).tolist() == [0]

    def test_prefix_sum_oracle(self):
        assert offsets_from_lengths([0, 0, 4]).tolist() == [0, 0, 0, 4]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            offsets_from_lengths([1, -1])

    @pytest.mark.parametrize("lengths, bad", [
        ([1.5, 2.9], "1.5 at flat position 0"),
        ([2.0, np.nan], "nan at flat position 1"),
        ([np.inf], "inf at flat position 0"),
    ])
    def test_rejects_non_integral_lengths(self, lengths, bad):
        with pytest.raises(ValueError,
                           match=f"^lengths must be integers, got {bad}$"):
            offsets_from_lengths(lengths)

    def test_accepts_integral_float_lengths(self):
        offs = offsets_from_lengths([2.0, 0.0, 3.0])
        assert offs.dtype == np.int64
        assert offs.tolist() == [0, 2, 2, 5]
        assert lengths_from_offsets([0.0, 2.0, 5.0]).tolist() == [2, 3]
        with pytest.raises(ValueError, match="^offsets must be integers"):
            lengths_from_offsets([0, 1.5])

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, lengths):
        assert lengths_from_offsets(
            offsets_from_lengths(lengths)).tolist() == lengths


class TestSparseBatchInvariants:
    def test_rejects_bad_leading_offset(self):
        with pytest.raises(ValueError):
            SparseBatch(np.array([1, 2]), np.array([0, 0]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            SparseBatch(np.array([0, 2, 1]), np.array([0, 0]))

    def test_rejects_terminal_mismatch(self):
        with pytest.raises(ValueError):
            SparseBatch(np.array([0, 1]), np.array([0, 0]))

    def test_rejects_2d_indices(self):
        with pytest.raises(ValueError, match=r"1-D, got shape \(2, 2\)"):
            SparseBatch(np.array([0, 2]), [[1, 2], [3, 4]])

    @pytest.mark.parametrize("indices, bad", [
        ([1.7], "1.7 at flat position 0"),
        ([0.0, 2.5, 1.0], "2.5 at flat position 1"),
        ([1.0, np.nan], "nan at flat position 1"),
        ([np.inf], "inf at flat position 0"),
    ])
    def test_rejects_non_integral_indices(self, indices, bad):
        with pytest.raises(ValueError, match=f"integers, got {bad}"):
            SparseBatch(np.array([0, len(indices)]), indices)

    @pytest.mark.parametrize("offsets, bad", [
        ([0, 1.7], "1.7 at flat position 1"),
        ([0.5, 4], "0.5 at flat position 0"),
        ([0, np.nan], "nan at flat position 1"),
    ])
    def test_rejects_non_integral_offsets(self, offsets, bad):
        with pytest.raises(ValueError,
                           match=f"^offsets must be integers, got {bad}$"):
            SparseBatch(offsets, [4, 0, 1, 2])

    def test_accepts_integral_float_offsets(self):
        b = SparseBatch([0.0, 1.0, 3.0], [4, 0, 1])
        assert b.offsets.dtype == np.int64
        assert b.offsets.tolist() == [0, 1, 3]

    def test_accepts_integral_values_of_any_dtype(self):
        for indices in ([2.0, 0.0], np.array([2, 0], np.int32),
                        np.array([2, 0], np.uint8), []):
            b = SparseBatch(np.array([0, len(indices)]), indices)
            assert b.indices.dtype == np.int64
            assert b.indices.tolist() == list(map(int, indices))

    def test_rejects_misaligned_weights(self):
        with pytest.raises(ValueError):
            SparseBatch(np.array([0, 2]), np.array([0, 1]),
                        np.array([1.0]))


def fixture_table():
    w = np.zeros((6, 2))
    w[0] = [1.0, 0.0]
    w[1] = [0.0, 1.0]
    w[2] = [2.0, 2.0]
    w[3] = [3.0, 3.0]
    w[4] = [9.0, 9.0]  # arbitrary, never referenced
    w[5] = [1.0, 1.0]
    return EmbeddingTable(w, table_id=4)


class TestLookup:
    def test_single_index_is_table_row(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 1]), np.array([2]))
        out = lookup_batch(table, batch)
        assert np.array_equal(out, table.weights[2:3])

    def test_zero_weights_zero_rows(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 2]), np.array([0, 2]),
                            np.array([0.0, 0.0]))
        assert np.array_equal(lookup_batch(table, batch), np.zeros((1, 2)))

    def test_footnote_index_layout(self):
        # segments {0,2}, {0,1,5}, {3} over the fixture rows
        table = fixture_table()
        batch = SparseBatch(offsets_from_lengths([2, 3, 1]),
                            np.array([0, 2, 0, 1, 5, 3]))
        out = lookup_batch(table, batch)
        assert np.array_equal(out, [[3.0, 2.0], [2.0, 2.0], [3.0, 3.0]])

    def test_empty_segment_zero_row(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 0, 1]), np.array([5]))
        out = lookup_batch(table, batch)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.array_equal(out[1], table.weights[5])

    def test_out_of_range_error_payload(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 2]), np.array([0, 17]))
        with pytest.raises(LookupIndexError) as err:
            lookup_batch(table, batch)
        assert err.value.table_id == 4
        assert err.value.position == 1
        assert err.value.index == 17

    def _random_batch(self, rng, m, t, sorted_unique, weights, max_len=5):
        lengths, idx_chunks, w_chunks = [], [], []
        for _ in range(t):
            n = int(rng.integers(0, max_len + 1))
            if sorted_unique:
                n = min(n, m)
                seg = np.sort(rng.choice(m, size=n, replace=False))
            else:
                seg = rng.integers(0, m, size=n)
            lengths.append(n)
            idx_chunks.append(seg)
            w_chunks.append(rng.integers(-3, 4, size=n).astype(float)
                            if weights else None)
        indices = (np.concatenate(idx_chunks) if idx_chunks
                   else np.empty(0, np.int64))
        w = None
        if weights:
            w = (np.concatenate(w_chunks) if w_chunks
                 else np.empty(0, np.float64))
        return SparseBatch(offsets_from_lengths(lengths),
                           indices.astype(np.int64), w)

    def test_equals_dense_oracle_integer_values(self):
        # Integer-valued tables/weights: sums are exact under any
        # associativity, so the dense multi-hot oracle matches bit for bit
        # even with duplicate and unsorted in-segment indices.
        rng = np.random.default_rng(31)
        for weights in (False, True):
            for _ in range(10):
                m = int(rng.integers(1, 64))
                table = EmbeddingTable(
                    rng.integers(-8, 9, size=(m, 3)).astype(float))
                batch = self._random_batch(rng, m, int(rng.integers(1, 9)),
                                           sorted_unique=False,
                                           weights=weights)
                dense_a = multihot_matrix(batch, m)
                assert np.array_equal(lookup_batch(table, batch),
                                      matmul_ref(dense_a, table.weights))

    def test_equals_dense_oracle_sorted_unique_floats(self):
        # With sorted, duplicate-free segments the strict ascending fold of
        # the lookup walks rows in the same order as the oracle's k loop:
        # equality is exact even for arbitrary float values.
        rng = np.random.default_rng(32)
        for _ in range(10):
            m = int(rng.integers(1, 64))
            table = EmbeddingTable(rng.standard_normal((m, 4)))
            batch = self._random_batch(rng, m, int(rng.integers(1, 9)),
                                       sorted_unique=True, weights=False)
            dense_a = multihot_matrix(batch, m)
            assert np.array_equal(lookup_batch(table, batch),
                                  matmul_ref(dense_a, table.weights))

    def test_general_floats_close_to_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m = int(rng.integers(1, 40))
            table = EmbeddingTable(rng.standard_normal((m, 3)))
            batch = self._random_batch(rng, m, 6, sorted_unique=False,
                                       weights=True)
            dense_a = multihot_matrix(batch, m)
            assert np.allclose(lookup_batch(table, batch),
                               matmul_ref(dense_a, table.weights),
                               rtol=1e-12, atol=1e-12)


class TestLookupBackward:
    def test_row_referenced_twice_gets_double_grad(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 2]), np.array([3, 3]))
        g = np.array([[0.5, -1.0]])
        out = lookup_backward(table, batch, g)
        assert out.rows.tolist() == [3]
        assert np.array_equal(out.values, 2.0 * g)

    def test_untouched_rows_absent(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 1, 2]), np.array([5, 1]))
        out = lookup_backward(table, batch, np.ones((2, 2)))
        assert out.rows.tolist() == [1, 5]

    def test_weighted_contributions(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 2]), np.array([0, 0]),
                            np.array([2.0, 3.0]))
        out = lookup_backward(table, batch, np.array([[1.0, 1.0]]))
        assert np.array_equal(out.values, [[5.0, 5.0]])

    def test_shape_mismatch(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError):
            lookup_backward(table, batch, np.ones((2, 2)))

    def test_finite_difference_on_small_table(self):
        rng = np.random.default_rng(40)
        table = EmbeddingTable(rng.standard_normal((5, 3)))
        batch = SparseBatch(offsets_from_lengths([2, 3, 1]),
                            np.array([0, 2, 0, 1, 4, 3]),
                            rng.standard_normal(6))
        target = rng.standard_normal((3, 3))

        def loss():
            diff = lookup_batch(table, batch) - target
            return 0.5 * float((diff * diff).sum())

        grad_out = lookup_batch(table, batch) - target
        sparse = lookup_backward(table, batch, grad_out)
        dense_grad = sparse.to_dense(5)
        h = 1e-6
        for r in range(5):
            for c in range(3):
                orig = table.weights[r, c]
                table.weights[r, c] = orig + h
                up = loss()
                table.weights[r, c] = orig - h
                down = loss()
                table.weights[r, c] = orig
                fd = (up - down) / (2 * h)
                assert grad_rel_err(dense_grad[r, c], fd, floor=1e-3) < 1e-6

    def test_directional_derivative(self):
        rng = np.random.default_rng(41)
        table = EmbeddingTable(rng.standard_normal((8, 4)))
        batch = SparseBatch(offsets_from_lengths([3, 2, 4]),
                            rng.integers(0, 8, 9),
                            rng.standard_normal(9))
        g = rng.standard_normal((3, 4))
        direction = rng.standard_normal((8, 4))
        sparse = lookup_backward(table, batch, g)
        lhs = float((sparse.to_dense(8) * direction).sum())
        eps = 1e-7
        shifted = EmbeddingTable(table.weights + eps * direction)
        rhs = float((g * (lookup_batch(shifted, batch)
                          - lookup_batch(table, batch))).sum()) / eps
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-9) < 1e-6

    def test_empty_batch(self):
        table = fixture_table()
        batch = SparseBatch(np.array([0, 0]), np.empty(0, np.int64))
        out = lookup_backward(table, batch, np.zeros((1, 2)))
        assert out.rows.size == 0 and out.values.shape == (0, 2)


def _zipf_batch():
    """4000 Zipf lookups into 300 rows, 80 segments of 50."""
    idx = np.minimum(np.random.default_rng(92).zipf(1.3, 4000) - 1, 299)
    return SparseBatch(offsets_from_lengths([50] * 80), idx)


def _long_batch():
    """160 segments of 1-100 lookups into 2000 rows, like a desk table's."""
    rng = np.random.default_rng(93)
    lengths = rng.integers(1, 101, 160)
    return SparseBatch(offsets_from_lengths(lengths),
                       rng.integers(0, 2000, int(lengths.sum())))


def _lookup_table(m, d):
    """The m x d table the forward byte test looks up: random rows, except
    that every fifth row (0, 5, 10, ...) is -0.0."""
    values = np.random.default_rng(m * 1000 + d).standard_normal((m, d))
    values[::5] = -0.0
    return EmbeddingTable(values)


def _byte_cases():
    """(table rows, dim, batch, grad_out) cases for the byte-identity
    tests; the forward test looks up ``_lookup_table(m, d)``."""
    rng = np.random.default_rng(90)

    def random_batch(m, lengths, weighted=False):
        nnz = int(lengths.sum())
        return SparseBatch(offsets_from_lengths(lengths),
                           rng.integers(0, m, nnz),
                           rng.standard_normal(nnz) if weighted else None)

    zipf = _zipf_batch()
    # segment 0 is all -0.0 and alone holds row 7; rows 2 and 3 mix +0.0
    # and -0.0 contributions
    signed = np.array([[-0.0, -0.0, -0.0],
                       [-0.0, 0.0, 1.5],
                       [0.0, -0.0, -0.0],
                       [-2.0, -0.0, 0.0]])
    signed_offsets = offsets_from_lengths([2, 3, 2, 1])
    signed_indices = np.array([7, 7, 2, 3, 2, 3, 2, 9])
    return [
        pytest.param(500, 8, random_batch(500, rng.integers(1, 40, 64)),
                     rng.standard_normal((64, 8)), id="uniform"),
        pytest.param(300, 8, zipf, rng.standard_normal((80, 8)), id="zipf"),
        pytest.param(300, 8,
                     SparseBatch(zipf.offsets, zipf.indices,
                                 rng.standard_normal(zipf.indices.size)),
                     rng.standard_normal((80, 8)), id="zipf-weighted"),
        pytest.param(50, 5, random_batch(50, rng.integers(0, 6, 40), True),
                     rng.standard_normal((40, 5)), id="weighted"),
        pytest.param(10, 3, SparseBatch(signed_offsets, signed_indices),
                     signed, id="signed-zeros"),
        pytest.param(10, 3,
                     SparseBatch(signed_offsets, signed_indices,
                                 np.array([1.0, 0.0, -1.0, 2.0, -0.0, 1.0,
                                           3.0, -1.0])),
                     signed, id="signed-zeros-weighted"),
        pytest.param(40, 1, random_batch(40, rng.integers(1, 30, 50)),
                     rng.standard_normal((50, 1)), id="dim-1"),
        pytest.param(6, 4, random_batch(6, np.array([0, 3, 0, 0, 4, 0])),
                     rng.standard_normal((6, 4)), id="empty-segments"),
        pytest.param(6, 4, SparseBatch(np.array([0, 1]), np.array([5])),
                     rng.standard_normal((1, 4)), id="single-index"),
        pytest.param(6, 4,
                     SparseBatch(np.array([0, 0, 0]), np.empty(0, np.int64)),
                     rng.standard_normal((2, 4)), id="nnz-0"),
        # one id per sample, as a Criteo categorical feature has
        pytest.param(1000, 16,
                     SparseBatch(np.arange(129), rng.integers(0, 1000, 128)),
                     rng.standard_normal((128, 16)), id="criteo-length-1"),
        # rows 0 and 5 of the looked-up table are -0.0: alone, repeated,
        # mixed with other rows, and weighted by signed values and zeros
        pytest.param(10, 3,
                     SparseBatch(offsets_from_lengths([1, 2, 2, 3, 0, 2]),
                                 np.array([0, 5, 0, 0, 1, 2, 5, 0, 5, 3]),
                                 np.array([1.0, 1.0, 2.0, -1.0, 0.5, 1.0,
                                           -0.0, 3.0, -2.0, 0.0])),
                     rng.standard_normal((6, 3)), id="negative-zero-rows"),
        pytest.param(2000, 8, _long_batch(), rng.standard_normal((160, 8)),
                     id="long-segments"),
    ]


class TestLookupBackwardBytes:
    """The round-folding backward equals np.unique + np.add.at bit for bit."""

    @pytest.mark.parametrize("m, d, batch, grad_out", _byte_cases())
    def test_same_bytes_as_add_at(self, m, d, batch, grad_out):
        table = EmbeddingTable(np.zeros((m, d)))
        out = lookup_backward(table, batch, grad_out)
        ref = lookup_backward_ref(table, batch, grad_out)
        assert out.rows.dtype == ref.rows.dtype
        assert out.rows.tobytes() == ref.rows.tobytes()
        assert out.values.shape == ref.values.shape
        assert out.values.tobytes() == ref.values.tobytes()

    def test_signed_zero_row_is_positive_zero(self):
        table = EmbeddingTable(np.zeros((10, 3)))
        batch = SparseBatch(np.array([0, 2]), np.array([7, 7]))
        out = lookup_backward(table, batch, np.full((1, 3), -0.0))
        assert not np.signbit(out.values).any()

    def test_zipf_case_reaches_rounds_and_tail(self):
        batch = _zipf_batch()
        counts = np.sort(np.bincount(batch.indices))[::-1]
        # rounds run for at least one row past its first hit, and rows are
        # still unfinished once fewer than _TAIL_ROWS remain
        assert counts[_TAIL_ROWS] >= 2
        assert counts[0] > counts[_TAIL_ROWS - 1] + 1


class TestLookupBatchBytes:
    """The run-folding lookup equals a per-segment fold bit for bit."""

    @pytest.mark.parametrize("m, d, batch, grad_out", _byte_cases())
    def test_same_bytes_as_segment_fold(self, m, d, batch, grad_out):
        table = _lookup_table(m, d)
        out = lookup_batch(table, batch)
        ref = lookup_batch_ref(table, batch)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_long_case_reaches_rounds_and_tail(self):
        lengths = np.sort(_long_batch().lengths())[::-1]
        # rounds run (at least _TAIL_ROWS segments are live in round 0),
        # and segments still have terms once fewer than that are live
        assert lengths[_TAIL_ROWS - 1] >= 1
        assert lengths[0] > lengths[_TAIL_ROWS - 1]

    def test_peak_memory_is_about_the_output(self):
        rng = np.random.default_rng(94)
        m, d, t, k = 1000, 32, 64, 200
        table = EmbeddingTable(rng.standard_normal((m, d)))
        batch = SparseBatch(offsets_from_lengths([k] * t),
                            rng.integers(0, m, t * k))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lookup_batch(table, batch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # gathering every looked-up row first would take t * k * d * 8
        assert peak < t * k * d * 8 // 4


class TestInitialize:
    def test_rows_within_bound(self):
        table = EmbeddingTable.initialize(50, 16, RngStream(5))
        bound = 1.0 / np.sqrt(16)
        assert table.weights.shape == (50, 16)
        assert np.abs(table.weights).max() < bound
