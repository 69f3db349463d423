import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from dlrmkit import dense
from dlrmkit.dense import (
    RngStream,
    activation,
    activation_grad,
    dot,
    matmul,
)
from dlrmkit.model import interaction_width

from conftest import pool_every_call
from oracles import (
    central_difference,
    exact_batch_outer,
    grid_components_ref,
    matmul_ref,
    position_skewed_matmul,
)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_zeros(self):
        z = np.zeros((3, 4))
        b = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(matmul(z, b), np.zeros((3, 2)))

    def test_against_naive_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        expect = matmul_ref(a, b)
        assert np.array_equal(expect, np.array([[17.0], [39.0]]))
        assert np.array_equal(matmul(a, b), expect)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, k, n = rng.integers(1, 7, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = matmul(a, b)
            ref = matmul_ref(a, b)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(dense.ShapeError, match=r"\(2, 3\) x \(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((4, 5))
            b = rng.standard_normal((5, 6))
            c = rng.standard_normal((6, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.abs(left - right).max() < 1e-9

    def test_row_shard_stability(self, monkeypatch):
        # rows of a slice passed with its batch offset match the full
        # product bit for bit, with numpy's GEMM and with one whose rows
        # pick up their position in the call: cuts inside one tile and
        # across tiles, empty cuts and offsets past the first tile. Widths
        # that are not multiples of 8 are padded inside matmul, and an
        # F-ordered b is what weight.T is.
        rng = np.random.default_rng(2)
        cases = [(9, 4, 3, "C"), (8, 13, 7, "C"), (5, 64, 64, "C"),
                 (16, 100, 24, "F"), (150, 64, 257, "C"), (140, 65, 1, "F"),
                 (130, 16, 100, "C"), (200, 32, 1023, "F"), (0, 5, 4, "C")]
        cuts = (0, 1, 2, 5, 31, 62, 63, 64, 65, 100, 127, 128, 129, 191, 192)
        for gemm in (np.matmul, position_skewed_matmul):
            monkeypatch.setattr(np, "matmul", gemm)
            for m, k, n, order in cases:
                a = rng.standard_normal((m, k)) * np.exp(
                    rng.standard_normal((m, 1)) * 4)
                b = np.asarray(rng.standard_normal((k, n)), order=order)
                full = matmul(a, b)
                assert full.shape == (m, n)
                for lo in {c for c in cuts if c < m} | {m}:
                    for step in (0, 1, 3, 64, 70, m):
                        hi = min(lo + step, m)
                        assert np.array_equal(
                            matmul(a[lo:hi], b, first_row=lo), full[lo:hi])
            # a 256-row batch over 3 and 5 devices
            a = rng.standard_normal((256, 100)) * np.exp(
                rng.standard_normal((256, 1)) * 4)
            weight = rng.standard_normal((257, 100))
            full = matmul(a, weight.T)
            for bounds in ([0, 86, 171, 256], [0, 52, 103, 154, 205, 256]):
                for lo, hi in zip(bounds, bounds[1:]):
                    assert np.array_equal(
                        matmul(a[lo:hi], weight.T, first_row=lo), full[lo:hi])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_criteo_width_row_shards(self, order):
        # 26 tables at d=16 make the top MLP's input 367 wide, a width that
        # matmul pads; its backward product has N = 367. Shards of a 256
        # batch over 3 and 5 devices, each at its batch offset.
        width = interaction_width(16, 27)
        assert width == 367
        assert width % 8
        rng = np.random.default_rng(5)
        a = rng.standard_normal((256, 512)) * np.exp(
            rng.standard_normal((256, 1)) * 4)
        b = np.asarray(rng.standard_normal((512, width)), order=order)
        full = matmul(a, b)
        for bounds in ([0, 86, 171, 256], [0, 52, 103, 154, 205, 256]):
            for lo, hi in zip(bounds, bounds[1:]):
                assert np.array_equal(matmul(a[lo:hi], b, first_row=lo),
                                      full[lo:hi])

    @pytest.mark.parametrize("n", [1, 7, 13, 100, 193, 200, 257, 367, 1023])
    def test_padded_columns_do_not_reach_the_result(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((70, 33))
        b = rng.standard_normal((33, n))
        got = matmul(a, b)
        assert got.shape == (70, n)
        # zero columns appended by hand take the same padded product
        wide = np.hstack([b, np.zeros((33, -n % 8))])
        assert np.array_equal(got, matmul(a, wide)[:, :n])
        assert np.allclose(got, a @ b, rtol=1e-12, atol=1e-12)


class TestDot:
    def test_orthogonal(self):
        assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_unit(self):
        assert dot([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_hand_loop(self):
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_matches_matmul_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            assert dot(u, v) == matmul(u[None, :], v[:, None])[0, 0]

    def test_length_mismatch(self):
        with pytest.raises(dense.ShapeError):
            dot([1.0], [1.0, 2.0])


class TestActivations:
    def test_sigmoid_symmetry(self):
        assert activation(np.array([[0.0]]), "sigmoid")[0, 0] == 0.5

    def test_relu_definition(self):
        out = activation(np.array([[-3.0, 3.0]]), "relu")
        assert np.array_equal(out, [[0.0, 3.0]])

    def test_sigmoid_grad_at_zero(self):
        assert activation_grad(np.array([[0.0]]), "sigmoid")[0, 0] == 0.25

    def test_identity(self):
        x = np.array([[1.5, -2.0]])
        assert np.array_equal(activation(x, "identity"), x)
        assert np.array_equal(activation_grad(x, "identity"), np.ones((1, 2)))

    def test_sigmoid_extreme_inputs_stable(self):
        out = activation(np.array([[800.0, -800.0]]), "sigmoid")
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "identity"])
    def test_grad_matches_finite_difference(self, kind):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal(40) * 2.0
        xs = xs[np.abs(xs) > 1e-3]  # stay away from the relu kink
        h = 1e-6
        for x in xs:
            fd = central_difference(
                lambda v: activation(np.array([[v]]), kind)[0, 0], x, h)
            an = activation_grad(np.array([[x]]), kind)[0, 0]
            denom = max(abs(an), abs(fd), 1e-6)
            assert abs(an - fd) / denom < 1e-6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation(np.zeros((1, 1)), "tanh")


class TestRngStream:
    def test_same_seed_identical(self):
        a = RngStream(7).uniform(5, 4)
        b = RngStream(7).uniform(5, 4)
        assert np.array_equal(a, b)
        c = RngStream(7).normal(5, 4)
        d = RngStream(7).normal(5, 4)
        assert np.array_equal(c, d)

    def test_derive_is_stable_and_distinct(self):
        root = RngStream(9)
        assert np.array_equal(root.derive(1, 2).uniform(2, 2),
                              RngStream(9).derive(1, 2).uniform(2, 2))
        assert not np.array_equal(root.derive(1).uniform(2, 2),
                                  root.derive(2).uniform(2, 2))

    def test_uniform_law_of_large_numbers(self):
        # 6 sigma of the sample mean of 1e5 U(0,1) draws is ~0.0055
        samples = RngStream(11).uniform(100, 1000)
        assert abs(samples.mean() - 0.5) < 0.01
        assert samples.min() >= 0.0 and samples.max() < 1.0

    def test_normal_variance(self):
        samples = RngStream(12).normal(100, 1000)
        assert abs(samples.var() - 1.0) < 0.05

    def test_stream_advances(self):
        s = RngStream(13)
        assert not np.array_equal(s.uniform(2, 2), s.uniform(2, 2))


def _slices(a, n_total, bounds=None):
    """The slices of the batch ``a``: ``dense.grid_components`` of a copy,
    or with ``bounds``, each shard's rows snapped alone on the batch's
    grids (``grid_components_ref`` at its column abs-maxima) and stacked
    in ascending order, as a per-device scheme makes them."""
    if bounds is None:
        return dense.grid_components(a.copy(), n_total)
    amax = np.abs(a).max(axis=0)
    return [np.concatenate(level) for level in zip(*(
        grid_components_ref(a[lo:hi], amax, n_total)
        for lo, hi in zip(bounds, bounds[1:])))]


def _buckets(gs, xs):
    """The weight buckets of the slices, copied, since the generator
    reuses its buffer."""
    return [c.copy() for c in dense.outer_sum_components(gs, xs)]


def _outer(gy, x, n_total, bounds=None):
    return _buckets(_slices(gy, n_total, bounds), _slices(x, n_total, bounds))


def _col(gy, n_total, bounds=None):
    return list(dense.col_sum_components(_slices(gy, n_total, bounds)))


def _shard_sums(buckets_per_shard):
    """Each bucket summed over the shards in ascending order, the way a
    reduce-to-root allreduce of per-shard buckets sums it."""
    sums = [b.copy() for b in buckets_per_shard[0]]
    for buckets in buckets_per_shard[1:]:
        for total, b in zip(sums, buckets, strict=True):
            total += b
    return sums


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


class TestPartitionInvariantReduction:
    def _random_case(self, rng):
        b = int(rng.integers(1, 33))
        out_d = int(rng.integers(1, 9))
        in_d = int(rng.integers(1, 9))
        gy = rng.standard_normal((b, out_d)) * np.exp(
            rng.standard_normal((1, out_d)) * rng.uniform(0, 30))
        x = rng.standard_normal((b, in_d)) * np.exp(
            rng.standard_normal((1, in_d)) * rng.uniform(0, 30))
        return gy, x

    def test_partition_invariance(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            gy, x = self._random_case(rng)
            if trial % 5 == 0:
                gy[:, 0] = 0.0  # zero column edge case
            if trial % 5 == 1:
                gy[:, -1] = -0.0  # negative-zero column edge case
            b = gy.shape[0]
            full = _outer(gy, x, b)
            fullb = _col(gy, b)
            if trial % 5 == 1:
                # the column's slices snap to +0.0, so its sums do too
                assert not any(np.signbit(c[-1]) for c in fullb)
            for ndev in (2, 3, 4):
                if b < ndev:
                    continue
                cut = sorted(rng.choice(np.arange(1, b), size=ndev - 1,
                                        replace=False).tolist())
                bounds = [0] + cut + [b]
                parts = _outer(gy, x, b, bounds)
                partsb = _col(gy, b, bounds)
                assert all(np.array_equal(f, p)
                           for f, p in zip(full, parts, strict=True))
                assert all(np.array_equal(f, p)
                           for f, p in zip(fullb, partsb, strict=True))
                # folding each bucket as it is drawn, in its reused buffer,
                # gives the fold of the held buckets
                folded = dense.sum_components(dense.outer_sum_components(
                    _slices(gy, b, bounds), _slices(x, b, bounds)))
                assert np.array_equal(folded, dense.sum_components(parts))

    def test_bucket_equals_ascending_shard_sum(self):
        # The full-batch bucket, one product or column sum over every
        # sample, has the bits of the per-shard buckets summed in ascending
        # shard order, for random cuts (empty shards included) and with
        # +0.0 and -0.0 columns in either operand.
        rng = np.random.default_rng(25)
        for trial in range(60):
            gy, x = self._random_case(rng)
            for a in (gy, x):
                a[:, rng.integers(a.shape[1])] = (0.0, -0.0)[trial % 2]
                a[rng.integers(a.shape[0]), rng.integers(a.shape[1])] = -0.0
            b = gy.shape[0]
            full = _outer(gy, x, b)
            fullb = _col(gy, b)
            for ndev in (2, 3, 4, 7):
                cut = sorted(rng.integers(0, b + 1, size=ndev - 1).tolist())
                bounds = [0] + cut + [b]
                # each shard's own slices, on the batch's grids
                gs, xs = _slices(gy, b, bounds), _slices(x, b, bounds)
                shards = list(zip(bounds, bounds[1:]))
                summed = _shard_sums([_buckets([g[lo:hi] for g in gs],
                                               [s[lo:hi] for s in xs])
                                      for lo, hi in shards])
                summedb = _shard_sums([[g[lo:hi].sum(axis=0) for g in gs]
                                       for lo, hi in shards])
                assert _bytes(full) == _bytes(summed)
                assert _bytes(fullb) == _bytes(summedb)

    def test_accuracy_against_exact_sum(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(20):
            gy, x = self._random_case(rng)
            b = gy.shape[0]
            got = dense.sum_components(_outer(gy, x, b))
            exact = exact_batch_outer(gy, x)
            scale = (np.abs(gy).max(axis=0)[:, None]
                     * np.abs(x).max(axis=0)[None, :])
            denom = np.maximum(np.abs(exact), 1e-9 * np.maximum(scale, 1e-300))
            worst = max(worst, float((np.abs(got - exact) / denom).max()))
        assert worst < 1e-12

    def test_bias_accuracy(self):
        rng = np.random.default_rng(22)
        gy = rng.standard_normal((57, 5)) * np.exp(
            rng.standard_normal((1, 5)) * 8)
        got = dense.sum_components(_col(gy, 57))
        exact = np.array([math.fsum(gy[:, j]) for j in range(5)])
        assert np.allclose(got, exact, rtol=1e-12, atol=0.0)

    def test_partition_invariance_at_tiny_scales(self):
        # columns far below 1e-150, where grids anchored at the column's
        # abs-max alone would put slice products below 2^-1074 and BLAS
        # would round them against the running sum, so the bits would
        # depend on the split; rows spread over 2^-60 fill the low slices
        rng = np.random.default_rng(23)
        b = 256
        for trial in range(40):
            g_scale, x_scale = [(1e-155, 1e-160), (1e-160, 1e-155),
                                (1e-155, 1e-155)][trial % 3]
            gy = rng.standard_normal((b, 4)) * g_scale
            x = rng.standard_normal((b, 4)) * x_scale * np.exp2(
                -rng.integers(0, 61, size=(b, 1)))
            full = dense.sum_components(_outer(gy, x, b))
            fullb = dense.sum_components(_col(gy, b))
            for ndev in (2, 3):
                cut = sorted(rng.choice(np.arange(1, b), size=ndev - 1,
                                        replace=False).tolist())
                bounds = [0] + cut + [b]
                assert np.array_equal(dense.sum_components(
                    _outer(gy, x, b, bounds)), full)
                assert np.array_equal(dense.sum_components(
                    _col(gy, b, bounds)), fullb)

    def test_reduction_bits_bound(self):
        for n in (1, 2, 9, 256, 2048):
            bits = dense.reduction_bits(n)
            assert n * 4 ** bits <= 2 ** 53

    def test_grid_components_bits_and_allocations(self):
        # in place, the split gives the bits of the whole-array expressions
        # at the batch's own column abs-maxima, makes ``a`` its last slice
        # and allocates only the other slices and the abs-max temporary,
        # plus the at most 8192-element buffer numpy may use for a
        # broadcast operand; zero, -0.0, subnormal, tiny, NaN and +-inf
        # columns, and batches with no rows or no columns, included
        rng = np.random.default_rng(24)
        batch = rng.standard_normal((128, 200)) * np.exp2(
            rng.integers(-60, 61, size=(1, 200)))
        batch[:, 0] = 0.0
        batch[:, 1] = -0.0
        batch[:, 2] *= 1e-310
        batch[:, 3] *= 1e-160
        batch[5, 4] = np.nan
        batch[::3, 5] = -0.0
        batch[7, 6] = np.inf
        batch[9, 7] = -np.inf
        for n_total, a in ((64, batch.copy()), (256, batch.copy()),
                           (8, np.empty((0, 3))), (8, np.empty((4, 0)))):
            # inf - inf makes NaN remainders
            with np.errstate(invalid="ignore"):
                want = grid_components_ref(
                    a, np.abs(a).max(axis=0, initial=0.0), n_total)
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    got = dense.grid_components(a, n_total)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            assert got[-1] is a
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert peak <= dense.LEVELS * a.nbytes + 96 * 1024


class TestKernelWorkers:
    @pytest.mark.parametrize("cpus, environ, workers", [
        (2, {}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "2"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1.5"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "-1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "3"}, 1),
        (1, {}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
        (4, {"OPENBLAS_NUM_THREADS": "3"}, 1),
    ])
    def test_cpus_over_blas_threads(self, cpus, environ, workers):
        assert dense.kernel_workers(cpus, environ) == workers

    def test_workers_come_from_this_process(self):
        assert dense.WORKERS == dense.kernel_workers(
            len(os.sched_getaffinity(0)), os.environ)


def _inline(monkeypatch, fn):
    """``fn()`` with every kernel call on the calling thread."""
    with monkeypatch.context() as mp:
        mp.setattr(dense, "WORKERS", 1)
        return fn()


def _pooled(monkeypatch, workers, fn):
    """``fn()`` with every kernel's calls on ``workers`` threads."""
    with monkeypatch.context() as mp:
        pool_every_call(mp, workers)
        return fn()


class TestPooledKernels:
    # (rows, inner, cols, first_row): one partial tile, a partial tile at
    # each end, offsets past the first tile, whole tiles and an empty a
    MATMUL_CASES = [(1, 3, 2, 0), (5, 4, 9, 62), (130, 7, 5, 0),
                    (200, 16, 9, 37), (320, 8, 8, 0), (70, 33, 100, 129),
                    (0, 5, 4, 3)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_matmul_matches_the_inline_path(self, monkeypatch, workers):
        rng = np.random.default_rng(30)
        for m, k, n, first_row in self.MATMUL_CASES:
            a = rng.standard_normal((m, k)) * np.exp(
                rng.standard_normal((m, 1)) * 4)
            b = rng.standard_normal((k, n))
            want = _inline(monkeypatch, lambda: matmul(a, b, first_row))
            got = _pooled(monkeypatch, workers,
                          lambda: matmul(a, b, first_row))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_every_bucket_matches_the_inline_path(self, monkeypatch,
                                                  workers):
        # output row counts below, at and past the width, and not a
        # multiple of it
        rng = np.random.default_rng(31)
        for n, rows, cols in [(9, 1, 4), (12, 2, 3), (30, 7, 5), (64, 10, 9),
                              (5, 16, 1)]:
            gy = rng.standard_normal((n, rows)) * np.exp(
                rng.standard_normal((1, rows)) * 8)
            x = rng.standard_normal((n, cols))
            gs = dense.grid_components(gy, n)
            xs = dense.grid_components(x, n)

            def buckets():
                return [b.tobytes() for b in dense.outer_sum_components(gs, xs)]

            assert (_pooled(monkeypatch, workers, buckets)
                    == _inline(monkeypatch, buckets))

    def test_more_threads_than_cores_under_fast_switching(self,
                                                          monkeypatch):
        # six threads, a thread switch every microsecond and each of nine
        # tiles in its own call: every run writes the inline product
        rng = np.random.default_rng(33)
        a = rng.standard_normal((9 * dense.TILE_ROWS - 5, 24))
        b = rng.standard_normal((24, 40))
        want = _inline(monkeypatch, lambda: matmul(a, b, 3)).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert all(_pooled(monkeypatch, 6, lambda: matmul(a, b, 3))
                       .tobytes() == want for _ in range(50))
        finally:
            sys.setswitchinterval(interval)

    def test_desk_shapes_reach_the_pool_and_tiny_ones_do_not(self,
                                                              monkeypatch):
        monkeypatch.setattr(dense, "WORKERS", 2)
        submits = []
        real = dense._pool

        def spy(threads):
            submits.append(threads)
            return real(threads)

        monkeypatch.setattr(dense, "_pool", spy)
        rng = np.random.default_rng(32)
        matmul(rng.standard_normal((256, 4)), rng.standard_normal((4, 3)))
        tiny = rng.standard_normal((256, 3))
        gs = dense.grid_components(tiny, 256)
        dense.sum_components(dense.outer_sum_components(gs, gs))
        assert submits == []
        # a desk batch through the top MLP's 1024 x 1024 layer: its four
        # tiles, and each bucket of its weight gradient
        matmul(rng.standard_normal((256, 1024)),
               rng.standard_normal((1024, 1024)))
        assert submits == [1]
        big = rng.standard_normal((256, 1024))
        gs = dense.grid_components(big, 256)
        dense.sum_components(dense.outer_sum_components(gs, gs))
        assert submits == [1] * (1 + len(dense.CROSS_TERMS))

    @pytest.mark.parametrize("failing", [1, 4])
    def test_a_failing_call_raises_in_the_caller(self, pooled, failing):
        # groups (0, 1), (2, 3) and (4, 5) on three threads, the first on
        # the calling thread: the failing call's group stops, as the inline
        # loop would, and the other groups have finished when it is raised
        ran = []

        def call(i):
            def run():
                time.sleep(0.02 if i >= 2 else 0.0)
                ran.append(i)
                if i == failing:
                    raise ValueError(f"call {i} failed")
                return i
            return run

        with pytest.raises(ValueError, match=f"^call {failing} failed$"):
            dense.run_calls([call(i) for i in range(6)], 1)
        assert sorted(ran) == [i for i in range(6)
                               if i // 2 != failing // 2 or i <= failing]
        assert dense.run_calls([lambda i=i: i for i in range(5)], 1) == [
            0, 1, 2, 3, 4]

    def test_calls_keep_the_callers_errstate(self, pooled):
        # only the second tile overflows, and it runs on a pool thread
        a = np.vstack([np.ones((64, 1)), np.full((64, 1), 1e300)])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                matmul(a, np.full((1, 1), 1e300))
        with np.errstate(over="ignore"):
            assert np.isinf(matmul(a, np.full((1, 1), 1e300))[64:]).all()
