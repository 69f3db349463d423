import math

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

from oracles import central_difference, exact_batch_outer, matmul_ref


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

    def test_row_shard_stability(self):
        # rows of a sliced operand match the full product bit for bit; odd
        # widths above 192 are where tall BLAS tiles make rows depend on
        # their position in the tile, and an F-ordered b is what weight.T is
        rng = np.random.default_rng(2)
        for m, k, n, order in [(9, 4, 3, "C"), (8, 13, 7, "C"),
                               (5, 64, 64, "C"), (16, 100, 24, "C"),
                               (40, 64, 257, "C"), (40, 32, 1023, "C"),
                               (40, 65, 193, "F"), (0, 5, 4, "C")]:
            a = rng.standard_normal((m, k)) * np.exp(
                rng.standard_normal((m, 1)) * 4)
            b = np.asarray(rng.standard_normal((k, n)), order=order)
            full = matmul(a, b)
            assert full.shape == (m, n)
            for lo in range(m):
                for hi in (lo + 1, min(m, lo + 3)):
                    assert np.array_equal(matmul(a[lo:hi], b), full[lo:hi])
        # a 256-row batch over 3 devices: shards of 86, 85 and 85 rows
        a = rng.standard_normal((256, 100)) * np.exp(
            rng.standard_normal((256, 1)) * 4)
        weight = rng.standard_normal((257, 100))
        full = matmul(a, weight.T)
        for lo, hi in [(0, 86), (86, 171), (171, 256)]:
            assert np.array_equal(matmul(a[lo:hi], weight.T), full[lo:hi])

    def test_tile_self_check_rejects_position_dependent_rows(self):
        def per_row(a, b, tile):
            return np.stack([row @ b for row in a])

        def skewed_from(min_tile):
            # a product whose rows pick up their position in tiles of
            # min_tile or more rows, as some BLAS kernels do for odd widths
            def product(a, b, tile):
                out = per_row(a, b, tile)
                if tile >= min_tile:
                    pos = np.arange(out.shape[0]) % tile
                    out = out * (1.0 + pos[:, None] * 2.0 ** -50)
                return out
            return product

        assert dense._choose_tile_rows(per_row) == dense.TILE_CANDIDATES[0]
        assert dense._choose_tile_rows(skewed_from(64)) == 32
        assert dense._choose_tile_rows(skewed_from(16)) == 8
        assert dense._choose_tile_rows(skewed_from(2)) == 1

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_criteo_width_row_shards(self, order):
        # 26 tables at d=16 make the top MLP's input 367 wide, an odd width
        # above 192 that matmul pads; its backward product has N = 367
        width = interaction_width(16, 27)
        assert width == 367
        assert width > dense._PAD_WIDER_THAN and width % 8
        rng = np.random.default_rng(5)
        a = rng.standard_normal((256, 512)) * np.exp(
            rng.standard_normal((256, 1)) * 4)
        b = np.asarray(rng.standard_normal((512, width)), order=order)
        full = matmul(a, b)
        for lo, hi in [(0, 86), (86, 171), (171, 256)]:
            assert np.array_equal(matmul(a[lo:hi], b), full[lo:hi])

    @pytest.mark.parametrize("n", [193, 200, 257, 367, 1023])
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


def _outer(gy, x, gmax, xmax, n_total):
    return dense.outer_sum_components(
        dense.grid_components(gy, gmax, n_total),
        dense.grid_components(x, xmax, n_total))


def _col(gy, gmax, n_total):
    return dense.col_sum_components(dense.grid_components(gy, gmax, n_total))


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
            gmax = np.abs(gy).max(axis=0)
            xmax = np.abs(x).max(axis=0)
            full = _outer(gy, x, gmax, xmax, b)
            fullb = _col(gy, gmax, b)
            if trial % 5 == 1:
                # the column's slices snap to +0.0, so its sums do too
                assert not any(np.signbit(c[-1]) for c in fullb)
            for ndev in (2, 3, 4):
                if b < ndev:
                    continue
                cut = sorted(rng.choice(np.arange(1, b), size=ndev - 1,
                                        replace=False).tolist())
                bounds = [0] + cut + [b]
                parts = None
                partsb = None
                for lo, hi in zip(bounds, bounds[1:]):
                    pc = _outer(gy[lo:hi], x[lo:hi], gmax, xmax, b)
                    pb = _col(gy[lo:hi], gmax, b)
                    parts = pc if parts is None else [
                        s + t for s, t in zip(parts, pc)]
                    partsb = pb if partsb is None else [
                        s + t for s, t in zip(partsb, pb)]
                assert all(np.array_equal(f, p)
                           for f, p in zip(full, parts))
                assert all(np.array_equal(f, p)
                           for f, p in zip(fullb, partsb))

    def test_accuracy_against_exact_sum(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(20):
            gy, x = self._random_case(rng)
            b = gy.shape[0]
            got = dense.sum_components(_outer(
                gy, x, np.abs(gy).max(axis=0), np.abs(x).max(axis=0), b))
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
        got = dense.sum_components(_col(
            gy, np.abs(gy).max(axis=0), 57))
        exact = np.array([math.fsum(gy[:, j]) for j in range(5)])
        assert np.allclose(got, exact, rtol=1e-12, atol=0.0)

    def test_reduction_bits_bound(self):
        for n in (1, 2, 9, 256, 2048):
            bits = dense.reduction_bits(n)
            assert n * 4 ** bits <= 2 ** 53
