import re

import numpy as np
import pytest

from dlrmkit.dense import RngStream
from dlrmkit.embedding import EmbeddingTable, SparseRowGrad
from dlrmkit.optim import (
    Adagrad,
    Sgd,
    adagrad_step,
    adagrad_step_rows,
    make_optimizer,
    sgd_step,
    sgd_step_rows,
)


class TestSgd:
    def test_zero_lr_unchanged(self):
        p = np.array([1.0, -2.0])
        before = p.copy()
        sgd_step(p, np.array([5.0, 5.0]), 0.0)
        assert np.array_equal(p, before)

    def test_arithmetic(self):
        p = np.array([1.0])
        sgd_step(p, np.array([2.0]), 0.5)
        assert p[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), 0.1)

    def test_sparse_untouched_rows_bit_identical(self):
        rng = RngStream(1)
        w = rng.normal(6, 3)
        before = w.copy()
        grad = SparseRowGrad(np.array([1, 4]), rng.normal(2, 3))
        sgd_step_rows(w, grad, 0.2)
        untouched = [0, 2, 3, 5]
        assert np.array_equal(w[untouched], before[untouched])
        assert not np.array_equal(w[[1, 4]], before[[1, 4]])


class TestAdagrad:
    def test_zero_grad_no_change(self):
        p = np.array([1.0, 2.0])
        g = np.zeros(2)
        acc = np.array([0.5, 0.0])
        pb, ab = p.copy(), acc.copy()
        adagrad_step(p, g, acc, 0.1, 1e-10)
        assert np.array_equal(p, pb) and np.array_equal(acc, ab)

    def test_first_step_unit_gradient(self):
        p = np.array([0.0])
        acc = np.zeros(1)
        adagrad_step(p, np.array([1.0]), acc, 0.1, 0.0)
        assert p[0] == -0.1
        assert acc[0] == 1.0

    def test_second_step_scales_by_sqrt2(self):
        p = np.array([0.0])
        acc = np.zeros(1)
        adagrad_step(p, np.array([1.0]), acc, 0.1, 0.0)
        adagrad_step(p, np.array([1.0]), acc, 0.1, 0.0)
        assert abs((p[0] + 0.1) - (-0.1 / np.sqrt(2.0))) < 1e-16

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            adagrad_step(np.zeros(1), np.zeros(1), np.zeros(1), 0.1, -1e-3)

    def test_accumulator_monotone(self):
        rng = RngStream(2)
        p = rng.normal(1, 5)[0]
        acc = np.zeros(5)
        prev = acc.copy()
        for _ in range(20):
            g = rng.normal(1, 5)[0]
            adagrad_step(p, g, acc, 0.05, 1e-10)
            assert np.all(acc >= prev)
            prev = acc.copy()

    def test_sparse_dense_equivalence_full_coverage(self):
        # when the sparse grad covers every row, both paths are bit-identical
        rng = RngStream(3)
        m, d = 16, 4
        w_dense = rng.normal(m, d)
        w_sparse = w_dense.copy()
        acc_dense = np.zeros((m, d))
        acc_sparse = np.zeros((m, d))
        for _ in range(3):
            g = rng.normal(m, d)
            adagrad_step(w_dense, g, acc_dense, 0.1, 1e-10)
            adagrad_step_rows(w_sparse,
                             SparseRowGrad(np.arange(m), g.copy()),
                             acc_sparse, 0.1, 1e-10)
            assert np.array_equal(w_dense, w_sparse)
            assert np.array_equal(acc_dense, acc_sparse)

    def test_sparse_untouched_rows_and_accumulators(self):
        rng = RngStream(4)
        w = rng.normal(8, 3)
        acc = np.abs(rng.normal(8, 3))
        wb, ab = w.copy(), acc.copy()
        grad = SparseRowGrad(np.array([2, 7]), rng.normal(2, 3))
        adagrad_step_rows(w, grad, acc, 0.1, 1e-10)
        untouched = [0, 1, 3, 4, 5, 6]
        assert np.array_equal(w[untouched], wb[untouched])
        assert np.array_equal(acc[untouched], ab[untouched])


class TestSparseShapeChecks:
    """Both sparse steps require values of shape (len(rows), table dim)."""

    STEPS = {
        "sgd": lambda w, g: sgd_step_rows(w, g, 0.1),
        "adagrad": lambda w, g: adagrad_step_rows(w, g, np.zeros_like(w),
                                                  0.1, 1e-10),
    }

    @pytest.mark.parametrize("opt", ["sgd", "adagrad"])
    @pytest.mark.parametrize("rows, values_shape", [
        ([1, 3], (2, 1)),       # narrow column would broadcast
        ([1, 3], (3, 4)),       # more values than rows
        ([1, 3, 5], (2, 4)),    # fewer values than rows
        ([], (0, 3)),           # empty, but the wrong width
        ([1], (4,)),            # 1-D values
    ])
    def test_mismatch_names_both_shapes(self, opt, rows, values_shape):
        w = np.ones((6, 4))
        grad = SparseRowGrad(np.array(rows, dtype=np.int64),
                             np.ones(values_shape))
        want = f"{(len(rows), 4)}"
        with pytest.raises(ValueError, match=re.escape(want)) as err:
            self.STEPS[opt](w, grad)
        assert str(values_shape) in str(err.value)
        assert np.array_equal(w, np.ones((6, 4)))

    @pytest.mark.parametrize("opt", ["sgd", "adagrad"])
    def test_matching_shapes_accepted(self, opt):
        w = np.ones((6, 4))
        self.STEPS[opt](w, SparseRowGrad(np.array([2]), np.ones((1, 4))))
        self.STEPS[opt](w, SparseRowGrad(np.empty(0, np.int64),
                                         np.empty((0, 4))))
        assert not np.array_equal(w[2], np.ones(4))


class TestDeterminism:
    def test_same_inputs_same_bits(self):
        rng = RngStream(5)
        g = rng.normal(4, 4)
        results = []
        for _ in range(2):
            p = np.linspace(-1, 1, 16).reshape(4, 4)
            acc = np.full((4, 4), 0.25)
            adagrad_step(p, g.copy(), acc, 0.07, 1e-10)
            results.append((p, acc))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestFacade:
    def test_make_optimizer(self):
        assert isinstance(make_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_optimizer("adagrad", 0.1), Adagrad)
        with pytest.raises(ValueError):
            make_optimizer("adam", 0.1)

    def test_adagrad_table_state_keyed_by_id(self):
        opt = Adagrad(0.1)
        t0 = EmbeddingTable(np.ones((4, 2)), table_id=0)
        t1 = EmbeddingTable(np.ones((4, 2)), table_id=1)
        g = SparseRowGrad(np.array([0]), np.ones((1, 2)))
        opt.apply_table(t0, g)
        opt.apply_table(t1, g)
        # independent accumulators: both tables saw exactly one unit step
        assert np.array_equal(t0.weights, t1.weights)

    def test_adagrad_rejects_second_table_under_one_id(self):
        opt = Adagrad(0.1)
        first = EmbeddingTable(np.ones((4, 2)))
        g = SparseRowGrad(np.array([0]), np.ones((1, 2)))
        opt.apply_table(first, g)
        opt.apply_table(first, g)       # the same table again is fine
        second = EmbeddingTable(np.ones((4, 2)))
        with pytest.raises(ValueError, match="table id 0"):
            opt.apply_table(second, g)
        assert np.array_equal(second.weights, np.ones((4, 2)))
