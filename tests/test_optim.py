import re

import numpy as np
import pytest

from dlrmkit.dense import RngStream
from dlrmkit.embedding import EmbeddingTable, SparseRowGrad
from dlrmkit.optim import (
    BLOCK_ELEMENTS,
    EPS,
    Adagrad,
    Sgd,
    adagrad_step,
    adagrad_step_rows,
    make_optimizer,
    sgd_step,
    sgd_step_rows,
)

from oracles import (
    adagrad_step_ref,
    adagrad_step_rows_ref,
    sgd_step_ref,
    sgd_step_rows_ref,
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
        adagrad_step(p, g, acc, 0.1)
        assert np.array_equal(p, pb) and np.array_equal(acc, ab)

    def test_first_step_unit_gradient(self):
        p = np.array([0.0])
        acc = np.zeros(1)
        adagrad_step(p, np.array([1.0]), acc, 0.1)
        assert p[0] == -0.1 / (1.0 + EPS)
        assert acc[0] == 1.0

    def test_second_step_scales_by_sqrt2(self):
        p = np.array([0.0])
        acc = np.zeros(1)
        adagrad_step(p, np.array([1.0]), acc, 0.1)
        adagrad_step(p, np.array([1.0]), acc, 0.1)
        first = 0.1 / (1.0 + EPS)
        assert abs((p[0] + first) - (-0.1 / (np.sqrt(2.0) + EPS))) < 1e-16

    def test_accumulator_monotone(self):
        rng = RngStream(2)
        p = rng.normal(1, 5)[0]
        acc = np.zeros(5)
        prev = acc.copy()
        for _ in range(20):
            g = rng.normal(1, 5)[0]
            adagrad_step(p, g, acc, 0.05)
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
            adagrad_step(w_dense, g, acc_dense, 0.1)
            adagrad_step_rows(w_sparse,
                             SparseRowGrad(np.arange(m), g.copy()),
                             acc_sparse, 0.1)
            assert np.array_equal(w_dense, w_sparse)
            assert np.array_equal(acc_dense, acc_sparse)

    def test_sparse_untouched_rows_and_accumulators(self):
        rng = RngStream(4)
        w = rng.normal(8, 3)
        acc = np.abs(rng.normal(8, 3))
        wb, ab = w.copy(), acc.copy()
        grad = SparseRowGrad(np.array([2, 7]), rng.normal(2, 3))
        adagrad_step_rows(w, grad, acc, 0.1)
        untouched = [0, 1, 3, 4, 5, 6]
        assert np.array_equal(w[untouched], wb[untouched])
        assert np.array_equal(acc[untouched], ab[untouched])


class TestSparseShapeChecks:
    """Both sparse steps require values of shape (len(rows), table dim)."""

    STEPS = {
        "sgd": lambda w, g: sgd_step_rows(w, g, 0.1),
        "adagrad": lambda w, g: adagrad_step_rows(w, g, np.zeros_like(w),
                                                  0.1),
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


class TestBlockedUpdates:
    """Every update runs over blocks of BLOCK_ELEMENTS elements (whole rows)
    and must give the bits of its one-line reference at every size around
    a block boundary: n rows of ``width`` values, with n counted in blocks
    of ``BLOCK_ELEMENTS // width`` rows."""

    @staticmethod
    def _case(n, width, seed):
        rng = np.random.default_rng(seed)
        shape = (n,) if width == 1 else (n, width)
        param = rng.standard_normal(shape)
        grad = rng.standard_normal(shape)
        accum = np.abs(rng.standard_normal(shape))
        # zero and -0.0 gradients (and parameters), at the block edges too
        flat_g, flat_p = grad.reshape(-1), param.reshape(-1)
        flat_g[::5] = 0.0
        flat_g[::7] = -0.0
        flat_p[::11] = -0.0
        for edge in (0, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, flat_g.size - 1):
            if edge < flat_g.size:
                flat_g[edge] = -0.0
        accum.reshape(-1)[::13] = 0.0
        return param, grad, accum

    @staticmethod
    def _bits(*arrays):
        return [a.tobytes() for a in arrays]

    @pytest.fixture(params=[1, 3], ids=["width1", "width3"])
    def sizes(self, request):
        width = request.param
        block = BLOCK_ELEMENTS // width
        return width, [1, block - 1, block, block + 1, 3 * block + 7]

    def test_dense_updates_match_the_one_line_expressions(self, sizes):
        width, ns = sizes
        for n in ns:
            param, grad, accum = self._case(n, width, seed=n)
            want_p = param.copy()
            sgd_step_ref(want_p, grad, 0.3)
            got_p = param.copy()
            sgd_step(got_p, grad, 0.3)
            assert self._bits(got_p) == self._bits(want_p), n

            want_p, want_a = param.copy(), accum.copy()
            adagrad_step_ref(want_p, grad, want_a, 0.3)
            got_p, got_a = param.copy(), accum.copy()
            adagrad_step(got_p, grad, got_a, 0.3)
            assert self._bits(got_p, got_a) == self._bits(want_p, want_a), n

    def test_sparse_updates_match_the_one_line_expressions(self, sizes):
        width, ns = sizes
        for n in ns:
            _, values, _ = self._case(n, width, seed=n)
            values = values.reshape(n, width)
            rng = np.random.default_rng(n + 1)
            # n ascending unique rows of a table with 2n + 1 rows
            rows = np.sort(rng.choice(2 * n + 1, size=n, replace=False))
            weights = rng.standard_normal((2 * n + 1, width))
            weights[::11] = -0.0
            accum = np.abs(rng.standard_normal((2 * n + 1, width)))
            grad = SparseRowGrad(rows, values)

            want_w = weights.copy()
            sgd_step_rows_ref(want_w, grad, 0.3)
            got_w = weights.copy()
            sgd_step_rows(got_w, grad, 0.3)
            assert self._bits(got_w) == self._bits(want_w), n

            want_w, want_a = weights.copy(), accum.copy()
            adagrad_step_rows_ref(want_w, grad, want_a, 0.3)
            got_w, got_a = weights.copy(), accum.copy()
            adagrad_step_rows(got_w, grad, got_a, 0.3)
            assert self._bits(got_w, got_a) == self._bits(want_w, want_a), n

    def test_zero_d_parameters(self):
        p, g, a = np.array(-0.0), np.array(2.0), np.array(0.5)
        want_p, want_a = p.copy(), a.copy()
        adagrad_step_ref(want_p, g, want_a, 0.1)
        adagrad_step(p, g, a, 0.1)
        assert self._bits(p, a) == self._bits(want_p, want_a)
        sgd_step_ref(want_p, g, 0.1)
        sgd_step(p, g, 0.1)
        assert self._bits(p) == self._bits(want_p)


class TestDeterminism:
    def test_same_inputs_same_bits(self):
        rng = RngStream(5)
        g = rng.normal(4, 4)
        results = []
        for _ in range(2):
            p = np.linspace(-1, 1, 16).reshape(4, 4)
            acc = np.full((4, 4), 0.25)
            adagrad_step(p, g.copy(), acc, 0.07)
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

    def test_adagrad_tables_sharing_an_id_train_independently(self):
        opt = Adagrad(0.1)
        first = EmbeddingTable(np.ones((4, 2)))
        second = EmbeddingTable(np.ones((4, 2)))
        assert first.table_id == second.table_id
        g = SparseRowGrad(np.array([0]), np.ones((1, 2)))
        opt.apply_table(first, g)
        opt.apply_table(first, g)       # the same table again: one state
        opt.apply_table(second, g)
        # second starts from a zero accumulator, as first did
        alone = EmbeddingTable(np.ones((4, 2)))
        Adagrad(0.1).apply_table(alone, g)
        assert np.array_equal(second.weights, alone.weights)
