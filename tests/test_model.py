import math

import numpy as np
import pytest

from dlrmkit import dense
from dlrmkit.dense import RngStream, activation
from dlrmkit.embedding import (
    LookupIndexError,
    SparseBatch,
    lookup_batch,
    offsets_from_lengths,
)
from dlrmkit.model import (
    DlrmConfig,
    FmParams,
    MlpLayer,
    MlpParams,
    bce_from_logits,
    dlrm_forward,
    embedding_param_count,
    fm_predict,
    fm_predict_naive,
    init_model,
    interact,
    interact_backward,
    interaction_width,
    layer_grad_components,
    mlp_backward,
    mlp_forward,
    mlp_param_count,
    param_count,
)

from oracles import (
    bce_loss_ref,
    dlrm_backward_ref,
    dlrm_forward_ref,
    fd_param_grad,
    grad_rel_err,
    matmul_ref,
)


def toy_config(seed=0):
    return DlrmConfig(embedding_sizes=[7, 7], sparse_dim=3,
                      bottom_mlp_dims=[4, 3], top_mlp_dims=[4, 1], seed=seed)


def random_batch(config, batch, stream, max_len=3):
    dense = stream.normal(batch, config.dense_dim)
    sparse = []
    for t, m in enumerate(config.embedding_sizes):
        lengths = [int(stream.integers(1, max_len + 1, ()))
                   for _ in range(batch)]
        idx = stream.integers(0, m, int(sum(lengths)))
        sparse.append(SparseBatch(offsets_from_lengths(lengths), idx))
    labels = (stream.uniform(1, batch)[0] < 0.5).astype(np.float64)
    return dense, sparse, labels


class TestMlpForward:
    def test_identity_layer_relu_nonneg(self):
        p = MlpParams([MlpLayer(np.eye(3), np.zeros(3), "relu")])
        x = np.abs(RngStream(1).normal(4, 3))
        y, _ = mlp_forward(p, x)
        assert np.array_equal(y, x)

    def test_affine_matches_oracle(self):
        rng = RngStream(2)
        w = rng.normal(5, 3)
        b = rng.normal(1, 5)[0]
        p = MlpParams([MlpLayer(w, b, "identity")])
        x = rng.normal(6, 3)
        y, _ = mlp_forward(p, x)
        assert np.allclose(y, matmul_ref(x, w.T) + b, rtol=1e-14, atol=1e-14)

    def test_zero_layers_sigmoid_final_half(self):
        p = MlpParams([
            MlpLayer(np.zeros((4, 3)), np.zeros(4), "relu"),
            MlpLayer(np.zeros((2, 4)), np.zeros(2), "sigmoid"),
        ])
        y, _ = mlp_forward(p, RngStream(3).normal(5, 3))
        assert np.all(y == 0.5)

    def test_dim_chain_violation(self):
        with pytest.raises(ValueError):
            MlpParams([
                MlpLayer(np.zeros((4, 3)), np.zeros(4), "relu"),
                MlpLayer(np.zeros((2, 5)), np.zeros(2), "relu"),
            ])

    def test_input_width_checked(self):
        p = MlpParams([MlpLayer(np.zeros((2, 3)), np.zeros(2), "relu")])
        with pytest.raises(ValueError):
            mlp_forward(p, np.zeros((4, 5)))


class TestMlpBackward:
    def test_zero_grad_in_zero_grads_out(self):
        rng = RngStream(4)
        p = MlpParams([MlpLayer(rng.normal(4, 3), rng.normal(1, 4)[0], "relu"),
                       MlpLayer(rng.normal(2, 4), rng.normal(1, 2)[0], "sigmoid")])
        _, cache = mlp_forward(p, rng.normal(5, 3))
        grads, gx = mlp_backward(p, cache, np.zeros((5, 2)))
        assert all(np.all(g == 0.0) for g in grads.weights)
        assert all(np.all(g == 0.0) for g in grads.biases)
        assert np.all(gx == 0.0)

    def test_single_linear_layer_hand_adjoint(self):
        rng = RngStream(5)
        w = rng.normal(3, 4)
        p = MlpParams([MlpLayer(w, np.zeros(3), "identity")])
        x = rng.normal(6, 4)
        _, cache = mlp_forward(p, x)
        gy = rng.normal(6, 3)
        grads, gx = mlp_backward(p, cache, gy)
        assert np.allclose(grads.weights[0], gy.T @ x, rtol=1e-12, atol=1e-14)
        assert np.allclose(grads.biases[0], gy.sum(axis=0), rtol=1e-12,
                           atol=1e-14)
        assert np.allclose(gx, gy @ w, rtol=1e-12, atol=1e-14)

    @staticmethod
    def _layer_grads(x, gz):
        w_comps, b_comps = layer_grad_components(
            x, gz, np.abs(x).max(axis=0), np.abs(gz).max(axis=0),
            x.shape[0])
        return dense.sum_components(w_comps), dense.sum_components(b_comps)

    def test_nan_gradient_column_propagates(self):
        rng = np.random.default_rng(7)
        x, gz = rng.standard_normal((6, 3)), rng.standard_normal((6, 4))
        gz[2, 1] = np.nan
        dw, db = self._layer_grads(x, gz)
        assert np.isnan(dw[1]).all() and np.isnan(db[1])
        rest = [0, 2, 3]
        assert np.isfinite(dw[rest]).all() and np.isfinite(db[rest]).all()

    def test_each_operand_split_once(self, monkeypatch):
        split = []
        real = dense.grid_components

        def counted(a, col_max, n_total):
            split.append(a.shape)
            return real(a, col_max, n_total)

        monkeypatch.setattr(dense, "grid_components", counted)
        rng = np.random.default_rng(8)
        self._layer_grads(rng.standard_normal((6, 3)),
                          rng.standard_normal((6, 4)))
        assert sorted(split) == [(6, 3), (6, 4)]

    def test_every_parameter_against_finite_differences(self):
        rng = RngStream(6)
        p = MlpParams([MlpLayer(rng.normal(4, 3), rng.normal(1, 4)[0], "relu"),
                       MlpLayer(rng.normal(1, 4), rng.normal(1, 1)[0], "sigmoid")])
        x = rng.normal(5, 3)
        target = rng.normal(5, 1)

        def loss():
            y, _ = mlp_forward(p, x)
            d = y - target
            return 0.5 * float((d * d).sum())

        y, cache = mlp_forward(p, x)
        grads, _ = mlp_backward(p, cache, y - target)
        for l, layer in enumerate(p.layers):
            for arr, g in ((layer.weight, grads.weights[l]),
                           (layer.bias, grads.biases[l])):
                for idx in np.ndindex(arr.shape):
                    fd = fd_param_grad(loss, arr, idx)
                    assert grad_rel_err(g[idx], fd, floor=1e-3) < 1e-5


class TestInteract:
    def test_no_tables_passthrough(self):
        x = RngStream(7).normal(4, 5)
        assert np.array_equal(interact(x, []), x)

    def test_hand_example(self):
        dense = np.array([[1.0, 0.0]])
        z1 = np.array([[0.0, 1.0]])
        z2 = np.array([[1.0, 1.0]])
        out = interact(dense, [z1, z2])
        assert np.array_equal(out, [[1.0, 0.0, 0.0, 1.0, 1.0]])

    def test_criteo_shaped_width(self):
        width = interaction_width(16, 27)
        assert width == 367
        dense = np.zeros((2, 16))
        embs = [np.zeros((2, 16))] * 26
        assert interact(dense, embs).shape == (2, 367)

    @pytest.mark.parametrize("nf", range(1, 11))
    def test_width_property(self, nf):
        d = 3
        dense = RngStream(nf).normal(2, d)
        embs = [RngStream(100 + i).normal(2, d) for i in range(nf - 1)]
        assert interact(dense, embs).shape == (2, d + nf * (nf - 1) // 2)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            interact(np.zeros((2, 3)), [np.zeros((2, 4))])


class TestInteractBackward:
    def test_dense_slice_passthrough(self):
        rng = RngStream(8)
        dense, z1 = rng.normal(3, 2), rng.normal(3, 2)
        g = np.zeros((3, 3))
        g[:, :2] = rng.normal(3, 2)
        gd, gz = interact_backward(dense, [z1], g)
        assert np.array_equal(gd, g[:, :2])
        assert np.all(gz[0] == 0.0)

    def test_single_pair_product_rule(self):
        rng = RngStream(9)
        dense, z1 = rng.normal(2, 3), rng.normal(2, 3)
        g = np.zeros((2, 4))
        g[:, 3] = [2.0, -1.0]
        gd, gz = interact_backward(dense, [z1], g)
        assert np.allclose(gd, g[:, 3][:, None] * z1)
        assert np.allclose(gz[0], g[:, 3][:, None] * dense)

    def test_finite_difference(self):
        rng = RngStream(10)
        b, nf, d = 2, 4, 3
        dense = rng.normal(b, d)
        embs = [rng.normal(b, d) for _ in range(nf - 1)]
        target = rng.normal(b, interaction_width(d, nf))

        def loss():
            diff = interact(dense, embs) - target
            return 0.5 * float((diff * diff).sum())

        grad_out = interact(dense, embs) - target
        gd, gz = interact_backward(dense, embs, grad_out)
        for arr, g in [(dense, gd)] + list(zip(embs, gz)):
            for idx in np.ndindex(arr.shape):
                fd = fd_param_grad(loss, arr, idx)
                assert grad_rel_err(g[idx], fd, floor=1e-3) < 1e-6


class TestDlrmForward:
    def test_zero_parameters_give_half(self):
        cfg = toy_config()
        model = init_model(cfg)
        for mlp in (model.bottom, model.top):
            for layer in mlp.layers:
                layer.weight[...] = 0.0
                layer.bias[...] = 0.0
        for t in model.tables:
            t.weights[...] = 0.0
        dense, sparse, _ = random_batch(cfg, 6, RngStream(12))
        prob, _ = dlrm_forward(model, dense, sparse)
        assert np.all(prob == 0.5)

    def test_output_strictly_inside_unit_interval(self):
        cfg = toy_config(seed=13)
        model = init_model(cfg)
        dense, sparse, _ = random_batch(cfg, 32, RngStream(14))
        prob, _ = dlrm_forward(model, dense, sparse)
        assert np.all((prob > 0.0) & (prob < 1.0))

    def test_equals_manual_composition_bitwise(self):
        cfg = toy_config(seed=15)
        model = init_model(cfg)
        dense, sparse, _ = random_batch(cfg, 5, RngStream(16))
        prob, logits = dlrm_forward(model, dense, sparse)

        dense_repr, _ = mlp_forward(model.bottom, dense)
        embs = [lookup_batch(tb, sb) for tb, sb in zip(model.tables, sparse)]
        inter = interact(dense_repr, embs)
        manual_logits, _ = mlp_forward(model.top, inter)
        manual = activation(manual_logits, "sigmoid")[:, 0]
        assert np.array_equal(logits, manual_logits[:, 0])
        assert np.array_equal(prob, manual)
        ref_prob, _ = dlrm_forward_ref(model, dense, sparse)
        assert np.array_equal(prob, ref_prob)

    def test_permutation_equivariance(self):
        cfg = toy_config(seed=17)
        model = init_model(cfg)
        stream = RngStream(18)
        dense, sparse, _ = random_batch(cfg, 7, stream)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        perm_sparse = []
        for sb in sparse:
            lens = sb.lengths()[perm]
            idx = np.concatenate([
                sb.indices[sb.segment_slice(int(j))] for j in perm])
            perm_sparse.append(SparseBatch(offsets_from_lengths(lens), idx))
        p1, _ = dlrm_forward(model, dense, sparse)
        p2, _ = dlrm_forward(model, dense[perm], perm_sparse)
        assert np.array_equal(p1[perm], p2)

    def test_batch_count_mismatch(self):
        cfg = toy_config()
        model = init_model(cfg)
        dense, sparse, _ = random_batch(cfg, 4, RngStream(19))
        with pytest.raises(ValueError):
            dlrm_forward(model, dense, sparse[:1])

    def test_lookup_error_names_table(self):
        cfg = toy_config()
        model = init_model(cfg)
        dense, sparse, _ = random_batch(cfg, 4, RngStream(20))
        bad = SparseBatch(sparse[0].offsets, sparse[0].indices + 1000)
        with pytest.raises(LookupIndexError, match="table 0"):
            dlrm_forward(model, dense, [bad, sparse[1]])


class TestBce:
    def test_half_probability_ln2(self):
        loss, _ = bce_loss_ref(np.full(4, 0.5),
                               np.array([0.0, 1.0, 0.0, 1.0]))
        assert abs(loss - math.log(2.0)) < 1e-15
        per = bce_from_logits(np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]))
        assert np.all(np.abs(per - math.log(2.0)) < 1e-15)

    def test_perfect_prediction_limit(self):
        eps = 1e-12
        loss, _ = bce_loss_ref(np.array([eps, 1 - eps]), np.array([0.0, 1.0]))
        assert loss < 1e-11

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            bce_loss_ref(np.array([]), np.array([]))

    def test_probs_outside_unit_interval(self):
        with pytest.raises(ValueError):
            bce_loss_ref(np.array([0.0, 0.5]), np.array([0.0, 1.0]))

    def test_from_logits_saturated_and_empty(self):
        # sigmoid(+-800) is exactly 1 or 0 in float64; the loss stays finite
        per = bce_from_logits(np.array([800.0, -800.0]), np.array([0.0, 1.0]))
        assert np.array_equal(per, [800.0, 800.0])
        assert bce_from_logits(np.array([]), np.array([])).shape == (0,)

    def test_logit_gradient_matches_finite_difference(self):
        # the step core's logit gradient, (sigmoid(z) - y) / n, against
        # central differences of the mean per-sample loss
        rng = RngStream(21)
        z = rng.normal(1, 6)[0]
        y = (rng.uniform(1, 6)[0] < 0.5).astype(np.float64)
        grad = (activation(z, "sigmoid") - y) / z.shape[0]
        h = 1e-7
        for i in range(6):
            def loss_at(v, i=i):
                zz = z.copy()
                zz[i] = v
                return bce_from_logits(zz, y).mean()
            fd = (loss_at(z[i] + h) - loss_at(z[i] - h)) / (2 * h)
            assert grad_rel_err(grad[i], fd, floor=1e-4) < 1e-7

    def test_from_logits_matches_prob_form(self):
        rng = RngStream(22)
        z = rng.normal(1, 8)[0] * 3
        y = (rng.uniform(1, 8)[0] < 0.5).astype(np.float64)
        p = activation(z[None, :], "sigmoid")[0]
        l1, _ = bce_loss_ref(p, y)
        l2 = bce_from_logits(z, y).mean()
        assert abs(l1 - l2) < 1e-12


class TestEndToEndGradients:
    def test_every_parameter_toy_dlrm(self):
        # the reference forward/backward pair of tests/oracles.py, which
        # test_parallel pins the training step to bit for bit
        cfg = DlrmConfig(embedding_sizes=[7, 7], sparse_dim=3,
                         bottom_mlp_dims=[4, 3], top_mlp_dims=[10, 4, 1],
                         seed=23)
        model = init_model(cfg)
        dense, sparse, labels = random_batch(cfg, 5, RngStream(24))

        def loss():
            prob, _ = dlrm_forward_ref(model, dense, sparse)
            return bce_loss_ref(prob, labels)[0]

        prob, cache = dlrm_forward_ref(model, dense, sparse)
        _, grad_logits = bce_loss_ref(prob, labels)
        grads = dlrm_backward_ref(model, cache, grad_logits)

        checked = 0
        for mlp, g in ((model.bottom, grads.bottom), (model.top, grads.top)):
            for l, layer in enumerate(mlp.layers):
                for arr, ga in ((layer.weight, g.weights[l]),
                                (layer.bias, g.biases[l])):
                    for idx in np.ndindex(arr.shape):
                        fd = fd_param_grad(loss, arr, idx)
                        assert grad_rel_err(ga[idx], fd, floor=1e-3) < 1e-5
                        checked += 1
        for t, table in enumerate(model.tables):
            dense_grad = grads.tables[t].to_dense(table.num_rows)
            for idx in np.ndindex(table.weights.shape):
                fd = fd_param_grad(loss, table.weights, idx)
                assert grad_rel_err(dense_grad[idx], fd, floor=1e-3) < 1e-5
                checked += 1
        # top input width = d + nf(nf-1)/2 = 3 + 3 = 6
        assert checked == (7 * 3 * 2 + (3 * 4 + 3)
                           + (10 * 6 + 10) + (4 * 10 + 4) + (1 * 4 + 1))


class TestFm:
    def test_zero_input_returns_bias(self):
        rng = RngStream(25)
        p = FmParams(1.75, rng.normal(1, 6)[0], rng.normal(6, 2))
        assert fm_predict(p, np.zeros(6)) == 1.75
        assert fm_predict_naive(p, np.zeros(6)) == 1.75

    def test_hand_expansion(self):
        p = FmParams(0.0, np.zeros(2), np.array([[1.0], [2.0]]))
        x = np.array([1.0, 1.0])
        assert fm_predict_naive(p, x) == 2.0
        assert abs(fm_predict(p, x) - 2.0) < 1e-14

    def test_naive_equals_factorized(self):
        rng = RngStream(26)
        for trial in range(100):
            n = int(rng.integers(1, 33, ()))
            d = int(rng.integers(1, 9, ()))
            p = FmParams(float(rng.normal(1, 1)[0, 0]),
                         rng.normal(1, n)[0], rng.normal(n, d))
            x = rng.normal(1, n)[0]
            naive = fm_predict_naive(p, x)
            fact = fm_predict(p, x)
            assert abs(naive - fact) <= 1e-10 * max(1.0, abs(naive))

    def test_dim_mismatch(self):
        p = FmParams(0.0, np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            fm_predict(p, np.zeros(4))


class TestParamCount:
    def test_single_table_no_mlps(self):
        assert embedding_param_count([10], 4) == 40

    def test_benchmark_embedding_block(self):
        assert embedding_param_count([1_000_000] * 8, 64) == 512_000_000

    def test_bottom_mlp_arithmetic(self):
        assert mlp_param_count([512, 512, 64]) == 295_488

    def test_full_config(self):
        cfg = toy_config()
        # tables 2*7*3, bottom 4->3, top (3 + 3 pairs)=6 -> 4 -> 1
        expect = 42 + (4 * 3 + 3) + (4 * 6 + 4) + (1 * 4 + 1)
        assert param_count(cfg) == expect


class TestConfigValidation:
    def test_bottom_must_end_at_sparse_dim(self):
        with pytest.raises(ValueError):
            DlrmConfig([4], 3, [4, 5], [4, 1])

    def test_top_must_end_at_one(self):
        with pytest.raises(ValueError):
            DlrmConfig([4], 3, [4, 3], [4, 2])

    def test_degenerate_no_tables_is_legal(self):
        cfg = DlrmConfig([], 3, [4, 3], [4, 1])
        assert cfg.top_in_dim == 3
        model = init_model(cfg)
        prob, _ = dlrm_forward(model, RngStream(27).normal(4, 4), [])
        assert prob.shape == (4,)
