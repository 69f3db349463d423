import re
import tracemalloc

import numpy as np
import pytest

from dlrmkit import parallel
from dlrmkit.dense import RngStream
from dlrmkit.embedding import SparseBatch, lookup_batch, offsets_from_lengths
from dlrmkit.model import DlrmConfig, init_model
from dlrmkit.optim import make_optimizer
from dlrmkit.parallel import (
    CommLog,
    DevicePlan,
    ParallelTrainer,
    allreduce,
    allreduce_max,
    butterfly_shuffle,
    format_comm_report,
    inverse_shuffle,
    make_plan,
    partition_tables,
    shard_bounds,
    train_step,
)

from dlrmkit.timing import NullTimer

from oracles import (
    RecordingOptimizer,
    brute_force_min_max_load,
    dlrm_backward_ref,
    dlrm_forward_ref,
    reduce_mlp_grads_ref,
)


def toy_config(seed=0):
    return DlrmConfig(embedding_sizes=[7, 5, 9], sparse_dim=3,
                      bottom_mlp_dims=[4, 3], top_mlp_dims=[10, 4, 1],
                      seed=seed)


def gen_batches(cfg, batch, steps, seed):
    rng = RngStream(seed)
    out = []
    for _ in range(steps):
        dense = rng.uniform(batch, cfg.dense_dim)
        sparse = []
        for m in cfg.embedding_sizes:
            lens = [int(rng.integers(1, 4, ())) for _ in range(batch)]
            idx = rng.integers(0, m, int(sum(lens)))
            sparse.append(SparseBatch(offsets_from_lengths(lens), idx))
        labels = (rng.uniform(1, batch)[0] < 0.5).astype(np.float64)
        out.append((dense, sparse, labels))
    return out


def params_equal(serial_model, trainer):
    b0, t0 = trainer.replica_params(0)
    for ref, got in ((serial_model.bottom, b0), (serial_model.top, t0)):
        for lr, lg in zip(ref.layers, got.layers):
            if not (np.array_equal(lr.weight, lg.weight)
                    and np.array_equal(lr.bias, lg.bias)):
                return False
    return all(np.array_equal(rt.weights, gt.weights)
               for rt, gt in zip(serial_model.tables, trainer.tables))


class TestPartitionTables:
    def test_equal_tables_split_evenly(self):
        assignment = partition_tables([10] * 8, 4)
        counts = [assignment.count(d) for d in range(4)]
        assert counts == [2, 2, 2, 2]

    def test_single_device(self):
        assert partition_tables([3, 1, 2], 1) == [0, 0, 0]

    def test_greedy_bin_packing_fixture(self):
        assignment = partition_tables([5, 4, 3, 3], 2)
        loads = [0, 0]
        for size, dev in zip([5, 4, 3, 3], assignment):
            loads[dev] += size
        assert sorted(loads) == [7, 8]

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            partition_tables([1], 0)

    def test_within_factor_two_of_optimum(self):
        rng = RngStream(30)
        for _ in range(25):
            n = int(rng.integers(1, 9, ()))
            sizes = [int(s) for s in rng.integers(1, 50, n)]
            for ndev in (2, 3, 4):
                assignment = partition_tables(sizes, ndev)
                loads = [0] * ndev
                for size, dev in zip(sizes, assignment):
                    loads[dev] += size
                opt = brute_force_min_max_load(sizes, ndev)
                assert max(loads) <= 2 * opt


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [0, 2, 4, 6, 8]

    def test_remainder_goes_to_early_devices(self):
        assert shard_bounds(9, 4) == [0, 3, 5, 7, 9]
        sizes = np.diff(shard_bounds(10, 3))
        assert sizes.tolist() == [4, 3, 3]

    def test_plan_validation(self):
        plan = DevicePlan(2, [0, 1], [0, 1, 4])
        with pytest.raises(ValueError):
            plan.validate()

    @pytest.mark.parametrize("bounds", [[0, 4], [0, 2, 3, 4]])
    def test_bounds_need_one_entry_per_device_plus_one(self, bounds):
        plan = DevicePlan(2, [0, 1], bounds)
        with pytest.raises(ValueError, match=rf"= 3 entries, got {len(bounds)}"):
            plan.validate()

    def test_trainer_rejects_short_bounds_at_construction(self):
        cfg = toy_config(seed=51)
        model = init_model(cfg)
        with pytest.raises(ValueError, match="= 3 entries, got 2"):
            ParallelTrainer(model, DevicePlan(2, [0, 1, 1], [0, 4]),
                            "sgd", 0.1)


class TestButterflyShuffle:
    def test_single_device_identity(self):
        plan = DevicePlan(1, [0, 0], [0, 4])
        rng = RngStream(31)
        outs = {0: rng.normal(4, 3), 1: rng.normal(4, 3)}
        shuffled = butterfly_shuffle(outs, plan)
        assert len(shuffled) == 1
        for t, s in enumerate(shuffled[0]):
            assert s.source_device == 0
            assert np.array_equal(s.values, outs[t])

    def test_two_devices_two_tables_hand_enumerated(self):
        plan = DevicePlan(2, [0, 1], [0, 2, 4])
        rng = RngStream(32)
        outs = {0: rng.normal(4, 3), 1: rng.normal(4, 3)}
        comm = CommLog()
        shuffled = butterfly_shuffle(outs, plan, comm, step=0)
        # device 0: table-0 rows 0-1 (local) + table-1 rows 0-1 (from dev 1)
        assert np.array_equal(shuffled[0][0].values, outs[0][0:2])
        assert shuffled[0][0].source_device == 0
        assert np.array_equal(shuffled[0][1].values, outs[1][0:2])
        assert shuffled[0][1].source_device == 1
        # device 1 is symmetric
        assert np.array_equal(shuffled[1][0].values, outs[0][2:4])
        assert shuffled[1][0].source_device == 0
        assert np.array_equal(shuffled[1][1].values, outs[1][2:4])
        assert shuffled[1][1].source_device == 1
        # off-device traffic: two 2x3 float64 slices
        assert comm.entries[0][2] == 2 * 2 * 3 * 8

    def test_multiset_conservation(self):
        cfg_sizes = [6, 6, 6]
        plan = DevicePlan(3, partition_tables(cfg_sizes, 3), shard_bounds(7, 3))
        rng = RngStream(33)
        outs = {t: rng.normal(7, 2) for t in range(3)}
        shuffled = butterfly_shuffle(outs, plan)
        seen = set()
        for dev_slices in shuffled:
            for s in dev_slices:
                lo, hi = s.sample_range
                for row in range(lo, hi):
                    key = (s.table_id, row, s.values[row - lo].tobytes())
                    assert key not in seen
                    seen.add(key)
        expect = {(t, r, outs[t][r].tobytes())
                  for t in range(3) for r in range(7)}
        assert seen == expect

    def test_inverse_shuffle_reconstructs(self):
        plan = DevicePlan(2, [0, 1, 1], shard_bounds(5, 2))
        rng = RngStream(34)
        full = {t: rng.normal(5, 3) for t in range(3)}
        per_dev = []
        for d in range(2):
            lo, hi = plan.shard(d)
            per_dev.append({t: full[t][lo:hi] for t in range(3)})
        back = inverse_shuffle(per_dev, plan)
        for t in range(3):
            assert np.array_equal(back[t], full[t])

    def test_row_count_checked(self):
        plan = DevicePlan(1, [0], [0, 4])
        with pytest.raises(ValueError):
            butterfly_shuffle({0: np.zeros((3, 2))}, plan)


class TestAllreduce:
    def test_single_replica_unchanged(self):
        g = np.array([[1.5, -2.0]])
        assert np.array_equal(allreduce([g]), g)

    def test_identical_replicas_scale(self):
        g = RngStream(35).normal(3, 2)
        out = allreduce([g, g, g, g])
        assert np.allclose(out, 4 * g, rtol=0, atol=0)

    def test_arithmetic(self):
        out = allreduce([np.array([1.0]), np.array([2.0]), np.array([3.0])])
        assert out.tolist() == [6.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            allreduce([np.zeros(2), np.zeros(3)])

    def test_max_variant(self):
        out = allreduce_max([np.array([1.0, 5.0]), np.array([2.0, 3.0])])
        assert out.tolist() == [2.0, 5.0]


def _equivalence_cases():
    """SGD over every device count and batch, plus Adagrad on 2 and 4
    devices; the ids are ``ndev-batch``, prefixed for Adagrad."""
    sgd = [pytest.param(batch, ndev, "sgd", id=f"{ndev}-{batch}")
           for ndev in (1, 2, 3, 4) for batch in (4, 8, 9)]
    adagrad = [pytest.param(9, ndev, "adagrad", id=f"adagrad-{ndev}-9")
               for ndev in (2, 4)]
    return sgd + adagrad


class TestSerialEquivalence:
    @pytest.mark.parametrize("batch, ndev, optimizer", _equivalence_cases())
    def test_fifty_steps_bit_identical(self, batch, ndev, optimizer):
        cfg = toy_config(seed=40 + batch)
        batches = gen_batches(cfg, batch, 50, seed=50 + batch)
        serial = init_model(cfg)
        opt = make_optimizer(optimizer, 0.1)
        serial_losses = [train_step(serial, *b, opt).loss for b in batches]

        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, batch, ndev),
                                  optimizer, 0.1)
        losses = [trainer.step(*b).loss for b in batches]
        assert losses == serial_losses
        assert params_equal(serial, trainer)
        assert trainer.max_replica_divergence() == 0.0

    def test_criteo_top_width_three_devices(self):
        # 26 tables at d=16: the top MLP's 367-wide input makes its backward
        # product pad b to 368 columns inside matmul
        cfg = DlrmConfig(embedding_sizes=[5] * 26, sparse_dim=16,
                         bottom_mlp_dims=[4, 16], top_mlp_dims=[512, 1],
                         seed=44)
        assert cfg.top_in_dim == 367
        batches = gen_batches(cfg, 150, 3, seed=55)
        serial = init_model(cfg)
        opt = make_optimizer("sgd", 0.1)
        serial_losses = [train_step(serial, *b, opt).loss for b in batches]

        trainer = ParallelTrainer(init_model(cfg), make_plan(cfg, 150, 3),
                                  "sgd", 0.1)
        assert [trainer.step(*b).loss for b in batches] == serial_losses
        assert params_equal(serial, trainer)

    def test_accuracy_matches_too(self):
        cfg = toy_config(seed=46)
        batches = gen_batches(cfg, 8, 5, seed=57)
        serial = init_model(cfg)
        opt = make_optimizer("sgd", 0.1)
        serial_res = [train_step(serial, *b, opt) for b in batches]
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 8, 3), "sgd", 0.1)
        for b, sr in zip(batches, serial_res):
            pr = trainer.step(*b)
            assert pr.accuracy == sr.accuracy
            assert np.array_equal(pr.probs, sr.probs)


def model_arrays(model):
    return ([a for mlp in (model.bottom, model.top) for layer in mlp.layers
             for a in (layer.weight, layer.bias)]
            + [t.weights for t in model.tables])


class TestInPlace:
    @pytest.mark.parametrize("ndev", [1, 2, 3, 4])
    def test_trains_the_callers_model(self, ndev):
        cfg = toy_config(seed=45)
        batches = gen_batches(cfg, 9, 10, seed=56)
        serial = init_model(cfg)
        opt = make_optimizer("adagrad", 0.1)
        for b in batches:
            train_step(serial, *b, opt)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 9, ndev),
                                  "adagrad", 0.1)
        for b in batches:
            trainer.step(*b)
        assert trainer.tables is model.tables
        bottom, top = trainer.replica_params(0)
        assert bottom is model.bottom and top is model.top
        for want, got in zip(model_arrays(serial), model_arrays(model),
                             strict=True):
            assert np.array_equal(want, got)


@pytest.mark.parametrize("batch", [1, 4, 9])
def test_train_step_gradients_equal_dlrm_backward(batch):
    cfg = toy_config(seed=60 + batch)
    dense, sparse, labels = gen_batches(cfg, batch, 1, seed=70 + batch)[0]
    recorder = RecordingOptimizer()
    train_step(init_model(cfg), dense, sparse, labels, recorder)

    reference = init_model(cfg)
    prob, cache = dlrm_forward_ref(reference, dense, sparse)
    want = dlrm_backward_ref(reference, cache, (prob - labels) / batch)
    for got, ref in zip(recorder.mlp, (want.bottom, want.top), strict=True):
        for g, r in zip(got.weights + got.biases, ref.weights + ref.biases,
                        strict=True):
            assert np.array_equal(g, r)
    for got, ref in zip(recorder.tables, want.tables, strict=True):
        assert np.array_equal(got.rows, ref.rows)
        assert np.array_equal(got.values, ref.values)


class TestCommReport:
    def test_format_and_content(self):
        cfg = toy_config(seed=47)
        batches = gen_batches(cfg, 6, 2, seed=58)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 6, 2), "sgd", 0.1)
        for b in batches:
            trainer.step(*b)
        report = format_comm_report(trainer.comm)
        lines = report.strip().split("\n")
        assert lines[0] == "step, collective, bytes, participants"
        names = set()
        for line in lines[1:]:
            step, name, nbytes, parts = [tok.strip()
                                         for tok in line.split(",")]
            assert int(step) in (0, 1)
            assert int(nbytes) >= 0
            assert int(parts) == 2
            names.add(name)
        assert names == {"butterfly_shuffle", "loss_gather", "stat_allreduce",
                         "grad_allreduce", "grad_reverse_shuffle"}

    def test_single_device_moves_no_shuffle_bytes(self):
        cfg = toy_config(seed=48)
        batches = gen_batches(cfg, 4, 1, seed=59)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 4, 1), "sgd", 0.1)
        trainer.step(*batches[0])
        by_name = {name: nbytes
                   for _, name, nbytes, _ in trainer.comm.entries}
        assert by_name["butterfly_shuffle"] == 0
        assert by_name["grad_allreduce"] == 0


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


class TestStreamedReduction:
    """``_reduce_mlp_grads`` adds each device's components into one running
    sum; it must give the bits and payload bytes of the reduction that
    builds every device's components first (``reduce_mlp_grads_ref``)."""

    @pytest.mark.parametrize("batch", [5, 16])
    @pytest.mark.parametrize("ndev", [1, 2, 3, 4, 7])
    def test_equals_list_then_allreduce(self, ndev, batch):
        # odd widths everywhere; 7 devices on 5 samples leaves empty shards
        cfg = DlrmConfig(embedding_sizes=[11, 6, 9], sparse_dim=5,
                         bottom_mlp_dims=[7, 9, 5], top_mlp_dims=[13, 3, 1],
                         seed=ndev)
        model = init_model(cfg)
        dense_x, sparse, labels = gen_batches(cfg, batch, 1, seed=70)[0]
        emb = [lookup_batch(t, sb) for t, sb in zip(model.tables, sparse)]
        bounds = shard_bounds(batch, ndev)
        shards = [parallel._forward_backward(
            model.bottom, model.top, dense_x[lo:hi], [e[lo:hi] for e in emb],
            labels[lo:hi], batch, NullTimer())
            for lo, hi in zip(bounds, bounds[1:])]
        for which in ("bottom", "top"):
            traces = [getattr(r, f"{which}_traces") for r in shards]
            want_w, want_b, want_stat, want_grad = reduce_mlp_grads_ref(
                traces, batch)
            grads, stat, grad = parallel._reduce_mlp_grads(traces, batch)
            assert _bits(grads.weights) == _bits(want_w)
            assert _bits(grads.biases) == _bits(want_b)
            assert (stat, grad) == (want_stat, want_grad)

    def test_peak_memory_holds_one_device_at_a_time(self):
        # One 256 -> 256 layer over 256 samples. The streamed reduction on
        # 4 devices may hold one product buffer more than on 1 device; the
        # slack covers the vectors (column maxima, bias components).
        n, width = 256, 256
        buffer = width * width * 8
        slack = 64 * 1024
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, width))
        gz = rng.standard_normal((n, width))

        def traces(ndev):
            bounds = shard_bounds(n, ndev)
            return [[(x[lo:hi], gz[lo:hi],
                      np.abs(x[lo:hi]).max(axis=0, initial=0.0),
                      np.abs(gz[lo:hi]).max(axis=0, initial=0.0))]
                     for lo, hi in zip(bounds, bounds[1:])]

        def peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        def streamed(ndev):
            t = traces(ndev)
            return peak(lambda: parallel._reduce_mlp_grads(t, n))

        one, four = streamed(1), streamed(4)
        assert one >= 6 * buffer        # numpy allocations are traced
        assert four <= one + buffer + slack
        # holding every device's components at once breaks the bound
        t4 = traces(4)
        assert peak(lambda: reduce_mlp_grads_ref(t4, n)) > one + buffer + slack


def _fail_third_gradient_contribution(monkeypatch):
    calls = []
    real = parallel.layer_grad_components

    def third_call_fails(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 3:
            raise ValueError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "layer_grad_components", third_call_fails)


class TestErrors:
    def test_failing_gradient_contribution_names_its_device(
            self, monkeypatch):
        _fail_third_gradient_contribution(monkeypatch)
        cfg = toy_config(seed=51)
        trainer = ParallelTrainer(init_model(cfg), make_plan(cfg, 8, 4),
                                  "sgd", 0.1)
        batch = gen_batches(cfg, 8, 1, seed=62)[0]
        with pytest.raises(RuntimeError, match="^device 2: injected$"):
            trainer.step(*batch)

    def test_failing_serial_step_names_device_0(self, monkeypatch):
        _fail_third_gradient_contribution(monkeypatch)
        cfg = toy_config(seed=51)
        batch = gen_batches(cfg, 8, 1, seed=62)[0]
        with pytest.raises(RuntimeError, match="^device 0: injected$"):
            train_step(init_model(cfg), *batch, make_optimizer("sgd", 0.1))

    def test_serial_lookup_failure_names_device_0(self):
        cfg = toy_config(seed=49)
        dense, sparse, labels = gen_batches(cfg, 4, 1, seed=60)[0]
        bad = SparseBatch(sparse[0].offsets, sparse[0].indices + 1000)
        with pytest.raises(RuntimeError, match="^device 0: .*table 0"):
            train_step(init_model(cfg), dense, [bad, sparse[1], sparse[2]],
                       labels, make_optimizer("sgd", 0.1))

    @staticmethod
    def _stepper(cfg, batch, ndev):
        """A fresh model and its step: serial ``train_step`` for ndev 1,
        otherwise a ``ParallelTrainer`` on ndev devices."""
        model = init_model(cfg)
        if ndev == 1:
            opt = make_optimizer("sgd", 0.1)
            return model, lambda *b: train_step(model, *b, opt)
        trainer = ParallelTrainer(model, make_plan(cfg, batch, ndev),
                                  "sgd", 0.1)
        return model, trainer.step

    @pytest.mark.parametrize("ndev", [1, 2])
    @pytest.mark.parametrize("shape", [(1,), (6, 1), (7,)], ids=str)
    def test_labels_need_one_per_sample(self, ndev, shape):
        cfg = toy_config(seed=52)
        dense, sparse, _ = gen_batches(cfg, 6, 1, seed=63)[0]
        model, step = self._stepper(cfg, 6, ndev)
        with pytest.raises(ValueError,
                           match=rf"^labels have shape {re.escape(str(shape))}"
                                 r", expected \(6,\)$"):
            step(dense, sparse, np.ones(shape))
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))

    @pytest.mark.parametrize("ndev", [1, 2])
    def test_one_sparse_batch_per_table(self, ndev):
        cfg = toy_config(seed=53)
        dense, sparse, labels = gen_batches(cfg, 6, 1, seed=64)[0]
        short = SparseBatch(sparse[1].offsets[:-1],
                            sparse[1].indices[:sparse[1].offsets[-2]])
        model, step = self._stepper(cfg, 6, ndev)
        for batches, message in (
                (sparse + [sparse[0]], "^got 4 sparse batches for 3 tables$"),
                (sparse[:2], "^got 2 sparse batches for 3 tables$"),
                ([sparse[0], short, sparse[2]],
                 "^sparse batch 1 has 5 segments, batch is 6$")):
            with pytest.raises(ValueError, match=message):
                step(dense, batches, labels)
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))

    def test_device_context_on_failure(self):
        cfg = toy_config(seed=49)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 4, 2), "sgd", 0.1)
        dense, sparse, labels = gen_batches(cfg, 4, 1, seed=60)[0]
        bad = SparseBatch(sparse[0].offsets, sparse[0].indices + 1000)
        with pytest.raises(RuntimeError, match="device"):
            trainer.step(dense, [bad, sparse[1], sparse[2]], labels)

    def test_batch_size_must_match_plan(self):
        cfg = toy_config(seed=50)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 4, 2), "sgd", 0.1)
        dense, sparse, labels = gen_batches(cfg, 6, 1, seed=61)[0]
        with pytest.raises(ValueError):
            trainer.step(dense, sparse, labels)
