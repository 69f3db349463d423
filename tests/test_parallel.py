import re
import threading
import tracemalloc

import numpy as np
import pytest

from dlrmkit import parallel
from dlrmkit.dense import LEVELS, RngStream
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
    position_skewed_matmul,
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
    b0, t0 = trainer.replicas[0]
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

    @pytest.mark.parametrize("batch, ndev", [(8, 4), (9, 4), (3, 5), (1, 1)])
    def test_plan_shards_are_shard_bounds(self, batch, ndev):
        plan = DevicePlan(ndev, [0], batch)
        assert plan.shard_bounds == shard_bounds(batch, ndev)
        assert [plan.shard(d) for d in range(ndev)] == list(
            zip(plan.shard_bounds, plan.shard_bounds[1:]))

    def test_plan_rejects_a_negative_batch(self):
        with pytest.raises(ValueError, match="^batch size -3 is negative$"):
            DevicePlan(2, [0], -3).validate()

    def test_trainer_validates_its_plan_at_construction(self):
        cfg = toy_config(seed=51)
        model = init_model(cfg)
        with pytest.raises(ValueError,
                           match="^table assigned to a device outside the "
                                 "plan$"):
            ParallelTrainer(model, DevicePlan(2, [0, 1, 2], 4), "sgd", 0.1)


class TestButterflyShuffle:
    def test_single_device_identity(self):
        plan = DevicePlan(1, [0, 0], 4)
        rng = RngStream(31)
        outs = {0: rng.normal(4, 3), 1: rng.normal(4, 3)}
        shuffled = butterfly_shuffle(outs, plan)
        assert len(shuffled) == 1
        for t, s in enumerate(shuffled[0]):
            assert np.array_equal(s, outs[t])

    def test_two_devices_two_tables_hand_enumerated(self):
        plan = DevicePlan(2, [0, 1], 4)
        rng = RngStream(32)
        outs = {0: rng.normal(4, 3), 1: rng.normal(4, 3)}
        comm = CommLog()
        shuffled = butterfly_shuffle(outs, plan, comm, step=0)
        # device 0: table-0 rows 0-1 (local) + table-1 rows 0-1 (from dev 1)
        assert np.array_equal(shuffled[0][0], outs[0][0:2])
        assert np.array_equal(shuffled[0][1], outs[1][0:2])
        # device 1 is symmetric
        assert np.array_equal(shuffled[1][0], outs[0][2:4])
        assert np.array_equal(shuffled[1][1], outs[1][2:4])
        # off-device traffic: two 2x3 float64 slices
        assert comm.entries[0][2] == 2 * 2 * 3 * 8

    def test_multiset_conservation(self):
        cfg_sizes = [6, 6, 6]
        plan = DevicePlan(3, partition_tables(cfg_sizes, 3), 7)
        rng = RngStream(33)
        outs = {t: rng.normal(7, 2) for t in range(3)}
        shuffled = butterfly_shuffle(outs, plan)
        seen = set()
        for dev, dev_slices in enumerate(shuffled):
            lo, hi = plan.shard(dev)
            for t, s in enumerate(dev_slices):
                for row in range(lo, hi):
                    key = (t, row, s[row - lo].tobytes())
                    assert key not in seen
                    seen.add(key)
        expect = {(t, r, outs[t][r].tobytes())
                  for t in range(3) for r in range(7)}
        assert seen == expect

    def test_inverse_shuffle_reconstructs(self):
        plan = DevicePlan(2, [0, 1, 1], 5)
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
        plan = DevicePlan(1, [0], 4)
        with pytest.raises(ValueError):
            butterfly_shuffle({0: np.zeros((3, 2))}, plan)

    def test_inverse_shuffle_names_a_short_device(self):
        # device 1 of 3 hands table 2 a gradient one row short of its shard
        plan = DevicePlan(3, [0, 1, 2], 8)
        rng = RngStream(35)
        per_dev = [[rng.normal(hi - lo, 3) for _ in range(3)]
                   for lo, hi in zip(plan.shard_bounds, plan.shard_bounds[1:])]
        per_dev[1][2] = per_dev[1][2][:-1]
        with pytest.raises(RuntimeError, match="^device 1: table 2 gradient "
                                               "has 2 rows, shard is 3$"):
            inverse_shuffle(per_dev, plan)

    @pytest.mark.parametrize("ndev, batch", [(1, 5), (3, 5), (7, 5), (3, 16)])
    @pytest.mark.parametrize("tail", [(), (4,), (2, 3)], ids=str)
    def test_gather_equals_concatenate(self, ndev, batch, tail):
        # 7 devices on 5 samples leave devices 5 and 6 empty shards
        bounds = shard_bounds(batch, ndev)
        rng = np.random.default_rng(ndev * batch)
        parts = [rng.standard_normal((hi - lo, *tail))
                 for lo, hi in zip(bounds, bounds[1:])]
        got = parallel._gather(parts, bounds, "rows")
        want = np.concatenate(parts)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_gather_names_the_device_and_the_shapes(self):
        bounds = shard_bounds(5, 3)     # shards of 2, 2 and 1 rows
        parts = [np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((1, 3))]
        with pytest.raises(RuntimeError, match=re.escape(
                "device 2: rows has shape (1, 3), shard is (1, 4)")):
            parallel._gather(parts, bounds, "rows")
        parts[0] = np.zeros((3, 4))
        with pytest.raises(RuntimeError, match="^device 0: rows has 3 rows, "
                                               "shard is 2$"):
            parallel._gather(parts, bounds, "rows")

    @pytest.mark.parametrize("ndev", [1, 3])
    def test_short_per_sample_loss_names_its_device(self, monkeypatch, ndev):
        # the last device's per-sample loss is one row short of its shard
        cfg = toy_config(seed=57)
        model = init_model(cfg)
        plan = make_plan(cfg, 7, ndev)
        trainer = ParallelTrainer(model, plan, "sgd", 0.1)
        real = parallel.bce_from_logits
        calls = []

        def short_on_last_device(logits, labels):
            calls.append(None)
            per_sample = real(logits, labels)
            return per_sample[:-1] if len(calls) == ndev else per_sample

        monkeypatch.setattr(parallel, "bce_from_logits", short_on_last_device)
        lo, hi = plan.shard(ndev - 1)
        with pytest.raises(RuntimeError, match=(
                f"^device {ndev - 1}: per-sample loss has {hi - lo - 1} "
                f"rows, shard is {hi - lo}$")):
            trainer.step(*gen_batches(cfg, 7, 1, seed=68)[0])
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))


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

    def test_position_dependent_gemm_keeps_serial_bits(self, monkeypatch):
        # a GEMM whose output rows pick up their position in the call:
        # shard rows still land where the serial run puts them, so every
        # device count gives the serial losses and parameters
        monkeypatch.setattr(np, "matmul", position_skewed_matmul)
        cfg = toy_config(seed=49)
        batches = gen_batches(cfg, 9, 3, seed=59)
        serial = init_model(cfg)
        opt = make_optimizer("sgd", 0.1)
        serial_losses = [train_step(serial, *b, opt).loss for b in batches]
        for ndev in (2, 3, 5):
            trainer = ParallelTrainer(init_model(cfg), make_plan(cfg, 9, ndev),
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
        bottom, top = trainer.replicas[0]
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


def _peak(fn):
    """Bytes traced by tracemalloc at the high point of ``fn()`` above
    its entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _layer_traces(x, gz, ndev):
    """One layer's ``mlp_backward_trace`` pairs on each of ``ndev``
    devices, sharded as ``shard_bounds`` cuts the batch."""
    bounds = shard_bounds(x.shape[0], ndev)
    return [[(x[lo:hi], gz[lo:hi])] for lo, hi in zip(bounds, bounds[1:])]


class TestStreamedReduction:
    """``_reduce_mlp_grads`` gathers the devices' rows, snaps them once and
    makes one product (bucket) per slice pair over all of them, folding it
    into the gradient at once; it must give the bits and payload bytes of
    the distributed scheme, in which every device snaps its own shard on
    grids shared by a max-allreduce, builds its components and allreduces
    them (``reduce_mlp_grads_ref``)."""

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
            labels[lo:hi], batch, lo, NullTimer())
            for lo, hi in zip(bounds, bounds[1:])]
        for which in ("bottom", "top"):
            traces = [getattr(r, f"{which}_traces") for r in shards]
            want_w, want_b, want_stat, want_grad = reduce_mlp_grads_ref(
                traces, batch)
            grads, stat, grad = parallel._reduce_mlp_grads(
                traces, bounds, f"{which} MLP")
            assert _bits(grads.weights) == _bits(want_w)
            assert _bits(grads.biases) == _bits(want_b)
            assert (stat, grad) == (want_stat, want_grad)

    @pytest.mark.parametrize("ndev", [1, 3, 4])
    def test_desk_top_layer_shape_equals_list_then_allreduce(self, ndev):
        # The desk top MLP's first layer, 100 -> 1024 over 256 samples: its
        # weight buckets are (1024 x 256) . (256 x 100) products. ReLU
        # inputs (zeros included), an all-zero input column and gradient
        # columns spread over 2^+-40.
        n, n_in, n_out = 256, 100, 1024
        rng = np.random.default_rng(ndev)
        x = np.maximum(rng.standard_normal((n, n_in)), 0.0)
        x[:, 7] = 0.0
        gz = rng.standard_normal((n, n_out)) * np.exp2(
            rng.integers(-40, 41, size=(1, n_out)))
        want_w, want_b, want_stat, want_grad = reduce_mlp_grads_ref(
            _layer_traces(x, gz, ndev), n)
        grads, stat, grad = parallel._reduce_mlp_grads(
            _layer_traces(x, gz, ndev), shard_bounds(n, ndev), "MLP")
        assert _bits(grads.weights) == _bits(want_w)
        assert _bits(grads.biases) == _bits(want_b)
        assert (stat, grad) == (want_stat, want_grad)

    def test_peak_memory_holds_one_bucket_at_a_time(self):
        # One 256 -> 256 layer over 128 samples, below the crossover
        # n < 2 * in * out / (in + out) = 256 under which the stacked slices
        # cost less than the components they replace. Any device count
        # holds the slices, the gradient and one bucket: the devices' rows
        # share the gathered buffers and each bucket is one product, so 4
        # devices need no more than one. The slack covers the vectors
        # (column maxima, bias buckets).
        n, width = 128, 256
        buffer = width * width * 8
        slices = LEVELS * n * (width + width) * 8
        slack = 64 * 1024
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, width))
        gz = rng.standard_normal((n, width))

        def bucketed(ndev):
            t = _layer_traces(x, gz, ndev)
            return _peak(lambda: parallel._reduce_mlp_grads(
                t, shard_bounds(n, ndev), "MLP"))

        one, four = bucketed(1), bucketed(4)
        assert one >= slices + buffer       # numpy allocations are traced
        assert one <= slices + 2 * buffer + slack
        assert four <= one + slack
        # holding every device's components at once breaks the bound
        t4 = _layer_traces(x, gz, 4)
        assert (_peak(lambda: reduce_mlp_grads_ref(t4, n))
                > slices + 2 * buffer + slack)

    @pytest.mark.parametrize("ndev", [1, 3])
    def test_step_peak_memory_holds_gradients_and_one_layer(self, ndev):
        # Each buffer is freed after its last reader and the updates run
        # in blocks, so the step holds at most every MLP and table gradient
        # (the finiteness check needs them all before any update), the
        # largest layer's slices and two layer-sized buffers, plus a slack.
        # The model's table gradients outweigh its activations, as the
        # desk model's do.
        n, hot = 128, 8
        cfg = DlrmConfig(embedding_sizes=[1000] * 4, sparse_dim=64,
                         bottom_mlp_dims=[13, 64, 64],
                         top_mlp_dims=[128, 128, 1], seed=3)
        rng = RngStream(5)
        dense_x = rng.uniform(n, cfg.dense_dim)
        sparse = [SparseBatch(offsets_from_lengths([hot] * n),
                              rng.integers(0, m, hot * n))
                  for m in cfg.embedding_sizes]
        labels = (rng.uniform(1, n)[0] < 0.5).astype(np.float64)
        _, step = TestErrors._stepper(cfg, n, ndev)

        dims = ([cfg.dense_dim] + cfg.bottom_mlp_dims,
                [cfg.top_in_dim] + cfg.top_mlp_dims)
        layers = [(i, o) for d in dims for i, o in zip(d, d[1:])]
        mlp_grads = sum((i * o + o) * 8 for i, o in layers)
        table_grads = sum(np.unique(b.indices).size * cfg.sparse_dim * 8
                          for b in sparse)
        slices = max(LEVELS * n * (i + o) * 8 for i, o in layers)
        buffer = max(i * o * 8 for i, o in layers)
        slack = 64 * 1024

        assert (_peak(lambda: step(dense_x, sparse, labels))
                <= mlp_grads + table_grads + slices + 2 * buffer + slack)


def _fail_third_gradient_contribution(monkeypatch):
    # one call per layer, bottom MLP first: toy_config's bottom MLP has one
    # layer, so the third call is the top MLP's layer 1
    calls = []
    real = parallel.layer_grad_components

    def third_call_fails(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 3:
            raise ValueError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "layer_grad_components", third_call_fails)


class TestErrors:
    def test_failing_layer_gradient_names_its_mlp_and_layer(
            self, monkeypatch):
        _fail_third_gradient_contribution(monkeypatch)
        cfg = toy_config(seed=51)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 8, 4), "sgd", 0.1)
        batch = gen_batches(cfg, 8, 1, seed=62)[0]
        with pytest.raises(RuntimeError, match="^top MLP layer 1: injected$"):
            trainer.step(*batch)
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))
        assert trainer.max_replica_divergence() == 0.0

    def test_short_trace_names_its_device_mlp_and_layer(self, monkeypatch):
        # device 2 of 4 hands the reduction a top MLP layer 1 trace one row
        # short of its 2-row shard
        cfg = toy_config(seed=55)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 8, 4), "sgd", 0.1)
        batch = gen_batches(cfg, 8, 1, seed=66)[0]
        real = parallel.mlp_backward_trace
        calls = []

        def short_on_device_2(params, cache, grad_y):
            traces, grad_x = real(params, cache, grad_y)
            calls.append(params)
            if len(calls) == 5:     # device 2's top MLP sweep
                assert params is trainer.replicas[2][1]
                x, gz = traces[1]
                traces[1] = (x[:-1], gz[:-1])
            return traces, grad_x

        monkeypatch.setattr(parallel, "mlp_backward_trace", short_on_device_2)
        with pytest.raises(RuntimeError,
                           match="^device 2: top MLP layer 1 trace has 1 "
                                 "rows, shard is 2$"):
            trainer.step(*batch)
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))

    def test_failing_serial_layer_gradient_names_its_mlp_and_layer(
            self, monkeypatch):
        _fail_third_gradient_contribution(monkeypatch)
        cfg = toy_config(seed=51)
        model = init_model(cfg)
        batch = gen_batches(cfg, 8, 1, seed=62)[0]
        with pytest.raises(RuntimeError, match="^top MLP layer 1: injected$"):
            train_step(model, *batch, make_optimizer("sgd", 0.1))
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))

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

    @pytest.mark.parametrize("ndev", [1, 3])
    @pytest.mark.parametrize("poisoned", ["layer", "table"])
    def test_non_finite_gradient_stops_the_step(self, monkeypatch, ndev,
                                                poisoned):
        # toy_config's top MLP is 9 -> 10 -> 4 -> 1, so only its layer 1
        # has 4 outputs; table 1 lives on device 2 of 3
        cfg = toy_config(seed=54)
        batch = gen_batches(cfg, 6, 1, seed=65)[0]
        model, step = self._stepper(cfg, 6, ndev)
        if poisoned == "layer":
            real = parallel.layer_grad_components

            def nan_in_top_layer_1(x, gz, *args):
                if gz.shape[1] == 4:
                    gz = gz.copy()
                    gz[0, 0] = np.nan
                return real(x, gz, *args)

            monkeypatch.setattr(parallel, "layer_grad_components",
                                nan_in_top_layer_1)
            message = "^top MLP layer 1 weight gradient is not finite$"
        else:
            real = parallel.lookup_backward

            def nan_in_table_1(table, sparse, grad):
                g = real(table, sparse, grad)
                if table is model.tables[1]:
                    g.values[0, 0] = np.nan
                return g

            monkeypatch.setattr(parallel, "lookup_backward", nan_in_table_1)
            owner = make_plan(cfg, 6, ndev).table_assignment[1]
            message = f"^device {owner}: table 1 gradient is not finite$"
        with pytest.raises(FloatingPointError, match=message):
            step(*batch)
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))
        if ndev > 1:    # the other replicas too
            assert step.__self__.max_replica_divergence() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5)], ids=str)
    def test_require_finite_sees_either_end(self, bad, end, shape):
        values = np.arange(float(np.prod(shape))).reshape(shape)
        parallel._require_finite(values, "x")
        values.reshape(-1)[end] = bad
        with pytest.raises(FloatingPointError, match="^x is not finite$"):
            parallel._require_finite(values, "x")

    @pytest.mark.parametrize("values", [np.empty(0), np.empty((0, 3)),
                                        np.empty((4, 0)), 0.25, -1e308],
                             ids=["0", "0x3", "4x0", "float", "-1e308"])
    def test_require_finite_passes_empty_and_scalar_values(self, values):
        parallel._require_finite(values, "x")

    @pytest.mark.parametrize("ndev", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("poisoned", ["loss", "weight", "bias", "table"])
    def test_non_finite_value_at_either_end_stops_the_step(
            self, monkeypatch, ndev, bad, end, poisoned):
        # the first or the last value of the per-sample losses (device 0's
        # first sample or the last device's last one), of the top MLP's
        # layer 2 weight gradient or the bottom MLP's layer 0 bias
        # gradient, or of table 1's gradient
        cfg = toy_config(seed=55)
        batch = gen_batches(cfg, 6, 1, seed=66)[0]
        model, step = self._stepper(cfg, 6, ndev)
        calls = []
        if poisoned == "loss":
            real = parallel.bce_from_logits

            def poison_loss(logits, labels):
                per_sample = real(logits, labels)
                calls.append(None)
                if len(calls) == (1 if end == 0 else ndev):
                    per_sample[end] = bad
                return per_sample

            monkeypatch.setattr(parallel, "bce_from_logits", poison_loss)
            message = "^loss is not finite$"
        elif poisoned in ("weight", "bias"):
            real = parallel._reduce_mlp_grads
            # bottom is reduced first, then top
            which, layer = (("top", 2) if poisoned == "weight"
                            else ("bottom", 0))

            def poison_grads(traces, *args):
                grads, *payload = real(traces, *args)
                calls.append(None)
                if len(calls) == (2 if which == "top" else 1):
                    arrays = (grads.weights if poisoned == "weight"
                              else grads.biases)
                    arrays[layer].reshape(-1)[end] = bad
                return grads, *payload

            monkeypatch.setattr(parallel, "_reduce_mlp_grads", poison_grads)
            message = (f"^{which} MLP layer {layer} {poisoned} gradient "
                       "is not finite$")
        else:
            real = parallel.lookup_backward

            def poison_table_1(table, sparse, grad):
                g = real(table, sparse, grad)
                if table is model.tables[1]:
                    g.values.reshape(-1)[end] = bad
                return g

            monkeypatch.setattr(parallel, "lookup_backward", poison_table_1)
            owner = make_plan(cfg, 6, ndev).table_assignment[1]
            message = f"^device {owner}: table 1 gradient is not finite$"
        with pytest.raises(FloatingPointError, match=message):
            step(*batch)
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))
        if ndev > 1:
            assert step.__self__.max_replica_divergence() == 0.0

    def test_failing_pooled_gemm_names_its_device(self, monkeypatch, pooled):
        # batch 130 on 2 devices: each 65-row shard spans two tiles, so each
        # of a device's products is two GEMM calls, one on a pool thread;
        # the first pool-thread call of device 1's first forward/backward
        # fails
        cfg = toy_config(seed=56)
        batches = gen_batches(cfg, 130, 2, seed=67)
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, 130, 2), "sgd", 0.1)
        real_local, real_gemm = parallel._forward_backward, np.matmul
        state = {"armed": False, "failed": False, "pool_calls": 0}

        def local(bottom, top, dense_x, emb, labels, n_total, first_row,
                  timer):
            state["armed"] = first_row == 65 and not state["failed"]
            return real_local(bottom, top, dense_x, emb, labels, n_total,
                              first_row, timer)

        def gemm(a, b, out=None):
            if threading.current_thread() is not threading.main_thread():
                state["pool_calls"] += 1
                if state["armed"]:
                    state["armed"], state["failed"] = False, True
                    raise ValueError("injected")
            return real_gemm(a, b, out=out)

        monkeypatch.setattr(parallel, "_forward_backward", local)
        monkeypatch.setattr(np, "matmul", gemm)
        with pytest.raises(RuntimeError, match="^device 1: injected$"):
            trainer.step(*batches[0])
        assert all(np.array_equal(a, b) for a, b in zip(
            model_arrays(model), model_arrays(init_model(cfg)), strict=True))
        # the pool still runs the next steps, with the serial bits
        serial = init_model(cfg)
        opt = make_optimizer("sgd", 0.1)
        want = [train_step(serial, *b, opt).loss for b in batches]
        state["pool_calls"] = 0
        assert [trainer.step(*b).loss for b in batches] == want
        assert state["pool_calls"] > 0
        assert params_equal(serial, trainer)

    @pytest.mark.parametrize("ndev", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_pooled_bucket_stops_the_step(self, monkeypatch,
                                                     pooled, ndev, bad):
        # top MLP layer 1 (4 outputs) has its buckets cut into 3 row blocks
        # and its finiteness check split into two pooled calls
        cfg = toy_config(seed=54)
        batch = gen_batches(cfg, 6, 1, seed=65)[0]
        model, step = self._stepper(cfg, 6, ndev)
        real = parallel.layer_grad_components

        def poison_top_layer_1(x, gz, *args):
            if gz.shape[1] == 4:
                gz = gz.copy()
                gz[-1, -1] = bad
            return real(x, gz, *args)

        monkeypatch.setattr(parallel, "layer_grad_components",
                            poison_top_layer_1)
        # inf - inf makes NaN slices; the pool threads keep this errstate
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError,
                match="^top MLP layer 1 weight gradient is not finite$"):
            step(*batch)
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
