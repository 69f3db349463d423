"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np
import pytest

from dlrmkit.cli import parse_args, run_benchmark
from dlrmkit.datagen import (
    adjust_distribution,
    default_first_touch_floor,
    generate_trace,
    lru_hit_rate,
    profile_trace,
)
from dlrmkit.dense import RngStream
from dlrmkit.embedding import (
    SparseBatch,
    lengths_from_offsets,
    offsets_from_lengths,
)
from dlrmkit.model import (
    DlrmConfig,
    FmParams,
    bce_from_logits,
    dlrm_forward,
    embedding_param_count,
    fm_predict,
    fm_predict_naive,
    init_model,
    interaction_width,
)
from dlrmkit.optim import make_optimizer
from dlrmkit.parallel import ParallelTrainer, make_plan, train_step

from oracles import (
    RecordingOptimizer,
    fd_param_grad,
    grad_rel_err,
    total_variation,
)


def verdict(n: int, ok: bool, detail: str):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_offsets_indices_fixture():
    """Three lookups {0,2},{0,1,5},{3} round-trip through lengths/offsets."""
    lookups = [[0, 2], [0, 1, 5], [3]]
    offsets_from_lengths([1])  # warm the code path before timing
    t0 = time.perf_counter()
    lengths = [len(seg) for seg in lookups]
    offsets = offsets_from_lengths(lengths)
    indices = np.concatenate([np.asarray(s, dtype=np.int64)
                              for s in lookups])
    batch = SparseBatch(offsets, indices)
    decoded = [batch.indices[batch.segment_slice(j)].tolist()
               for j in range(batch.num_segments)]
    back_lengths = lengths_from_offsets(offsets).tolist()
    elapsed = time.perf_counter() - t0
    ok = (lengths == [2, 3, 1]
          and offsets[:-1].tolist() == [0, 2, 5]      # published rendering
          and offsets.tolist() == [0, 2, 5, 6]        # CSR terminal entry
          and indices.tolist() == [0, 2, 0, 1, 5, 3]
          and decoded == lookups
          and back_lengths == [2, 3, 1]
          and elapsed < 1e-3)
    verdict(1, ok, f"encode/decode exact, {elapsed * 1e6:.0f} us")


def test_criterion_02_end_to_end_gradients():
    """Toy model, every parameter vs central differences, rel err < 1e-5.

    The gradients are the training step's own, captured by an optimizer that
    records what it is handed; the loss is the library's forward and BCE.
    """
    t0 = time.perf_counter()
    cfg = DlrmConfig(embedding_sizes=[7, 7], sparse_dim=3,
                     bottom_mlp_dims=[4, 3], top_mlp_dims=[10, 4, 1],
                     seed=202)
    model = init_model(cfg)
    stream = RngStream(203)
    batch = 5
    dense = stream.normal(batch, 4)
    sparse = []
    for m in cfg.embedding_sizes:
        lens = [int(stream.integers(1, 4, ())) for _ in range(batch)]
        sparse.append(SparseBatch(offsets_from_lengths(lens),
                                  stream.integers(0, m, int(sum(lens)))))
    labels = (stream.uniform(1, batch)[0] < 0.5).astype(np.float64)

    def loss():
        _, logits = dlrm_forward(model, dense, sparse)
        return bce_from_logits(logits, labels).mean()

    recorder = RecordingOptimizer()
    train_step(model, dense, sparse, labels, recorder)

    worst = 0.0
    checked = 0
    for mlp, g in zip((model.bottom, model.top), recorder.mlp, strict=True):
        for l, layer in enumerate(mlp.layers):
            for arr, ga in ((layer.weight, g.weights[l]),
                            (layer.bias, g.biases[l])):
                for idx in np.ndindex(arr.shape):
                    err = grad_rel_err(ga[idx],
                                       fd_param_grad(loss, arr, idx),
                                       floor=1e-3)
                    worst = max(worst, err)
                    checked += 1
    for t, table in enumerate(model.tables):
        dense_grad = recorder.tables[t].to_dense(table.num_rows)
        for idx in np.ndindex(table.weights.shape):
            err = grad_rel_err(dense_grad[idx],
                               fd_param_grad(loss, table.weights, idx),
                               floor=1e-3)
            worst = max(worst, err)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    verdict(2, ok, f"{checked} params, worst rel err {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_03_fm_identity():
    t0 = time.perf_counter()
    rng = RngStream(301)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33, ()))
        d = int(rng.integers(1, 9, ()))
        params = FmParams(float(rng.normal(1, 1)[0, 0]),
                          rng.normal(1, n)[0], rng.normal(n, d))
        x = rng.normal(1, n)[0]
        naive = fm_predict_naive(params, x)
        fact = fm_predict(params, x)
        worst = max(worst, abs(naive - fact) / max(1.0, abs(naive)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    verdict(3, ok, f"100 instances, worst discrepancy {worst:.2e}, "
                   f"{elapsed * 1000:.0f} ms")


def test_criterion_04_interaction_width():
    criteo = interaction_width(16, 27)
    prop = all(interaction_width(5, nf) == 5 + nf * (nf - 1) // 2
               for nf in range(1, 11))
    # and the model realizes that width
    cfg = DlrmConfig(embedding_sizes=[10] * 26, sparse_dim=16,
                     bottom_mlp_dims=[13, 16], top_mlp_dims=[8, 1], seed=0)
    ok = criteo == 367 and prop and cfg.top_in_dim == 367
    verdict(4, ok, f"criteo-shaped width {criteo}, property holds on "
                   f"n_f in [1,10]")


def test_criterion_05_parameter_counting():
    # 8 tables x 1M rows x dim 64; pure arithmetic, no table allocation.
    # The "approximately 540M" total of the public-data config is not
    # reproducible (its vocabulary sizes are data-dependent and unpublished).
    count = embedding_param_count([1_000_000] * 8, 64)
    ok = count == 512_000_000
    verdict(5, ok, f"embedding parameter count {count:,}")


def test_criterion_06_hand_profiled_traces():
    # [a,a,a] and [a,b,a] with ids a=0, b=1
    p1 = profile_trace([0, 0, 0])
    p2 = profile_trace([0, 1, 0])
    ok = (set(p1.probabilities) == {0, 1}
          and abs(p1.probabilities[0] - 1 / 3) <= 1e-12
          and abs(p1.probabilities[1] - 2 / 3) <= 1e-12
          and p1.uniques == [0]
          and set(p2.probabilities) == {0, 2}
          and abs(p2.probabilities[0] - 2 / 3) <= 1e-12
          and abs(p2.probabilities[2] - 1 / 3) <= 1e-12
          and p2.uniques == [0, 1])
    verdict(6, ok, "profile([a,a,a]) and profile([a,b,a]) exact")


@pytest.fixture(scope="module")
def synthesis_corpus():
    """Criterion-7 corpus: 10k uniform draws over 100 ids + 5 synthetic
    round trips through the adjusted profile."""
    rng = RngStream(700)
    trace = rng.integers(0, 100, 10000).tolist()
    profile = profile_trace(trace)
    adjusted = adjust_distribution(
        profile, default_first_touch_floor(profile, 10000))
    synthetic = [generate_trace(adjusted, 10000, RngStream(710 + s))
                 for s in range(5)]
    return trace, profile, synthetic


def test_criterion_07_synthesis_round_trip(synthesis_corpus):
    t0 = time.perf_counter()
    trace, profile, synthetic = synthesis_corpus
    tvs = [total_variation(profile.probabilities,
                           profile_trace(syn).probabilities)
           for syn in synthetic]
    elapsed = time.perf_counter() - t0
    mean_tv = sum(tvs) / len(tvs)
    ok = mean_tv < 0.05 and elapsed < 5.0
    verdict(7, ok, f"TV mean {mean_tv:.4f} over 5 seeds "
                   f"(per-seed max {max(tvs):.4f}), {elapsed:.1f}s")


def test_criterion_08_cache_rate_fidelity(synthesis_corpus):
    trace, _, synthetic = synthesis_corpus
    worst_gap = 0.0
    for cap in (8, 32, 64):
        base = lru_hit_rate(trace, cap)
        for syn in synthetic:
            worst_gap = max(worst_gap,
                            abs(base - lru_hit_rate(syn, cap)) * 100.0)
    ok = worst_gap < 5.0
    verdict(8, ok, f"max LRU hit-rate gap {worst_gap:.2f} pp at "
                   f"capacities 8/32/64")


def test_criterion_09_parallel_serial_equivalence():
    t0 = time.perf_counter()
    cfg = DlrmConfig(embedding_sizes=[7, 5, 9], sparse_dim=3,
                     bottom_mlp_dims=[4, 3], top_mlp_dims=[10, 4, 1],
                     seed=900)
    batch, steps = 8, 50
    rng = RngStream(901)
    data = []
    for _ in range(steps):
        dense = rng.uniform(batch, 4)
        sparse = []
        for m in cfg.embedding_sizes:
            lens = [int(rng.integers(1, 4, ())) for _ in range(batch)]
            sparse.append(SparseBatch(offsets_from_lengths(lens),
                                      rng.integers(0, m, int(sum(lens)))))
        labels = (rng.uniform(1, batch)[0] < 0.5).astype(np.float64)
        data.append((dense, sparse, labels))

    serial = init_model(cfg)
    opt = make_optimizer("sgd", 0.1)
    serial_losses = [train_step(serial, *b, opt).loss for b in data]

    def final_params(trainer):
        bottom, top = trainer.replica_params(0)
        arrays = []
        for mlp in (bottom, top):
            for layer in mlp.layers:
                arrays.append(layer.weight)
                arrays.append(layer.bias)
        arrays.extend(t.weights for t in trainer.tables)
        return arrays

    serial_params = []
    for mlp in (serial.bottom, serial.top):
        for layer in mlp.layers:
            serial_params.append(layer.weight)
            serial_params.append(layer.bias)
    serial_params.extend(t.weights for t in serial.tables)

    all_ok = True
    for ndev in (1, 2, 3, 4):
        model = init_model(cfg)
        trainer = ParallelTrainer(model, make_plan(cfg, batch, ndev),
                                  "sgd", 0.1)
        losses = [trainer.step(*b).loss for b in data]
        same = (losses == serial_losses
                and all(np.array_equal(a, b) for a, b in
                        zip(serial_params, final_params(trainer)))
                and trainer.max_replica_divergence() == 0.0)
        all_ok = all_ok and same
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    verdict(9, ok, f"devices 1-4 bit-identical to serial over {steps} "
                   f"steps, {elapsed:.1f}s")


def test_criterion_10_learnability_smoke():
    """Teacher-student: 2000 mini-batches with SGD and with Adagrad.

    The public-data accuracy curves are not reproducible at desk scale
    (45M samples, unpublished hyperparameters); this property-based check
    substitutes: final loss < 0.8 x initial loss for both optimizers.
    """
    t0 = time.perf_counter()
    cfg = DlrmConfig(embedding_sizes=[60, 40], sparse_dim=8,
                     bottom_mlp_dims=[8, 16, 8], top_mlp_dims=[16, 8, 1],
                     seed=1000)
    teacher_cfg = DlrmConfig(embedding_sizes=[60, 40], sparse_dim=8,
                             bottom_mlp_dims=[8, 16, 8],
                             top_mlp_dims=[16, 8, 1], seed=1001)
    teacher = init_model(teacher_cfg)
    for mlp in (teacher.bottom, teacher.top):
        for layer in mlp.layers:
            layer.weight *= 3.0  # confident labels, Bayes loss well below ln 2

    results = {}
    batch = 32
    for optname in ("sgd", "adagrad"):
        student = init_model(cfg)
        opt = make_optimizer(optname, 0.1)
        rng = RngStream(1002)
        first = last = None
        for _ in range(2000):
            dense = rng.uniform(batch, 8)
            sparse = []
            for m in cfg.embedding_sizes:
                sparse.append(SparseBatch(
                    offsets_from_lengths([2] * batch),
                    rng.integers(0, m, 2 * batch)))
            tprob, _ = dlrm_forward(teacher, dense, sparse)
            labels = (rng.uniform(1, batch)[0] < tprob).astype(np.float64)
            res = train_step(student, dense, sparse, labels, opt)
            if first is None:
                first = res.loss
            last = res.loss
        results[optname] = (first, last)
    elapsed = time.perf_counter() - t0
    ok = all(last < 0.8 * first for first, last in results.values())
    detail = ", ".join(f"{k}: {v[0]:.3f} -> {v[1]:.4f}"
                       for k, v in results.items())
    verdict(10, ok, f"{detail} ({elapsed:.0f}s)")


def test_criterion_11_cli_fidelity():
    """Verbatim benchmark command parses; a desk-scaled variant completes
    with >= 90% of wall time attributed to operators.

    The published 256 s CPU / 62 s GPU timings are hardware-specific and not
    reproduced; operator-category presence is asserted instead.
    """
    verbatim = (
        "--arch-embedding-size=1000000-1000000-1000000-1000000-1000000"
        "-1000000-1000000-1000000 --arch-sparse-feature-size=64 "
        "--arch-mlp-bot=512-512-64 --arch-mlp-top=1024-1024-1024-1 "
        "--data-generation=random --mini-batch-size=2048 --num-batches=1000 "
        "--num-indices-per-lookup=100"
    ).split()
    config, options = parse_args(verbatim)
    parsed_ok = (config.embedding_sizes == [1_000_000] * 8
                 and config.sparse_dim == 64
                 and options.mini_batch_size == 2048
                 and options.num_batches == 1000
                 and options.num_indices_per_lookup == 100)

    desk = (
        "--arch-embedding-size=10000-10000-10000-10000-10000-10000-10000"
        "-10000 --arch-sparse-feature-size=64 --arch-mlp-bot=512-512-64 "
        "--arch-mlp-top=1024-1024-1024-1 --data-generation=random "
        "--mini-batch-size=256 --num-batches=50 --num-indices-per-lookup=100 "
        "--mode=benchmark --enable-profiling --seed=11"
    ).split()
    dconfig, doptions = parse_args(desk)
    report, _ = run_benchmark(dconfig, doptions)
    attributed = report.attributed_fraction()
    names = set(report.operator_seconds)
    categories_ok = ("embedding_lookup" in names and "bottom_mlp" in names
                     and "top_mlp" in names)
    ok = (parsed_ok and len(report.records) == 50
          and attributed >= 0.9 and categories_ok)
    verdict(11, ok, f"verbatim command parsed; desk run attributed "
                    f"{attributed:.1%} across {sorted(names)}")
