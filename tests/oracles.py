"""Reference implementations used as test oracles.

Most of these intentionally avoid the library's code paths: naive loops,
brute-force enumeration, and central finite differences.

The model references at the end (``dlrm_forward_ref``, ``dlrm_backward_ref``,
``bce_loss_ref``, ``reduce_mlp_grads_ref``) are different: they reuse the
library's kernels (``mlp_forward``, ``mlp_backward``, ``interact``, lookups,
the exact reductions) and compose them the way the library once did, in
plain serial form. They are kept as references that pin the training path to
that composition bit for bit, not as independent oracles; the independent
check of the gradients is central differences.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


def matmul_ref(a, b):
    """Naive triple loop, strict ascending-k scalar accumulation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc = acc + a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def grad_rel_err(analytic, fd, floor=1e-4, abs_tol=1e-9):
    """Scale-aware gradient comparison.

    Relative error against max(|analytic|, |fd|) when that scale exceeds
    `floor`; below it, central differences are dominated by roundoff, so an
    absolute comparison at `abs_tol` applies (reported as 0 when it passes).
    """
    analytic = float(analytic)
    fd = float(fd)
    scale = max(abs(analytic), abs(fd))
    if scale <= floor:
        return 0.0 if abs(analytic - fd) <= abs_tol else math.inf
    return abs(analytic - fd) / scale


def central_difference(f, x, h):
    """(f(x+h) - f(x-h)) / 2h for a scalar-in scalar-out callable."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_param_grad(loss_fn, param, idx, h=None):
    """Central difference of loss_fn() w.r.t. param[idx], restoring the value."""
    orig = param[idx]
    if h is None:
        h = 1e-6 * max(1.0, abs(float(orig)))
    param[idx] = orig + h
    up = loss_fn()
    param[idx] = orig - h
    down = loss_fn()
    param[idx] = orig
    return (up - down) / (2.0 * h)


def exact_batch_outer(gy, x):
    """sum_b outer(gy[b], x[b]) with exact (fsum) per-element accumulation."""
    gy = np.asarray(gy, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((gy.shape[1], x.shape[1]))
    for o in range(gy.shape[1]):
        for i in range(x.shape[1]):
            out[o, i] = math.fsum(gy[b, o] * x[b, i]
                                  for b in range(gy.shape[0]))
    return out


def brute_force_min_max_load(sizes, num_devices):
    """Optimal makespan over all table->device assignments (small inputs)."""
    best = math.inf
    for assignment in itertools.product(range(num_devices),
                                        repeat=len(sizes)):
        loads = [0] * num_devices
        for size, dev in zip(sizes, assignment):
            loads[dev] += size
        best = min(best, max(loads))
    return best


def total_variation(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def multihot_matrix(batch, num_rows):
    """Materialize a SparseBatch as its dense t x m multi-hot matrix."""
    t = batch.num_segments
    a = np.zeros((t, num_rows))
    for j in range(t):
        seg = batch.segment_slice(j)
        for pos in range(seg.start, seg.stop):
            w = 1.0 if batch.weights is None else batch.weights[pos]
            a[j, batch.indices[pos]] += w
    return a


def lookup_backward_ref(table, batch, grad_out):
    """Sparse lookup gradient by ``np.unique`` and an unbuffered
    ``np.add.at``, which visits flat positions in ascending order, so each
    row is a strict ascending fold from a zero row."""
    from dlrmkit.embedding import SparseRowGrad

    grad_out = np.asarray(grad_out, dtype=np.float64)
    if batch.indices.shape[0] == 0:
        return SparseRowGrad(np.empty(0, dtype=np.int64),
                             np.empty((0, table.dim)))
    seg_of = np.repeat(np.arange(batch.num_segments), batch.lengths())
    contrib = grad_out[seg_of]
    if batch.weights is not None:
        contrib = contrib * batch.weights[:, None]
    uniq, inverse = np.unique(batch.indices, return_inverse=True)
    values = np.zeros((uniq.shape[0], table.dim))
    np.add.at(values, inverse, contrib)
    return SparseRowGrad(uniq, values)


def profile_trace_ref(tr):
    """O(n*U) LRU-stack profile: (uniques, {distance: mass}).

    A list holds the recency stack (end = top); a repeat found at depth d
    (top = 1) is popped and re-pushed, and every id above it moves down.
    """
    stack = []
    uniques = []
    counts = {}
    positions = {}      # access id -> index in `stack`
    for a in tr:
        a = int(a)
        idx = positions.get(a)
        if idx is None:
            d = 0
            uniques.append(a)
        else:
            d = len(stack) - idx
            stack.pop(idx)
            for other in stack[idx:]:
                positions[other] -= 1
        counts[d] = counts.get(d, 0) + 1
        positions[a] = len(stack)
        stack.append(a)
    n = sum(counts.values())
    probabilities = {d: c / n for d, c in sorted(counts.items())} if n else {}
    return uniques, probabilities


class TraceGeneratorRef:
    """Per-event replay of a profile: one scalar uniform per emitted id.

    Each event restricts the distances to {0..seen} (distance 0 only while
    unseen uniques remain), renormalizes, draws one uniform from the
    stream's generator, and either pulls the next unseen unique from the
    front of the recency list or re-emits the id at depth d from its end.
    """

    def __init__(self, uniques, probabilities, stream):
        self.recency = list(uniques)
        self.n_unseen = len(uniques)
        self.seen = 0
        self.stream = stream
        self.p0 = probabilities.get(0, 0.0)
        dists = sorted(d for d in probabilities if d > 0)
        self._dists = np.array(dists, dtype=np.int64)
        self._cum = np.cumsum([probabilities[d] for d in dists])

    def next(self, count):
        return [self._emit() for _ in range(count)]

    def _emit(self):
        k = int(np.searchsorted(self._dists, self.seen, side="right"))
        w0 = self.p0 if self.n_unseen > 0 else 0.0
        reach = self._cum[k - 1] if k else 0.0
        total = w0 + reach
        if total <= 0.0:
            raise RuntimeError("empty sampling support")
        r = float(self.stream._gen.random()) * total
        if r < w0:
            a = self.recency.pop(0)
            self.n_unseen -= 1
            self.seen += 1
        else:
            j = int(np.searchsorted(self._cum[:k], r - w0, side="right"))
            d = int(self._dists[min(j, k - 1)])
            a = self.recency.pop(len(self.recency) - d)
        self.recency.append(a)
        return a


def reduce_mlp_grads_ref(traces_per_dev, n_total):
    """The MLP gradient reduction that holds every device's components.

    Per layer: max-allreduce of the local column abs-maxima, every device's
    ``layer_grad_components``, one ``parallel.allreduce`` per component over
    the per-device list (a lone device's used as is), and one
    ``dense.sum_components`` rounding. Returns (weight grads, bias grads,
    stat payload bytes, grad payload bytes).
    """
    from dlrmkit import dense
    from dlrmkit.model import layer_grad_components
    from dlrmkit.parallel import allreduce, allreduce_max

    def combine(collective, per_replica):
        return per_replica[0] if len(per_replica) == 1 else collective(
            per_replica)

    weights, biases = [], []
    stat_payload = grad_payload = 0
    for l in range(len(traces_per_dev[0])):
        x_max = combine(allreduce_max, [t[l][2] for t in traces_per_dev])
        g_max = combine(allreduce_max, [t[l][3] for t in traces_per_dev])
        comps = [layer_grad_components(*t[l][:2], x_max, g_max, n_total)
                 for t in traces_per_dev]
        w_comps = [combine(allreduce, [c[0][i] for c in comps])
                   for i in range(len(dense.CROSS_TERMS))]
        b_comps = [combine(allreduce, [c[1][i] for c in comps])
                   for i in range(dense.LEVELS)]
        weights.append(dense.sum_components(w_comps))
        biases.append(dense.sum_components(b_comps))
        stat_payload += x_max.nbytes + g_max.nbytes
        grad_payload += sum(c.nbytes for c in w_comps + b_comps)
    return weights, biases, stat_payload, grad_payload


@dataclass
class DlrmCache:
    """Everything ``dlrm_backward_ref`` reads from the forward pass."""

    dense_x: np.ndarray
    batches: list
    bottom_cache: object    # model.MlpCache
    emb_outputs: list
    interact_out: np.ndarray
    top_cache: object       # model.MlpCache
    prob: np.ndarray


@dataclass
class DlrmGradients:
    bottom: object          # model.MlpGrads
    top: object             # model.MlpGrads
    tables: list            # embedding.SparseRowGrad per table


def dlrm_forward_ref(model, dense_x, batches):
    """prob = sigmoid(top_mlp(interact(bottom_mlp(x), lookups))), with the
    cache of every intermediate; returns (prob, DlrmCache)."""
    from dlrmkit.dense import activation
    from dlrmkit.embedding import lookup_batch
    from dlrmkit.model import interact, mlp_forward

    dense_x = np.asarray(dense_x, dtype=np.float64)
    dense_repr, bottom_cache = mlp_forward(model.bottom, dense_x)
    emb_outputs = [lookup_batch(tb, sb)
                   for tb, sb in zip(model.tables, batches)]
    inter = interact(dense_repr, emb_outputs)
    logits, top_cache = mlp_forward(model.top, inter)
    prob = activation(logits, "sigmoid")[:, 0]
    return prob, DlrmCache(dense_x, batches, bottom_cache, emb_outputs,
                           inter, top_cache, prob)


def dlrm_backward_ref(model, cache, grad_logits, n_total=None):
    """Gradients of every parameter from d(loss)/d(logits), one serial
    ``mlp_backward`` per MLP."""
    from dlrmkit.embedding import lookup_backward
    from dlrmkit.model import interact_backward, mlp_backward

    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    top_grads, grad_inter = mlp_backward(
        model.top, cache.top_cache, grad_logits[:, None], n_total)
    grad_dense_repr, grad_embs = interact_backward(
        cache.bottom_cache.post[-1], cache.emb_outputs, grad_inter)
    bottom_grads, _ = mlp_backward(
        model.bottom, cache.bottom_cache, grad_dense_repr, n_total)
    table_grads = [lookup_backward(tb, sb, g)
                   for tb, sb, g in zip(model.tables, cache.batches,
                                        grad_embs)]
    return DlrmGradients(bottom_grads, top_grads, table_grads)


def bce_loss_ref(prob, labels):
    """Mean binary cross-entropy from probabilities strictly inside (0, 1),
    and its gradient w.r.t. the pre-sigmoid logits, (p - y) / batch."""
    p = np.asarray(prob, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty batch")
    if p.shape != y.shape:
        raise ValueError(f"prob shape {p.shape} != labels shape {y.shape}")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probabilities must lie strictly in (0, 1)")
    per = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(per.mean()), (p - y) / p.shape[0]


class RecordingOptimizer:
    """Keeps the gradients an optimizer is handed; applies none of them.

    Passed to ``train_step``, it captures the training path's gradients
    without changing the model.
    """

    def __init__(self):
        self.mlp, self.tables = {}, []

    def apply_mlp(self, params, grads, which):
        self.mlp[which] = grads

    def apply_table(self, table, grad):
        self.tables.append(grad)
