"""Independent reference implementations used as test oracles.

These intentionally avoid the library's code paths: naive loops, brute-force
enumeration, and central finite differences.
"""

import itertools
import math

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
