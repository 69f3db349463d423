"""The recommendation model: bottom MLP over dense features, pooled embedding
lookups, pairwise dot-product feature interaction, top MLP, sigmoid output,
binary cross-entropy loss; plus a factorization-machine reference predictor
and an analytic parameter counter.

Weight-gradient reductions over the mini-batch go through the grid-component
scheme in :mod:`dlrmkit.dense`, which is what lets the data-parallel simulator
reproduce serial training bit-for-bit. Forward passes and per-sample backward
sweeps only ever mix values within one sample row. The forward pass is
written once, in ``forward_logits``: the training step core and
``dlrm_forward`` (evaluation) both run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense
from .dense import Matrix, RngStream, matmul, activation, activation_grad
from .embedding import EmbeddingTable, SparseBatch, lookup_batch
from .timing import NullTimer

__all__ = [
    "MlpLayer",
    "MlpParams",
    "MlpCache",
    "MlpGrads",
    "FmParams",
    "DlrmConfig",
    "DlrmModel",
    "init_mlp",
    "mlp_forward",
    "mlp_backward",
    "mlp_backward_trace",
    "layer_grad_components",
    "interact",
    "interact_backward",
    "interaction_width",
    "init_model",
    "forward_logits",
    "check_sparse_batches",
    "dlrm_forward",
    "bce_from_logits",
    "fm_predict",
    "fm_predict_naive",
    "param_count",
    "embedding_param_count",
    "mlp_param_count",
]


# ---------------------------------------------------------------------------
# multilayer perceptron

@dataclass
class MlpLayer:
    weight: Matrix          # (n_out, n_in)
    bias: np.ndarray        # (n_out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"layer shapes inconsistent: W {self.weight.shape}, "
                f"b {self.bias.shape}"
            )


@dataclass
class MlpParams:
    layers: list[MlpLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError(
                    f"layer dim chain broken: {prev.weight.shape} -> "
                    f"{nxt.weight.shape}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def copy(self) -> "MlpParams":
        return MlpParams([
            MlpLayer(l.weight.copy(), l.bias.copy(), l.activation)
            for l in self.layers
        ])


@dataclass
class MlpCache:
    x0: Matrix
    pre: list[Matrix]   # pre-activations z_l
    post: list[Matrix]  # activations a_l

    def layer_input(self, l: int) -> Matrix:
        return self.x0 if l == 0 else self.post[l - 1]


@dataclass
class MlpGrads:
    weights: list[Matrix]
    biases: list[np.ndarray]


def init_mlp(dims: list[int], activations: list[str], stream: RngStream) -> MlpParams:
    """Weights ~ normal(0, sqrt(2/(n_in+n_out))), biases zero."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for l, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        std = np.sqrt(2.0 / (n_in + n_out))
        w = stream.derive(l).normal(n_out, n_in) * std
        layers.append(MlpLayer(w, np.zeros(n_out), activations[l]))
    return MlpParams(layers)


def mlp_forward(params: MlpParams, x: Matrix) -> tuple[Matrix, MlpCache]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(
            f"input shape {x.shape} does not feed first layer of width "
            f"{params.in_dim}"
        )
    pre, post = [], []
    a = x
    for layer in params.layers:
        z = matmul(a, layer.weight.T) + layer.bias
        a = activation(z, layer.activation)
        pre.append(z)
        post.append(a)
    return a, MlpCache(x, pre, post)


def mlp_backward_trace(params: MlpParams, cache: MlpCache, grad_y: Matrix
                       ) -> tuple[list[tuple[Matrix, Matrix, np.ndarray,
                                             np.ndarray]], Matrix]:
    """Per-sample backward sweep.

    Returns per-layer (layer_input, grad_pre_activation, column abs-max of
    layer_input, column abs-max of grad_pre_activation) entries plus the
    gradient w.r.t. the MLP input. The abs-maxima are over this call's rows
    (zero for none); a max over them gives the shared reduction grids. No
    cross-sample mixing happens here; the weight/bias reductions are done
    separately so they can be made partition-invariant.
    """
    grad_a = np.asarray(grad_y, dtype=np.float64)
    if grad_a.shape != cache.post[-1].shape:
        raise ValueError(
            f"grad_y shape {grad_a.shape} does not match forward output "
            f"{cache.post[-1].shape}"
        )
    traces: list[tuple] = [None] * len(params.layers)
    for l in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[l]
        x = cache.layer_input(l)
        gz = grad_a * activation_grad(cache.pre[l], layer.activation)
        traces[l] = (x, gz, np.abs(x).max(axis=0, initial=0.0),
                     np.abs(gz).max(axis=0, initial=0.0))
        grad_a = matmul(gz, layer.weight)
    return traces, grad_a


def layer_grad_components(x_l: Matrix, gz_l: Matrix, x_max, gz_max,
                          n_total: int, out=None):
    """Exact reduction components for one layer's (grad_W, grad_b).

    With ``out``, an earlier shard's ``(w_comps, b_comps)``, this shard's
    components are added into it in place and it is returned (the ``out=``
    contract of ``dense.outer_sum_components``).
    """
    w_out, b_out = (None, None) if out is None else out
    w_comps = dense.outer_sum_components(gz_l, x_l, gz_max, x_max, n_total,
                                         out=w_out)
    b_comps = dense.col_sum_components(gz_l, gz_max, n_total, out=b_out)
    return w_comps, b_comps


def mlp_backward(params: MlpParams, cache: MlpCache, grad_y: Matrix,
                 n_total: int | None = None) -> tuple[MlpGrads, Matrix]:
    """Exact reverse-mode gradients for every layer, plus grad wrt input.

    ``n_total`` is the full-batch row count the reduction grids are sized
    for; it defaults to the rows in the cache. Training does not call this:
    the step core reduces ``mlp_backward_trace`` entries across devices
    itself. It is the per-layer reference that the tests (and the reference
    model backward in ``tests/oracles.py``) compare against.
    """
    traces, grad_x = mlp_backward_trace(params, cache, grad_y)
    if n_total is None:
        n_total = cache.x0.shape[0]
    dws, dbs = [], []
    for trace in traces:
        w_comps, b_comps = layer_grad_components(*trace, n_total)
        dws.append(dense.sum_components(w_comps))
        dbs.append(dense.sum_components(b_comps))
    return MlpGrads(dws, dbs), grad_x


# ---------------------------------------------------------------------------
# pairwise dot-product interaction

def interaction_width(sparse_dim: int, num_features: int) -> int:
    return sparse_dim + num_features * (num_features - 1) // 2


def interact(dense_repr: Matrix, emb_outputs: list[Matrix]) -> Matrix:
    """Concat(dense vector, dot(z_i, z_j) for all 0 <= i < j < n_f).

    Feature 0 is the processed dense vector; features 1..n_f-1 are the
    embedding outputs. Pair order is row-major over (i, j) with i < j; no
    self-interactions.
    """
    feats = [np.asarray(dense_repr, dtype=np.float64)] + [
        np.asarray(z, dtype=np.float64) for z in emb_outputs
    ]
    b, d = feats[0].shape
    for k, z in enumerate(feats):
        if z.shape != (b, d):
            raise ValueError(
                f"interaction input {k} has shape {z.shape}, expected {(b, d)}"
            )
    nf = len(feats)
    out = np.empty((b, interaction_width(d, nf)))
    out[:, :d] = feats[0]
    col = d
    for i in range(nf):
        for j in range(i + 1, nf):
            out[:, col] = (feats[i] * feats[j]).sum(axis=1)
            col += 1
    return out


def interact_backward(dense_repr: Matrix, emb_outputs: list[Matrix],
                      grad_out: Matrix) -> tuple[Matrix, list[Matrix]]:
    """Adjoint of interact: grad z_i += sum_j g_ij * z_j, plus the dense slice."""
    feats = [np.asarray(dense_repr, dtype=np.float64)] + [
        np.asarray(z, dtype=np.float64) for z in emb_outputs
    ]
    b, d = feats[0].shape
    nf = len(feats)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (b, interaction_width(d, nf)):
        raise ValueError(
            f"grad_out shape {grad_out.shape}, expected "
            f"{(b, interaction_width(d, nf))}"
        )
    grads = [np.zeros((b, d)) for _ in range(nf)]
    grads[0] += grad_out[:, :d]
    col = d
    for i in range(nf):
        for j in range(i + 1, nf):
            g = grad_out[:, col][:, None]
            grads[i] += g * feats[j]
            grads[j] += g * feats[i]
            col += 1
    return grads[0], grads[1:]


# ---------------------------------------------------------------------------
# model configuration and assembly

@dataclass
class DlrmConfig:
    """Architecture plus seed. bottom_mlp_dims includes the dense input width
    and must end at sparse_dim; top_mlp_dims excludes its (derived) input
    width and must end at 1."""

    embedding_sizes: list[int]
    sparse_dim: int
    bottom_mlp_dims: list[int]
    top_mlp_dims: list[int]
    interaction: str = "dot"
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.interaction != "dot":
            raise ValueError(f"unsupported interaction: {self.interaction!r}")
        if self.sparse_dim < 1:
            raise ValueError("sparse_dim must be positive")
        if any(m < 1 for m in self.embedding_sizes):
            raise ValueError("embedding sizes must be positive")
        if len(self.bottom_mlp_dims) < 2:
            raise ValueError("bottom MLP needs an input and at least one layer")
        if self.bottom_mlp_dims[-1] != self.sparse_dim:
            raise ValueError(
                f"bottom MLP output {self.bottom_mlp_dims[-1]} must equal "
                f"sparse feature size {self.sparse_dim}"
            )
        if not self.top_mlp_dims or self.top_mlp_dims[-1] != 1:
            raise ValueError("top MLP must end in a single output unit")

    @property
    def num_tables(self) -> int:
        return len(self.embedding_sizes)

    @property
    def num_features(self) -> int:
        return self.num_tables + 1

    @property
    def dense_dim(self) -> int:
        return self.bottom_mlp_dims[0]

    @property
    def top_in_dim(self) -> int:
        return interaction_width(self.sparse_dim, self.num_features)

    def top_dims_chain(self) -> list[int]:
        return [self.top_in_dim] + list(self.top_mlp_dims)


@dataclass
class DlrmModel:
    config: DlrmConfig
    bottom: MlpParams
    top: MlpParams
    tables: list[EmbeddingTable]


def init_model(config: DlrmConfig) -> DlrmModel:
    root = RngStream(config.seed)
    bottom = init_mlp(list(config.bottom_mlp_dims),
                      ["relu"] * (len(config.bottom_mlp_dims) - 1),
                      root.derive(0))
    top_chain = config.top_dims_chain()
    top_acts = ["relu"] * (len(top_chain) - 2) + ["identity"]
    top = init_mlp(top_chain, top_acts, root.derive(1))
    tables = [
        EmbeddingTable.initialize(m, config.sparse_dim, root.derive(2, t), t)
        for t, m in enumerate(config.embedding_sizes)
    ]
    return DlrmModel(config, bottom, top, tables)


def forward_logits(bottom: MlpParams, top: MlpParams, dense_x: Matrix,
                   emb_outputs: list[Matrix], timer=None
                   ) -> tuple[np.ndarray, MlpCache, MlpCache]:
    """The model's forward pass from pooled embeddings to logits:
    top_mlp(interact(bottom_mlp(x), emb_outputs)).

    Returns the logits (one per sample) and the bottom and top MLP caches
    the backward sweeps read; the processed dense vector is the bottom
    cache's last activation. Timed under ``bottom_mlp``, ``interaction`` and
    ``top_mlp`` when a timer is given. Every step runs through this, serial
    or per device, and so does ``dlrm_forward``.
    """
    timer = timer or NullTimer()
    with timer.section("bottom_mlp"):
        dense_repr, bottom_cache = mlp_forward(bottom, dense_x)
    with timer.section("interaction"):
        inter = interact(dense_repr, emb_outputs)
    with timer.section("top_mlp"):
        logits, top_cache = mlp_forward(top, inter)
    return logits[:, 0], bottom_cache, top_cache


def check_sparse_batches(batches: list[SparseBatch], num_tables: int,
                         batch_size: int) -> None:
    """Exactly one sparse batch per table, each with ``batch_size``
    segments; otherwise a ``ValueError`` names the count or the table."""
    if len(batches) != num_tables:
        raise ValueError(
            f"got {len(batches)} sparse batches for {num_tables} tables"
        )
    for t, sb in enumerate(batches):
        if sb.num_segments != batch_size:
            raise ValueError(
                f"sparse batch {t} has {sb.num_segments} segments, "
                f"batch is {batch_size}"
            )


def dlrm_forward(model: DlrmModel, dense_x: Matrix,
                 batches: list[SparseBatch]) -> tuple[np.ndarray, np.ndarray]:
    """prob = sigmoid(top_mlp(interact(bottom_mlp(x), lookups))).

    The table lookups followed by ``forward_logits``; returns the
    probabilities and the logits, one per sample. Evaluation uses it, and
    it is the public way to score a batch.
    """
    dense_x = np.asarray(dense_x, dtype=np.float64)
    check_sparse_batches(batches, model.config.num_tables, dense_x.shape[0])
    emb_outputs = [lookup_batch(tb, sb)
                   for tb, sb in zip(model.tables, batches)]
    logits, _, _ = forward_logits(model.bottom, model.top, dense_x,
                                  emb_outputs)
    return activation(logits, "sigmoid"), logits


# ---------------------------------------------------------------------------
# loss

def bce_from_logits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample binary cross-entropy of sigmoid(logits) against labels.

    Evaluated from the logits, max(z, 0) - z*y + log1p(exp(-|z|)), so it is
    finite even where sigmoid saturates to exactly 0 or 1 in float64. An
    empty batch gives an empty array. Callers take the mean; its gradient
    w.r.t. the logits is (sigmoid(z) - y) / batch.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


# ---------------------------------------------------------------------------
# factorization machine reference predictor

@dataclass
class FmParams:
    """bias b, linear weights w (n,), factor matrix V (n x d)."""

    b: float
    w: np.ndarray
    V: Matrix

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.V.ndim != 2 or self.w.shape != (self.V.shape[0],):
            raise ValueError(
                f"w shape {self.w.shape} does not match V shape {self.V.shape}"
            )


def fm_predict_naive(p: FmParams, x: np.ndarray) -> float:
    """b + w.x + x' upper(V V') x with the interaction matrix materialized."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != p.w.shape:
        raise ValueError(f"x shape {x.shape} != w shape {p.w.shape}")
    upper = np.triu(p.V @ p.V.T, k=1)
    return float(p.b + p.w @ x + x @ upper @ x)


def fm_predict(p: FmParams, x: np.ndarray) -> float:
    """Same value in O(n d): 0.5 * (|V'x|^2 - sum_i x_i^2 |v_i|^2)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != p.w.shape:
        raise ValueError(f"x shape {x.shape} != w shape {p.w.shape}")
    vx = p.V.T @ x
    pair = 0.5 * (vx @ vx - (x * x) @ (p.V * p.V).sum(axis=1))
    return float(p.b + p.w @ x + pair)


# ---------------------------------------------------------------------------
# bookkeeping

def embedding_param_count(embedding_sizes: list[int], sparse_dim: int) -> int:
    return sum(m * sparse_dim for m in embedding_sizes)


def mlp_param_count(dims: list[int]) -> int:
    """Weights plus biases along a dim chain [n_0, n_1, ..., n_k]."""
    return sum(n_out * n_in + n_out for n_in, n_out in zip(dims, dims[1:]))


def param_count(config: DlrmConfig) -> int:
    """Total trainable parameters, computed from dimensions alone."""
    return (embedding_param_count(config.embedding_sizes, config.sparse_dim)
            + mlp_param_count(list(config.bottom_mlp_dims))
            + mlp_param_count(config.top_dims_chain()))
