"""SGD and Adagrad updates: dense application for MLP parameters, sparse
row-wise application for embedding tables.

Adagrad accumulates the squared gradient BEFORE computing the step and uses
theta -= lr * g / (sqrt(G) + EPS). The sparse variants touch only the rows
present in the gradient; untouched rows (weights and accumulators) keep their
exact bits.

Every update runs over blocks of about ``BLOCK_ELEMENTS`` elements (whole
rows of the leading axis), so its temporaries are block-sized rather than
parameter-sized. Each element still gets the one-line expression in the
docstrings, and no element reads another, so the bits do not depend on the
block size. The sparse updates rely on a gradient's row ids being unique, as
a ``SparseRowGrad``'s are.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import EmbeddingTable, SparseRowGrad
from .model import MlpGrads, MlpParams

__all__ = [
    "BLOCK_ELEMENTS",
    "EPS",
    "sgd_step",
    "sgd_step_rows",
    "adagrad_step",
    "adagrad_step_rows",
    "Sgd",
    "Adagrad",
    "make_optimizer",
]


# Elements per update block: 64 Ki float64 values, 512 KB per temporary.
BLOCK_ELEMENTS = 1 << 16

# Adagrad's denominator offset: keeps a step finite while G is still 0.
EPS = 1e-10


def _blocks(shape: tuple[int, ...]):
    """Index blocks of whole leading-axis rows, about BLOCK_ELEMENTS
    elements each; one ``...`` for a 0-d array."""
    if not shape:
        yield ...
        return
    step = max(1, BLOCK_ELEMENTS // max(1, math.prod(shape[1:])))
    for lo in range(0, shape[0], step):
        yield slice(lo, lo + step)


def sgd_step(param: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """In-place theta -= lr * g."""
    if param.shape != grad.shape:
        raise ValueError(f"shape mismatch: {param.shape} vs {grad.shape}")
    for b in _blocks(param.shape):
        param[b] -= lr * grad[b]


def _check_row_grad(weights: np.ndarray, grad: SparseRowGrad) -> None:
    """A sparse gradient must hold one table-width row per row id."""
    want = (grad.rows.shape[0], weights.shape[1])
    if grad.values.shape != want:
        raise ValueError(
            f"sparse grad values shape {grad.values.shape} does not match "
            f"(len(rows), table dim) = {want}"
        )


def sgd_step_rows(weights: np.ndarray, grad: SparseRowGrad, lr: float) -> None:
    _check_row_grad(weights, grad)
    for b in _blocks(grad.values.shape):
        weights[grad.rows[b]] -= lr * grad.values[b]


def adagrad_step(param: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                 lr: float) -> None:
    """In-place G += g^2; theta -= lr * g / (sqrt(G) + EPS)."""
    if param.shape != grad.shape or accum.shape != grad.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"accum {accum.shape}"
        )
    for b in _blocks(param.shape):
        g, a = grad[b], accum[b]
        a += g * g
        param[b] -= lr * g / (np.sqrt(a) + EPS)


def adagrad_step_rows(weights: np.ndarray, grad: SparseRowGrad,
                      accum: np.ndarray, lr: float) -> None:
    _check_row_grad(weights, grad)
    for b in _blocks(grad.values.shape):
        rows, g = grad.rows[b], grad.values[b]
        accum[rows] += g * g
        weights[rows] -= lr * g / (np.sqrt(accum[rows]) + EPS)


class Sgd:
    """Plain SGD over a full model (dense MLPs + sparse tables)."""

    name = "sgd"

    def __init__(self, lr: float = 0.1):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.lr = lr

    def apply_mlp(self, params: MlpParams, grads: MlpGrads) -> None:
        for layer, dw, db in zip(params.layers, grads.weights, grads.biases):
            sgd_step(layer.weight, dw, self.lr)
            sgd_step(layer.bias, db, self.lr)

    def apply_table(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        sgd_step_rows(table.weights, grad, self.lr)


class Adagrad:
    """Adagrad with one full-shape accumulator per parameter array, keyed by
    the array itself: two tables or layers never share one."""

    name = "adagrad"

    def __init__(self, lr: float = 0.1):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.lr = lr
        # id(param) -> (param, accumulator); holding param keeps its id
        # from being reused by another array
        self._state: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _accum(self, param: np.ndarray) -> np.ndarray:
        entry = self._state.get(id(param))
        if entry is None:
            entry = self._state[id(param)] = (param, np.zeros_like(param))
        return entry[1]

    def apply_mlp(self, params: MlpParams, grads: MlpGrads) -> None:
        for layer, dw, db in zip(params.layers, grads.weights, grads.biases):
            adagrad_step(layer.weight, dw, self._accum(layer.weight), self.lr)
            adagrad_step(layer.bias, db, self._accum(layer.bias), self.lr)

    def apply_table(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        adagrad_step_rows(table.weights, grad, self._accum(table.weights),
                          self.lr)


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return Sgd(lr)
    if name == "adagrad":
        return Adagrad(lr)
    raise ValueError(f"unknown optimizer: {name!r}")
