"""SGD and Adagrad updates: dense application for MLP parameters, sparse
row-wise application for embedding tables.

Adagrad accumulates the squared gradient BEFORE computing the step and uses
theta -= lr * g / (sqrt(G) + eps). The sparse variants touch only the rows
present in the gradient; untouched rows (weights and accumulators) keep their
exact bits.
"""

from __future__ import annotations

import numpy as np

from .embedding import EmbeddingTable, SparseRowGrad
from .model import MlpGrads, MlpParams

__all__ = [
    "sgd_step",
    "sgd_step_rows",
    "adagrad_step",
    "adagrad_step_rows",
    "Sgd",
    "Adagrad",
    "make_optimizer",
]


def sgd_step(param: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """In-place theta -= lr * g."""
    if param.shape != grad.shape:
        raise ValueError(f"shape mismatch: {param.shape} vs {grad.shape}")
    param -= lr * grad


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
    if grad.rows.size == 0:
        return
    weights[grad.rows] -= lr * grad.values


def adagrad_step(param: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                 lr: float, eps: float) -> None:
    """In-place G += g^2; theta -= lr * g / (sqrt(G) + eps)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if param.shape != grad.shape or accum.shape != grad.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"accum {accum.shape}"
        )
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)


def adagrad_step_rows(weights: np.ndarray, grad: SparseRowGrad,
                      accum: np.ndarray, lr: float, eps: float) -> None:
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_row_grad(weights, grad)
    if grad.rows.size == 0:
        return
    rows = grad.rows
    accum[rows] += grad.values * grad.values
    weights[rows] -= lr * grad.values / (np.sqrt(accum[rows]) + eps)


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

    def __init__(self, lr: float = 0.1, eps: float = 1e-10):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        self.lr = lr
        self.eps = eps
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
            adagrad_step(layer.weight, dw, self._accum(layer.weight),
                         self.lr, self.eps)
            adagrad_step(layer.bias, db, self._accum(layer.bias),
                         self.lr, self.eps)

    def apply_table(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        adagrad_step_rows(table.weights, grad, self._accum(table.weights),
                          self.lr, self.eps)


def make_optimizer(name: str, lr: float, eps: float = 1e-10):
    if name == "sgd":
        return Sgd(lr)
    if name == "adagrad":
        return Adagrad(lr, eps)
    raise ValueError(f"unknown optimizer: {name!r}")
