"""SGD and Adagrad updates: dense application for MLP parameters, sparse
row-wise application for embedding tables.

Adagrad accumulates the squared gradient BEFORE computing the step and uses
theta -= lr * g / (sqrt(G) + eps). The sparse variants touch only the rows
present in the gradient; untouched rows (weights and accumulators) keep their
exact bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, SparseRowGrad
from .model import MlpGrads, MlpParams

__all__ = [
    "sgd_step",
    "sgd_step_rows",
    "adagrad_step",
    "adagrad_step_rows",
    "AdagradState",
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


@dataclass
class AdagradState:
    """Per-parameter sums of squared gradients, same shapes as the params."""

    mlp_weights: list[np.ndarray]
    mlp_biases: list[np.ndarray]

    @classmethod
    def for_mlp(cls, params: MlpParams) -> "AdagradState":
        return cls([np.zeros_like(l.weight) for l in params.layers],
                   [np.zeros_like(l.bias) for l in params.layers])


class Sgd:
    """Plain SGD over a full model (dense MLPs + sparse tables)."""

    name = "sgd"

    def __init__(self, lr: float = 0.1):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.lr = lr

    def apply_mlp(self, params: MlpParams, grads: MlpGrads, which: str) -> None:
        for layer, dw, db in zip(params.layers, grads.weights, grads.biases):
            sgd_step(layer.weight, dw, self.lr)
            sgd_step(layer.bias, db, self.lr)

    def apply_table(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        sgd_step_rows(table.weights, grad, self.lr)


class Adagrad:
    """Adagrad with full-shape accumulators, lazily keyed per parameter group."""

    name = "adagrad"

    def __init__(self, lr: float = 0.1, eps: float = 1e-10):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        self.lr = lr
        self.eps = eps
        self._mlp_state: dict[str, AdagradState] = {}
        self._table_state: dict[int, tuple[EmbeddingTable, np.ndarray]] = {}

    def apply_mlp(self, params: MlpParams, grads: MlpGrads, which: str) -> None:
        state = self._mlp_state.get(which)
        if state is None:
            state = self._mlp_state[which] = AdagradState.for_mlp(params)
        for layer, dw, db, aw, ab in zip(params.layers, grads.weights,
                                         grads.biases, state.mlp_weights,
                                         state.mlp_biases):
            adagrad_step(layer.weight, dw, aw, self.lr, self.eps)
            adagrad_step(layer.bias, db, ab, self.lr, self.eps)

    def apply_table(self, table: EmbeddingTable, grad: SparseRowGrad) -> None:
        """Sparse Adagrad; a second table under a used id raises ValueError."""
        entry = self._table_state.get(table.table_id)
        if entry is None:
            entry = self._table_state[table.table_id] = (
                table, np.zeros_like(table.weights))
        elif entry[0] is not table:
            raise ValueError(f"table id {table.table_id} is already in use "
                             "by another table")
        adagrad_step_rows(table.weights, grad, entry[1], self.lr, self.eps)


def make_optimizer(name: str, lr: float, eps: float = 1e-10):
    if name == "sgd":
        return Sgd(lr)
    if name == "adagrad":
        return Adagrad(lr, eps)
    raise ValueError(f"unknown optimizer: {name!r}")
