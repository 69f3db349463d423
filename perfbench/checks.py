"""Correctness checks made apart from the program.

Each ``check_*`` function returns a list of failure messages (empty when the
check passes). The reference computations here use plain numpy float64 and
the definitions of the model, not the program's kernels.
"""

from __future__ import annotations

import math

import numpy as np

FLOAT64_BYTES = 8


# ---------------------------------------------------------------------------
# independent forward pass

def pooled_sums(table: np.ndarray, offsets, indices, weights=None) -> np.ndarray:
    """Row j = sum of table[indices[offsets[j]:offsets[j+1]]] (times weights)."""
    offsets = np.asarray(offsets)
    rows = table[np.asarray(indices)]
    if weights is not None:
        rows = rows * np.asarray(weights)[:, None]
    out = np.zeros((offsets.shape[0] - 1, table.shape[1]))
    nonempty = np.diff(offsets) > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(rows, offsets[:-1][nonempty], axis=0)
    return out


def reference_loss(bottom, top, tables, dense_x, sparse, labels) -> float:
    """Mean binary cross-entropy of the DLRM forward pass.

    ``bottom`` and ``top`` are lists of (weight, bias) with weight shaped
    (out, in); every layer is ReLU except the last top layer, whose output is
    the logit. ``tables`` are the embedding matrices and ``sparse`` one
    (offsets, indices, weights) triple per table. The interaction
    concatenates the dense vector with the dot products of every pair of
    distinct features, pairs in row-major (i < j) order.
    """
    x = np.asarray(dense_x, dtype=np.float64)
    for w, b in bottom:
        x = np.maximum(x @ w.T + b, 0.0)
    pooled = [pooled_sums(t, *s) for t, s in zip(tables, sparse)]
    feats = np.stack([x] + pooled, axis=1)          # (batch, features, d)
    gram = feats @ feats.transpose(0, 2, 1)
    i, j = np.triu_indices(feats.shape[1], k=1)
    z = np.concatenate([x, gram[:, i, j]], axis=1)
    for k, (w, b) in enumerate(top):
        z = z @ w.T + b
        if k < len(top) - 1:
            z = np.maximum(z, 0.0)
    logit = z[:, 0]
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, logit) - y * logit))


def check_reference_loss(loss: float, reference: float,
                         rel_tol: float = 1e-9) -> list[str]:
    if abs(loss - reference) <= rel_tol * abs(reference):
        return []
    return [f"step-0 loss {loss!r} differs from the independent forward "
            f"{reference!r} by more than {rel_tol:g} relative"]


# ---------------------------------------------------------------------------
# losses

def check_losses(rounds_losses: list[list[float]]) -> list[str]:
    """Every loss finite, and every round (same seed, same flags) repeats the
    first round's per-step losses bit for bit."""
    failures = []
    for r, losses in enumerate(rounds_losses):
        bad = [s for s, v in enumerate(losses) if not math.isfinite(v)]
        if bad:
            failures.append(f"round {r}: non-finite loss at steps {bad}")
    first = rounds_losses[0] if rounds_losses else []
    for r, losses in enumerate(rounds_losses[1:], start=1):
        if [v.hex() for v in losses] != [v.hex() for v in first]:
            failures.append(f"round {r}: per-step losses differ from round 0")
    return failures


def check_identical_losses(losses: list[float], reference: list[float],
                           what: str) -> list[str]:
    if [v.hex() for v in losses] == [v.hex() for v in reference]:
        return []
    diff = [s for s, (a, b) in enumerate(zip(losses, reference)) if a != b]
    return [f"per-step losses differ from {what} (steps {diff}, "
            f"lengths {len(losses)} and {len(reference)})"]


# ---------------------------------------------------------------------------
# collective volumes

def collective_bytes(table_owner: list[int], shard_sizes: list[int],
                     sparse_dim: int, mlp_dims: list[list[int]],
                     weight_components: int, bias_components: int
                     ) -> dict[str, int]:
    """Bytes each collective moves in one step of the simulated trainer.

    * shuffles: every table's pooled rows (and their gradients) for each
      shard not on the table's owner cross a device boundary;
    * allreduce (reduce plus broadcast) moves 2 * (P - 1) payloads; the
      column-stat payload per layer is the input and output abs-max vectors,
      the gradient payload is every weight and bias component;
    * loss gather: per-sample loss and probability of every shard but the
      first.

    ``mlp_dims`` lists each MLP's full dimension chain (input width first).
    """
    P = len(shard_sizes)
    shuffle = sum(size * sparse_dim * FLOAT64_BYTES
                  for owner in table_owner
                  for dev, size in enumerate(shard_sizes) if dev != owner)
    stat = grad = 0
    for dims in mlp_dims:
        for n_in, n_out in zip(dims, dims[1:]):
            stat += 2 * (P - 1) * (n_in + n_out) * FLOAT64_BYTES
            grad += 2 * (P - 1) * (weight_components * n_in * n_out
                                   + bias_components * n_out) * FLOAT64_BYTES
    return {
        "butterfly_shuffle": shuffle,
        "grad_reverse_shuffle": shuffle,
        "stat_allreduce": stat,
        "grad_allreduce": grad,
        "loss_gather": sum(2 * size * FLOAT64_BYTES
                           for size in shard_sizes[1:]),
    }


def parse_comm_report(text: str) -> dict[int, dict[str, int]]:
    """The program's 'step, collective, bytes, participants' table, summed
    per step and collective."""
    per_step: dict[int, dict[str, int]] = {}
    for line in text.strip().splitlines()[1:]:
        step, name, nbytes, _ = (tok.strip() for tok in line.split(","))
        totals = per_step.setdefault(int(step), {})
        totals[name] = totals.get(name, 0) + int(nbytes)
    return per_step


def check_comm(per_step: dict[int, dict[str, int]], expected: dict[str, int],
               steps: int) -> list[str]:
    failures = []
    if sorted(per_step) != list(range(steps)):
        failures.append(f"comm report covers steps {sorted(per_step)}, "
                        f"expected 0..{steps - 1}")
    for step, totals in sorted(per_step.items()):
        if totals != expected:
            failures.append(f"step {step}: collective bytes {totals} != "
                            f"volume from plan and shapes {expected}")
    return failures


# ---------------------------------------------------------------------------
# synthetic data

def check_bootstrap_profile(trace, uniques, probabilities) -> list[str]:
    """A stack-distance profile of ``trace``: first-touch count equals the
    distinct ids, uniques are those ids in first-touch order, masses sum
    to 1."""
    failures = []
    trace = [int(a) for a in trace]
    distinct = list(dict.fromkeys(trace))
    first_touches = probabilities.get(0, 0.0) * len(trace)
    if round(first_touches) != len(distinct):
        failures.append(f"first-touch count {first_touches} != "
                        f"{len(distinct)} distinct ids")
    if list(uniques) != distinct:
        failures.append("uniques are not the trace's ids in first-touch order")
    total = math.fsum(probabilities.values())
    if abs(total - 1.0) > 1e-12:
        failures.append(f"distance masses sum to {total!r}, not 1")
    return failures


def check_index_range(indices, num_rows: int, where: str) -> list[str]:
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
        return [f"{where}: indices span [{indices.min()}, {indices.max()}], "
                f"outside [0, {num_rows})"]
    return []
