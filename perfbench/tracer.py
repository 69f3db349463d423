"""Layer spans recorded from outside the program.

``Tracer.installed()`` wraps the public functions of dlrmkit's layer modules
(dense, model, embedding, optim, parallel, datagen) in every module namespace
that holds a reference to them, which is where their callers look them up:
``parallel.mlp_forward`` and ``model.matmul`` are patched, not only
``model.mlp_forward`` and ``dense.matmul``. Methods are patched on their
class. Every patch is undone when the context exits.

Each wrapped call is a span. A span's self time is its duration minus the
time of the wrapped calls made inside it; a layer's time is the sum of the
self times of its functions. Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager

from dlrmkit import cli, datagen, dense, embedding, model, optim, parallel

# Modules whose namespaces are searched for references to a wrapped function.
CALLER_MODULES = (dense, embedding, model, optim, parallel, datagen, cli)

STEP = "step"
BATCH = "datagen.batch"


def _matmul_flops(args, result):
    a, b = args[0], args[1]
    return "flops", 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _lookups(args, result):
    return "embedding.lookups", args[1].indices.size


def _unique_rows(args, result):
    return "embedding.unique_rows", result.rows.size


def _rows_updated(args, result):
    return "optim.rows_updated", args[2].rows.size


def _bootstrap_accesses(args, result):
    return "datagen.bootstrap_accesses", len(args[0])


# (module, function, layer, counter): module-level functions.
FUNCTIONS = (
    (dense, "matmul", "dense.matmul", _matmul_flops),
    (dense, "grid_components", "dense.exact_reduce", None),
    (dense, "outer_sum_components", "dense.exact_reduce", None),
    (dense, "col_sum_components", "dense.exact_reduce", None),
    (dense, "sum_components", "dense.exact_reduce", None),
    (model, "mlp_forward", "model.mlp", None),
    (model, "mlp_backward", "model.mlp", None),
    (model, "mlp_backward_trace", "model.mlp", None),
    (model, "layer_grad_components", "model.mlp", None),
    (model, "interact", "model.interact", None),
    (model, "interact_backward", "model.interact", None),
    (model, "bce_from_logits", "model.loss", None),
    (model, "init_model", "setup.init_model", None),
    (embedding, "lookup_batch", "embedding.lookup", _lookups),
    (embedding, "lookup_backward", "embedding.backward", _unique_rows),
    (optim, "sgd_step", "optim.dense", None),
    (optim, "adagrad_step", "optim.dense", None),
    (optim, "sgd_step_rows", "optim.sparse", None),
    (optim, "adagrad_step_rows", "optim.sparse", None),
    (parallel, "butterfly_shuffle", "parallel.shuffle", None),
    (parallel, "inverse_shuffle", "parallel.shuffle", None),
    (parallel, "allreduce", "parallel.allreduce", None),
    (parallel, "allreduce_max", "parallel.allreduce", None),
    (parallel, "train_step", STEP, None),
    (datagen, "gen_dense_batch", "datagen.random", None),
    (datagen, "gen_sparse_batch", "datagen.random", None),
    (datagen, "profile_trace", "datagen.profile", _bootstrap_accesses),
    (datagen, "adjust_distribution", "datagen.profile", None),
)

# (class, method, layer, counter)
METHODS = (
    (optim.Sgd, "apply_mlp", "optim.dense", None),
    (optim.Sgd, "apply_table", "optim.sparse", _rows_updated),
    (optim.Adagrad, "apply_mlp", "optim.dense", None),
    (optim.Adagrad, "apply_table", "optim.sparse", _rows_updated),
    (parallel.ParallelTrainer, "step", STEP, None),
    (datagen.TraceGenerator, "next", "datagen.generate", None),
)


class Tracer:
    """Aggregates span times per layer while its wrappers are installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        # time of the outermost spans of each layer (nested ones not re-added)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # depth-0 spans as (start, end, covered seconds); for a step span the
        # covered part is the time of the spans directly inside it
        self.top: list[tuple[float, float, float]] = []
        self._children: list[float] = []    # child time of each open span
        self._open: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, counter):
        tracer = self
        clock = time.perf_counter
        is_step = layer == STEP

        def span(*args, **kwargs):
            stack = tracer._children
            stack.append(0.0)
            tracer._open[layer] += 1
            if is_step:
                ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._open[layer] -= 1
                dur = t1 - t0
                child = stack.pop()
                tracer.self_s[layer] += dur - child
                tracer.calls[layer] += 1
                if not tracer._open[layer]:
                    tracer.total_s[layer] += dur
                if stack:
                    stack[-1] += dur
                else:
                    tracer.top.append((t0, t1, child if is_step else dur))
                if is_step:
                    ru1 = resource.getrusage(resource.RUSAGE_SELF)
                    tracer.counts["proc.minor_faults"] += (
                        ru1.ru_minflt - ru0.ru_minflt)
                    tracer.counts["proc.sys_s"] += ru1.ru_stime - ru0.ru_stime
            if counter is not None:
                name, value = counter(args, result)
                tracer.counts[name] += value
            return result

        span.__wrapped__ = fn
        span.perfbench_layer = layer
        return span

    def covered_s(self, start: float, end: float) -> float:
        """Seconds of layer spans inside the window [start, end].

        A span counts when its midpoint is inside: window ends estimated from
        outside the program may be off by microseconds.
        """
        return sum(c for t0, t1, c in self.top if start <= (t0 + t1) / 2 <= end)

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every reference to the traced functions; undo on exit."""
        patches = []    # (namespace owner, attribute, original)
        try:
            for module, name, layer, counter in FUNCTIONS:
                fn = getattr(module, name)
                patches += _patch_references(fn, self._wrap(fn, layer, counter))
            for cls, name, layer, counter in METHODS:
                fn = vars(cls)[name]
                patches.append((cls, name, fn))
                setattr(cls, name, self._wrap(fn, layer, counter))
            make_source = cli.make_source
            patches.append((cli, "make_source", make_source))
            cli.make_source = self._traced_source_factory(make_source)
            yield self
        finally:
            _undo(patches)

    def _traced_source_factory(self, make_source):
        """Data sources come from cli.make_source; their next_batch is the
        wait for the next batch, so each new source gets a wrapped one."""
        def traced_make_source(*args, **kwargs):
            source = make_source(*args, **kwargs)
            source.next_batch = self._wrap(source.next_batch, BATCH, None)
            return source
        traced_make_source.__wrapped__ = make_source
        traced_make_source.perfbench_layer = BATCH
        return traced_make_source


def _patch_references(fn, replacement) -> list:
    """Point every caller-module reference to ``fn`` at ``replacement``."""
    patches = []
    for caller in CALLER_MODULES:
        for attr, value in list(vars(caller).items()):
            if value is fn:
                patches.append((caller, attr, fn))
                setattr(caller, attr, replacement)
    return patches


def _undo(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def replaced(fn, replacement):
    """Replace ``fn`` wherever its callers look it up, for the duration."""
    patches = _patch_references(fn, replacement)
    try:
        yield
    finally:
        _undo(patches)


def installed_wrappers() -> list[str]:
    """Names of traced functions currently replaced by a wrapper."""
    found = []
    for owner in CALLER_MODULES + tuple(cls for cls, *_ in METHODS):
        for attr, value in vars(owner).items():
            if hasattr(value, "perfbench_layer"):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
