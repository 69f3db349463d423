"""Per-operator wall-time attribution for the benchmark/training loops."""

from __future__ import annotations

import time
from contextlib import contextmanager


class StageTimer:
    """Accumulates seconds per named operator category."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def section(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) \
                + (time.perf_counter() - t0)


class NullTimer:
    """No-op drop-in when profiling is disabled."""

    @contextmanager
    def section(self, name: str):
        yield
