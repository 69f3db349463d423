import sys
from pathlib import Path

import pytest

# make oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

from dlrmkit import dense  # noqa: E402


def pool_every_call(mp: pytest.MonkeyPatch, workers: int = 3) -> None:
    """Make every kernel's independent calls run on ``workers`` threads,
    however small they are."""
    mp.setattr(dense, "WORKERS", workers)
    mp.setattr(dense, "MIN_WORK", 0)


@pytest.fixture
def pooled(monkeypatch):
    pool_every_call(monkeypatch)
