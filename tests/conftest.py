"""Shared fixtures."""

import pytest

from loopdens import montecarlo


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for montecarlo's process pool with one that maps in this
    process, so no worker process starts; returns the list of the pool sizes
    asked for."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Pool)
    return sizes
