import os

import pytest

from mersenne_doubling import build_prime_table, census, detector


@pytest.fixture(scope="session")
def prime_table():
    return build_prime_table()


@pytest.fixture
def inline_pool(monkeypatch):
    """Process pools in detector and census map in-process, on a host of 3 cores.

    A scan with workers > 1 asks for its pool at once: its in-process time
    budget, detector._POOL_START_S, is 0.  Yields the list of pool sizes
    asked for; no process is ever started.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(detector, "_POOL_START_S", 0)
    for module in (detector, census):
        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
    yield sizes
