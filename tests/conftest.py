"""Shared test settings and fixtures.

Hypothesis draws the same examples on every run, and ``pool_sizes`` lets a
test see how large a process pool ``scan`` would start without starting
one.
"""

import concurrent.futures

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool ``scan`` imports for an in-process stub.

    Returns the list of ``max_workers`` each pool was created with.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
