"""Shared test settings and fixtures.

Hypothesis draws the same examples on every run, and ``pool_sizes`` lets a
test see how many worker processes ``census`` would fork without forking
any.
"""

from itertools import starmap

import pytest

from lightsout import _forkmap

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the forking map ``census`` uses for an in-process stub.

    Returns the list of ``workers`` each forking map was asked for, one
    entry per census that ran two or more blocks on two or more workers.
    """
    sizes = []

    def recording_map(fn, tasks, workers):
        sizes.append(workers)
        return (result for result in starmap(fn, tasks))  # a generator, as census closes it

    monkeypatch.setattr(_forkmap, "forked_map", recording_map)
    return sizes
