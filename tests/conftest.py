import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that runs fn() under tracemalloc and returns (peak bytes, fn's result)."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return run
