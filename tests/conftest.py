import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(f, *args) calls f(*args) under tracemalloc and returns its
    result with the peak bytes traced during that call alone.

    It refuses to run while tracing is already on (the peak would then
    not be the call's own), and it always stops tracing."""
    def peak(f, *args):
        if tracemalloc.is_tracing():
            raise RuntimeError("tracemalloc is already tracing, so the peak "
                               "would not be this call's")
        tracemalloc.start()
        try:
            result = f(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
