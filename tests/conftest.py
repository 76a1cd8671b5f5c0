import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# every property test is deterministic and keeps no example database; a
# test sets only its own max_examples
settings.register_profile("kalpha", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("kalpha")
# hypothesis still caches the constants it reads from the source when
# tests are collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "kalpha-hypothesis")


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
