"""Helpers shared by the test modules."""

import contextlib
import tracemalloc


@contextlib.contextmanager
def traced_peak():
    """Trace Python and numpy allocations for the duration of the block.

    Yields tracemalloc.get_traced_memory, which reads (current, peak) in
    bytes since the block began; tracing stops when the block exits, also
    on an exception.
    """
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()
