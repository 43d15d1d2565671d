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


def assert_arena_views(param_groups, weights, grads):
    """Every tensor of param_groups is a view into the flat weights and
    grads, back to back in group and key order, and fills them exactly."""
    offset = 0
    for p in param_groups:
        for key, w in p.weights.items():
            for view, flat in ((w, weights), (p.grads[key], grads)):
                assert view.base is flat and view.dtype == flat.dtype
                assert (view.__array_interface__["data"][0]
                        == flat.__array_interface__["data"][0]
                        + offset * flat.itemsize)
            offset += w.size
    assert offset == weights.size == grads.size
