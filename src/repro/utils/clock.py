"""The one wall-clock read: ``repro lint`` rule D103 flags every other.

Its seconds feed only columns a caller can drop (``timing=False`` /
``--no-timing``) or checks that never reach report bytes.
"""

import time

__all__ = ["timed"]


def timed(fn, /, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds)`` on ``time.perf_counter``;
    an exception from ``fn`` propagates."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
