"""Tests for repro.utils.clock."""

import math

import pytest

from repro.utils.clock import timed


def _record(*args, **kwargs):
    return args, kwargs


class TestTimed:
    def test_forwards_args_and_kwargs(self):
        result, _ = timed(_record, 1, "two", three=3, four=[4])
        assert result == ((1, "two"), {"three": 3, "four": [4]})

    def test_returns_the_result_object_itself(self):
        payload = object()
        assert timed(lambda: payload)[0] is payload

    def test_seconds_are_finite_and_nonnegative(self):
        for _ in range(50):
            _, seconds = timed(sum, range(100))
            assert isinstance(seconds, float)
            assert math.isfinite(seconds)
            assert seconds >= 0.0

    def test_exception_propagates(self):
        def boom(message):
            raise KeyError(message)

        with pytest.raises(KeyError, match="bad"):
            timed(boom, "bad")

    def test_keyword_named_fn_reaches_the_callee(self):
        """``fn`` is positional-only, so every keyword is the callee's."""
        result, _ = timed(_record, fn=1, args=2, kwargs=3)
        assert result == ((), {"fn": 1, "args": 2, "kwargs": 3})
