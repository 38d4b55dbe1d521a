"""In-memory spans and the attribute wrappers that record them.

A traced pass replaces selected functions and methods of the program
with thin timing shims (:func:`install`), runs the workload, then puts
every original back (:func:`uninstall`) and checks by object identity
that it is back, so untraced passes never pay for tracing.

Each call through a shim records one :class:`Span` — name, start, end
and the index of the span that was open when it started.  Self time is
a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
import types
from dataclasses import dataclass

__all__ = [
    "Recorder",
    "Span",
    "Wrap",
    "calls",
    "install",
    "self_times",
    "total_time",
    "uninstall",
]


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int = -1  # index into the span list; -1 for a root span


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._pickled_sizes: dict[int, tuple[object, int]] = {}

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), None, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._depth[name] = self._depth.get(name, 0) + 1
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if not self._stack or self._stack.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._depth[span.name] -= 1

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is open (a re-entrant call)."""
        return self._depth.get(name, 0) > 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def pickled_size(self, obj) -> int:
        """``len(pickle.dumps(obj))``, memoized per object for callables.

        A bound method is keyed by the object it is bound to, which is
        what dominates its pickle (an explainer and its fitted model).
        The memo holds a reference so an id is never reused.
        """
        owner = obj.__self__ if isinstance(obj, types.MethodType) else obj
        cached = self._pickled_sizes.get(id(owner))
        if cached is not None and cached[0] is owner:
            return cached[1]
        size = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        self._pickled_sizes[id(owner)] = (owner, size)
        return size


# -- span arithmetic ----------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        inner = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, [])
            if end > span.start and start < span.end
        ]
        out.append((span.end - span.start) - _covered(inner))
    return out


def _outermost(spans: list[Span], *names: str) -> list[Span]:
    """Spans called one of ``names`` with no ancestor called one of them."""
    picked = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            picked.append(span)
    return picked


def total_time(spans: list[Span], *names: str) -> float:
    """Wall time inside spans called one of ``names``, nesting among
    them counted once."""
    return sum(span.end - span.start for span in _outermost(spans, *names))


def calls(spans: list[Span], name: str) -> int:
    """Outermost calls recorded under ``name``."""
    return len(_outermost(spans, name))


# -- wrappers -------------------------------------------------------------
@dataclass(frozen=True)
class Wrap:
    """Replace ``module:qualname`` with a shim recording span ``span``.

    ``note(recorder, args, kwargs, result)`` runs after an outermost
    call returns, to add counters.  ``iterator=True`` is for methods
    returning a lazy iterator (``Executor.imap``): the iterables are
    listed up front (so ``note`` can see the tasks) and every step of
    the returned iterator is timed under the same span name.
    """

    target: str
    span: str
    note: object = None
    iterator: bool = False

    def resolve(self):
        """``(owner, attribute, raw original)`` of the target."""
        module_name, qualname = self.target.split(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        try:
            raw = vars(owner)[attr]
        except KeyError:
            raise LookupError(
                f"{self.target} is not defined on {owner!r} itself"
            ) from None
        return owner, attr, raw


def _timed_steps(iterator, name: str, recorder: Recorder):
    iterator = iter(iterator)
    while True:
        index = recorder.enter(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            recorder.exit(index)
        yield item


def _shim(func, wrap: Wrap, recorder: Recorder):
    name, note = wrap.span, wrap.note

    if wrap.iterator:
        @functools.wraps(func)
        def iterator_shim(self, fn, *iterables):
            lists = [list(items) for items in iterables]
            if note is not None and not recorder.is_open(name):
                note(recorder, (self, fn, *lists), {}, None)
            return _timed_steps(
                _call(func, name, recorder, (self, fn, *lists), {}),
                name, recorder,
            )

        return iterator_shim

    @functools.wraps(func)
    def shim(*args, **kwargs):
        outermost = not recorder.is_open(name)
        result = _call(func, name, recorder, args, kwargs)
        if note is not None and outermost:
            note(recorder, args, kwargs, result)
        return result

    return shim


def _call(func, name, recorder, args, kwargs):
    index = recorder.enter(name)
    try:
        return func(*args, **kwargs)
    finally:
        recorder.exit(index)


def install(recorder: Recorder, plan) -> list[tuple[object, str, object]]:
    """Install a shim for every :class:`Wrap` in ``plan``.

    Returns the ``(owner, attribute, original)`` triples that
    :func:`uninstall` needs.  A failure part-way uninstalls what was
    installed before re-raising.
    """
    installed = []
    try:
        for wrap in plan:
            owner, attr, raw = wrap.resolve()
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(_shim(raw.__func__, wrap, recorder))
            else:
                replacement = _shim(raw, wrap, recorder)
            setattr(owner, attr, replacement)
            installed.append((owner, attr, raw))
    except BaseException:
        uninstall(installed)
        raise
    return installed


def uninstall(installed) -> None:
    """Put every original back and verify it by identity."""
    for owner, attr, raw in reversed(installed):
        setattr(owner, attr, raw)
    stale = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, raw in installed
        if vars(owner).get(attr) is not raw
    ]
    if stale:
        raise RuntimeError(f"originals not restored: {stale}")
