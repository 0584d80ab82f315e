"""In-memory span recording around the program's public functions.

The traced run times each layer from outside: :class:`Tracer` replaces
module attributes and class methods of the ``repro`` package with
wrappers that record one span per call — name, start, end, the span
that was current when it began (its parent), and the gate call it
belongs to.  Nothing inside the program changes; :meth:`Tracer.remove`
puts every original back.

Parent links follow :mod:`contextvars`: each asyncio task (one per
client connection in the gateway) keeps its own current span, and
:meth:`Tracer.carry_context` makes the event loop's ``run_in_executor`` carry
the submitting task's context into the worker thread, so a worker-side
span's parent is the gateway call span that awaited it.  The thread
backend therefore puts every span of a call into one process.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, call id) of the span the running code is inside
_CURRENT: contextvars.ContextVar[Tuple[Optional[int], Any]] = (
    contextvars.ContextVar("perfbench_span", default=(None, None))
)


@dataclass
class Span:
    """One timed entry into a wrapped function."""

    name: str
    start: int  # perf_counter_ns
    end: int
    span_id: int
    parent: Optional[int]
    call_id: Any
    #: what the layer handed back that a metric needs (bytes, counters)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


#: how a wrapper learns the call id and extra figures from the wrapped
#: function's arguments and result
Annotator = Callable[[tuple, Any, Dict[str, Any]], Any]


class Tracer:
    """Installs span-recording wrappers and collects the spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(
        self,
        name: str,
        fn: Callable,
        call_id_from: Optional[Callable[[tuple], Any]] = None,
        annotate: Optional[Annotator] = None,
    ) -> Callable:
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def enter(args: tuple) -> Tuple[int, Optional[int], Any, Any]:
            parent, call_id = _CURRENT.get()
            if call_id_from is not None:
                call_id = call_id_from(args)
            span_id = next(ids)
            token = _CURRENT.set((span_id, call_id))
            return span_id, parent, call_id, token

        def leave(span_id, parent, call_id, token, start, args, result):
            end = clock()
            _CURRENT.reset(token)
            extra: Dict[str, Any] = {}
            if annotate is not None:
                found = annotate(args, result, extra)
                if found is not None:
                    call_id = found
            spans.append(Span(name, start, end, span_id, parent, call_id, extra))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent, call_id, token = enter(args)
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(span_id, parent, call_id, token, start, args, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, call_id, token = enter(args)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(span_id, parent, call_id, token, start, args, result)

        return wrapper

    def function(self, module: Any, attr: str, name: str, **options: Any) -> None:
        """Wrap the module-level function ``module.attr``."""
        original = getattr(module, attr)
        setattr(module, attr, self._wrap(name, original, **options))
        self._undo.append(lambda: setattr(module, attr, original))

    def method(self, cls: type, attr: str, name: str, **options: Any) -> None:
        """Wrap a method or classmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(name, raw.__func__, **options))
        else:
            replacement = self._wrap(name, raw, **options)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def carry_context(self, loop: Any) -> None:
        """Run executor jobs of ``loop`` in the submitter's context.

        ``run_in_executor`` does not copy :mod:`contextvars` into the
        worker thread; this does, the way ``asyncio.to_thread`` does,
        so worker-side spans find their gateway-side parent.
        """
        original = loop.run_in_executor

        def run_in_executor(executor, func, *args):
            context = contextvars.copy_context()
            return original(executor, functools.partial(context.run, func, *args))

        loop.run_in_executor = run_in_executor
        self._undo.append(lambda: setattr(loop, "run_in_executor", original))

    def remove(self) -> None:
        """Put every wrapped function back (last wrapped first)."""
        while self._undo:
            self._undo.pop()()


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration - covered
    return out
