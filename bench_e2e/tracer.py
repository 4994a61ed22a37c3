"""Span recorders installed at run time around each layer's entry points.

Nothing under ``src/`` is edited: :meth:`Tracer.install` swaps attributes
of already-imported ``repro`` modules and classes for wrappers, in this
process only, and :meth:`Tracer.uninstall` puts the originals back.

A span has a name, a start, an end, a parent and a request id.  A layer's
*self* time is its span's duration minus the part its children cover.
Three things make that subtraction honest here:

* **Lazy iterators.**  Several layers hand back a generator, so the call
  returns at once and the work happens while a *consumer* iterates.  The
  result is wrapped: every ``next()`` runs inside the producing layer's
  span and is taken off whichever span is consuming.
* **The admission hop.**  A request's engine work runs on the executor
  thread.  ``submit_nowait`` remembers which request a query object
  belongs to; the engine span that later receives that object adopts the
  request id, and the time it covers is taken off the spans of the HTTP
  thread that were waiting on it.
* **The request id** comes from the client's ``X-Request-Id`` header when
  the HTTP handler is wrapped; otherwise each root span mints its own.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


_INHERITED = object()


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module:attr`` or ``module:Class.attr``."""

    span: str
    path: str
    #: ``"register"``: argument ``link_arg`` is a query object being handed
    #: to the executor; remember the request it belongs to.  ``"adopt"``:
    #: argument ``link_arg`` is that object (or a list of them) arriving
    #: on the executor thread; take over its request id.
    link: Optional[str] = None
    link_arg: int = 1
    #: Called with ``(counters, result)`` after each call.
    after: Optional[Callable[[Dict[str, float], Any], None]] = None
    #: The first argument is an HTTP handler: read the request id from it.
    request_header: bool = False


class Span:
    """One recorded interval.  ``duration`` is kept apart from ``end -
    start`` because an iterator's span is the sum of its ``next()`` calls."""

    __slots__ = (
        "id", "name", "request", "parent", "remote", "start", "end",
        "duration", "self_time", "child", "child_overlap", "items",
    )

    def __init__(
        self, span_id: int, name: str, request: object,
        parent: Optional["Span"], remote: bool, start: float,
    ) -> None:
        self.id = span_id
        self.name = name
        self.request = request
        self.parent = parent
        self.remote = remote  # runs on the executor thread for a request
        self.start = start
        self.end = start
        self.duration = 0.0
        self.self_time = 0.0
        self.child = 0.0          # same-thread children's durations
        self.child_overlap = 0.0  # executor time those children took off
        self.items = 0            # items an iterator span produced


class Tracer:
    """Keeps every span of a traced pass in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: Targets that did not resolve on this tree (never an error).
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._links: Dict[int, object] = {}
        #: request id -> executor-thread intervals that served it.
        self._remote: Dict[object, List[Tuple[float, float]]] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._open_spans = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str, request: object = None, remote: bool = False) -> Span:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            span = Span(
                span_id, name, parent.request, parent, parent.remote,
                time.perf_counter(),
            )
        else:
            if request is None:
                request = f"anon-{span_id}"
            span = Span(
                span_id, name, request, None, remote, time.perf_counter()
            )
        stack.append(span)
        self._open_spans += 1
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self._open_spans -= 1
        span.duration = span.end - span.start
        self._settle(span)
        self.spans.append(span)

    def _settle(self, span: Span) -> None:
        """Fix a closed span's self time and charge it to its parent."""
        overlap = 0.0
        if span.remote:
            if span.parent is None:
                self._remote.setdefault(span.request, []).append(
                    (span.start, span.end)
                )
        else:
            intervals = self._remote.get(span.request)
            if intervals:
                overlap = sum(
                    max(0.0, min(end, span.end) - max(start, span.start))
                    for start, end in intervals
                )
        span.self_time = (
            span.duration - span.child
            - max(0.0, overlap - span.child_overlap)
        )
        if span.parent is not None:
            span.parent.child += span.duration
            span.parent.child_overlap += overlap

    def quiesce(self, timeout: float = 2.0) -> None:
        """Wait for spans still open on other threads to close.

        The client has its reply a moment before the server's handler
        returns; draining in that moment would lose the handler's span.
        (The counter is only ever off by a lost update, which the
        timeout bounds.)
        """
        deadline = time.perf_counter() + timeout
        while self._open_spans > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)

    def drain(self) -> List[Span]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        self._remote.clear()
        self._links.clear()
        return spans

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def recording(self, targets: List[Target]) -> Iterator[None]:
        """Wrap ``targets`` for the length of a ``with`` block."""
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def install(self, targets: List[Target]) -> None:
        for target in targets:
            try:
                owner, attr = _resolve(target.path)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            self.wrap(owner, attr, target)

    def wrap(self, owner: object, attr: str, target: Target) -> None:
        """Replace ``owner.attr`` (and every ``from x import attr`` alias
        of a module-level function) with a recording wrapper."""
        raw = (
            owner.__dict__.get(attr) if isinstance(owner, type) else None
        ) or getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped: object = staticmethod(self._wrapper(raw.__func__, target))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, target))
        else:
            wrapped = self._wrapper(raw, target)
        holders = [(owner, attr)]
        if inspect.ismodule(owner):
            holders += [
                (module, name)
                for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro") and module is not owner
                for name, value in list(vars(module).items())
                if value is raw
            ]
        for holder, name in holders:
            # _INHERITED: the class had no attribute of its own to restore.
            self._patched.append(
                (holder, name, vars(holder).get(name, _INHERITED))
            )
            setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(holder, name)
            else:
                setattr(holder, name, original)
        self._patched.clear()

    def _wrapper(self, original: Callable, target: Target) -> Callable:
        tracer = self
        name = target.span
        if inspect.isgeneratorfunction(original):
            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator:
                return _SpanIterator(tracer, name, original(*args, **kwargs))

            return generator_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            request = None
            remote = False
            if target.request_header:
                request = args[0].headers.get("X-Request-Id")
            elif target.link == "adopt" and not tracer._stack():
                handed = args[target.link_arg]
                first = handed[0] if isinstance(handed, (list, tuple)) else handed
                request = tracer._links.get(id(first))
                remote = request is not None
            span = tracer._open(name, request, remote)
            if target.link == "register":
                tracer._links[id(args[target.link_arg])] = span.request
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.after is not None:
                target.after(tracer.counters, result)
            if inspect.isgenerator(result):
                return _SpanIterator(tracer, name, result)
            return result

        return wrapper


class _SpanIterator:
    """Runs each ``next()`` of a layer's lazy result inside that layer's span."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator) -> None:
        self._tracer = tracer
        self._inner = inner
        stack = tracer._stack()
        creator = stack[-1] if stack else None
        self._span = Span(
            next(tracer._ids), name,
            creator.request if creator else f"anon-{id(self)}",
            creator, creator.remote if creator else False,
            time.perf_counter(),
        )
        self._finished = False

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self) -> Any:
        span = self._span
        stack = self._tracer._stack()
        consumer = stack[-1] if stack else None
        stack.append(span)
        began = time.perf_counter()
        ended = True
        try:
            item = next(self._inner)
            ended = False
        finally:
            elapsed = time.perf_counter() - began
            stack.pop()
            span.duration += elapsed
            if consumer is not None:
                consumer.child += elapsed
            if ended:
                self._finish()
        span.items += 1
        return item

    def close(self) -> None:
        closer = getattr(self._inner, "close", None)
        if closer is not None:
            closer()
        self._finish()

    def __del__(self) -> None:
        self._finish()  # a consumer that simply stopped asking

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            span = self._span
            span.end = time.perf_counter()
            span.self_time = span.duration - span.child
            self._tracer.spans.append(span)


def _resolve(path: str) -> Tuple[object, str]:
    module_name, _, dotted = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # AttributeError here means "does not resolve"
    return owner, attr
