"""Lightweight span tracing over the metrics registry.

Usage::

    from repro.obs import trace

    with trace("rtree.merge_pack", entries=n):
        ...

Each completed span records its wall-clock duration into the histogram
``span.<name>.ms`` and bumps ``span.<name>.count``; numeric keyword tags
accumulate into ``span.<name>.<tag>`` counters (e.g. pages packed per
merge).  Spans may nest freely — they are independent measurements, not a
causal trace tree.

Tracing is **off by default** and costs one settings read plus a
shared no-op context manager per call site when disabled, so instrumented
hot paths stay at production speed.  Enable it with ``REPRO_TRACE=1``
or programmatically with ``repro.settings.override(trace=True)`` (tests,
the bench harness).
"""

from __future__ import annotations

import time
from typing import Union

from repro.obs.registry import get_registry
from repro.settings import current


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()  # repro: read-only


class Span:
    """One timed operation; records itself on exit (even on error)."""

    __slots__ = ("name", "tags", "_start")

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = tags
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        registry = get_registry()
        registry.histogram(f"span.{self.name}.ms").observe(elapsed_ms)
        registry.counter(f"span.{self.name}.count").inc()
        for tag, value in self.tags.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                registry.counter(f"span.{self.name}.{tag}").inc(value)


def trace(name: str, **tags: Union[int, float, str]) -> Union[Span, _NoopSpan]:
    """Open a span named ``name``; free when tracing is disabled."""
    if not current().trace:
        return _NOOP
    return Span(name, tags)
