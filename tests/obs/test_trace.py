"""Unit tests for span tracing: on/off switching and recorded metrics."""

import pytest

from repro.obs import get_registry, trace
from repro.obs.trace import _NOOP
from repro.settings import Settings, current, override


def test_disabled_returns_shared_noop():
    with override(trace=False):
        assert not current().trace
        span = trace("anything", pages=5)
    assert span is _NOOP
    # And it is a working no-op context manager.
    with span:
        pass


@pytest.fixture
def tracing():
    """Span recording on for one test; the prior setting comes back."""
    with override(trace=True):
        yield


def test_enabled_records_duration_and_count(tracing):
    registry = get_registry()
    registry.counter("span.test.op.count").reset()
    registry.histogram("span.test.op.ms").reset()

    with trace("test.op"):
        pass
    with trace("test.op"):
        pass

    assert registry.counter("span.test.op.count").snapshot() == 2
    hist = registry.histogram("span.test.op.ms").snapshot()
    assert hist["count"] == 2
    assert hist["max"] >= 0.0


def test_numeric_tags_accumulate_as_counters(tracing):
    registry = get_registry()
    registry.counter("span.test.tags.pages").reset()

    with trace("test.tags", pages=7, label="ignored", flag=True):
        pass
    with trace("test.tags", pages=3):
        pass

    assert registry.counter("span.test.tags.pages").snapshot() == 10
    # String and bool tags never register counters.
    assert registry.get("span.test.tags.label") is None
    assert registry.get("span.test.tags.flag") is None


def test_span_records_even_when_body_raises(tracing):
    registry = get_registry()
    registry.counter("span.test.err.count").reset()
    with pytest.raises(RuntimeError):
        with trace("test.err"):
            raise RuntimeError("boom")
    assert registry.counter("span.test.err.count").snapshot() == 1


def test_set_tracing_none_defers_to_environment():
    assert not Settings.from_env({}).trace
    assert Settings.from_env({"REPRO_TRACE": "1"}).trace
    assert not Settings.from_env({"REPRO_TRACE": "false"}).trace
    assert not Settings.from_env({"REPRO_TRACE": "off"}).trace


def test_override_wins_over_environment():
    with override(trace=True):
        with override(trace=False):
            assert trace("anything") is _NOOP
        assert trace("anything") is not _NOOP
