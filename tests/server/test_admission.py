"""Admission-queue behaviour: coalescing, bounding, error relay, shutdown.

Coalesced answers must be bit-identical to serial ones (PR 5's
``query_batch`` invariant carries through the executor), rejection must
kick in exactly at ``max_depth``, and engine errors must reach the
waiter that asked — not the executor's stderr.
"""

import threading

import pytest

from repro.server import AdmissionError, AdmissionQueue

from tests.server.kit import reference_queries


@pytest.fixture()
def pinned(server):
    handle = server.manager.acquire()
    yield handle
    server.manager.release(handle)


class TestExecution:
    def test_single_query_matches_serial(self, server, pinned, workload):
        queue = server.admission
        for query in workload[:4]:
            got = queue.submit(pinned, query, timeout=30.0)
            assert got.rows == pinned.engine.query(query).rows

    def test_concurrent_queries_coalesce_and_match_serial(
        self, server, pinned, workload
    ):
        """Pile a burst onto the queue from many threads at once; every
        answer must equal the serial answer, and at least one executor
        round must have batched (the coalescing counter moves).

        The executor is parked inside a blocking query while the burst
        queues, and released only once every query of the burst waits,
        so the burst is one round whatever the scheduler does."""
        import time

        from repro.obs import get_registry

        queue = server.admission
        coalesced = get_registry().counter("server.queries_coalesced")
        before = coalesced.value
        expected = [pinned.engine.query(q).rows for q in workload]
        results = [None] * len(workload)
        errors = []
        entered, release = threading.Event(), threading.Event()

        class BlockingHandle:
            number = pinned.number

            class engine:  # noqa: N801 - stub namespace
                @staticmethod
                def query(query):
                    entered.set()
                    release.wait(30.0)
                    return pinned.engine.query(query)

        def client(index):
            try:
                results[index] = queue.submit(
                    pinned, workload[index], timeout=30.0
                ).rows
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(len(workload))
        ]
        try:
            blocker = queue.submit_nowait(BlockingHandle(), workload[0])
            assert entered.wait(30.0)
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30.0
            while queue.depth < len(workload):
                assert time.monotonic() < deadline, "burst never queued"
                time.sleep(0.001)
            assert queue.depth == len(workload)
        finally:
            release.set()
        assert queue.wait(blocker, timeout=30.0).rows == expected[0]
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert results == expected
        assert coalesced.value > before, "burst never coalesced"

    def test_engine_error_reaches_the_waiter(self, server, pinned):
        from repro.query.slice import SliceQuery

        bogus = SliceQuery(group_by=("nonexistent_attr",))
        with pytest.raises(Exception, match="nonexistent_attr"):
            server.admission.submit(pinned, bogus, timeout=30.0)
        # The executor survives a poisoned query.
        query = reference_queries(server.schema, per_node=1)[0]
        assert server.admission.submit(pinned, query, timeout=30.0).rows

    def test_bad_query_does_not_fail_its_coalesced_neighbours(
        self, server, pinned, workload
    ):
        """A good and an unanswerable query queued together form one
        coalesced round: the good one still gets its rows, and only the
        bad one's waiter sees the error."""
        from repro.errors import QueryError
        from repro.query.slice import SliceQuery

        queue = AdmissionQueue(max_depth=8)
        entered, release = threading.Event(), threading.Event()

        class BlockingHandle:
            number = pinned.number

            class engine:  # noqa: N801 - stub namespace
                @staticmethod
                def query(query):
                    entered.set()
                    release.wait(30.0)
                    return pinned.engine.query(query)

        good = workload[0]
        bad = SliceQuery(group_by=("nonexistent_attr",))
        expected = pinned.engine.query(good).rows
        queue.start()
        try:
            blocker = queue.submit_nowait(BlockingHandle(), good)
            assert entered.wait(30.0)
            good_ticket = queue.submit_nowait(pinned, good)
            bad_ticket = queue.submit_nowait(pinned, bad)
            assert queue.depth == 2
            release.set()
            assert queue.wait(blocker, timeout=30.0).rows == expected
            assert queue.wait(good_ticket, timeout=30.0).rows == expected
            with pytest.raises(QueryError, match="nonexistent_attr"):
                queue.wait(bad_ticket, timeout=30.0)
        finally:
            release.set()
            queue.close()



class TestBounds:
    def test_rejects_past_max_depth(self, server, pinned, workload):
        queue = AdmissionQueue(max_depth=2)
        # Not started: enqueue alone must fail cleanly too.
        with pytest.raises(AdmissionError, match="not running"):
            queue.submit_nowait(pinned, workload[0])
        entered, release = threading.Event(), threading.Event()

        class BlockingHandle:
            number = pinned.number

            class engine:  # noqa: N801 - stub namespace
                @staticmethod
                def query(query):
                    entered.set()
                    release.wait(30.0)
                    return pinned.engine.query(query)

        expected = pinned.engine.query(workload[0]).rows
        queue.start()
        try:
            # Park the executor inside a first query.  Once ``entered``
            # is set it has drained that round and cannot drain another
            # before ``release``: whatever is submitted now stays queued.
            blocker = queue.submit_nowait(BlockingHandle(), workload[0])
            assert entered.wait(30.0)
            queued = [
                queue.submit_nowait(pinned, workload[0]) for _ in range(2)
            ]
            assert queue.depth == 2
            with pytest.raises(AdmissionError, match="full"):
                queue.submit_nowait(pinned, workload[0])
            release.set()
            for ticket in [blocker, *queued]:
                assert queue.wait(ticket, timeout=30.0).rows == expected
        finally:
            release.set()
            queue.close()

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)

    def test_close_fails_waiters(self, server, pinned, workload):
        """A query still queued when ``close()`` runs fails with a
        shutdown error; the one in flight finishes.

        The executor is parked inside a first query, the waiter is seen
        queued before ``close()`` starts, and the executor is released
        only once the waiter has its error, so close() always finds it
        queued whatever the scheduler does."""
        import time

        queue = AdmissionQueue(max_depth=8)
        queue.start()
        entered, release = threading.Event(), threading.Event()
        outcome = {}

        class BlockingHandle:
            number = pinned.number

            class engine:  # noqa: N801 - stub namespace
                @staticmethod
                def query(query):
                    entered.set()
                    release.wait(30.0)
                    return pinned.engine.query(query)

        def waiter():
            try:
                queue.submit(pinned, workload[1], timeout=30.0)
            except AdmissionError as exc:
                outcome["error"] = exc

        pending = threading.Thread(target=waiter, daemon=True)
        closer = threading.Thread(target=queue.close, daemon=True)
        try:
            blocker = queue.submit_nowait(BlockingHandle(), workload[0])
            assert entered.wait(30.0)
            pending.start()
            deadline = time.monotonic() + 30.0
            while queue.depth < 1:
                assert time.monotonic() < deadline, "waiter never queued"
                time.sleep(0.001)
            # close() fails the queued waiter before it joins the
            # executor, which is still parked in the first query.
            closer.start()
            pending.join(timeout=30.0)
        finally:
            release.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert queue.wait(blocker, timeout=30.0).rows == (
            pinned.engine.query(workload[0]).rows
        )
        assert "error" in outcome
        assert "shutting down" in str(outcome["error"])

    def test_peak_depth_is_tracked(self, server, pinned, workload):
        queue = server.admission
        queue.submit(pinned, workload[0], timeout=30.0)
        assert queue.peak_depth >= 1
        assert queue.peak_depth <= server.config.max_admission_depth
