"""Process-parallel execution helpers, sized by the ``workers`` setting
(``REPRO_WORKERS``).

The simulated-I/O experiments are single-device by construction: every
page access moves one shared disk head, so the cost model is only
meaningful when all pool traffic happens in the parent process in a
deterministic order.  Parallel execution is therefore restricted to
*pure-CPU* stages — cube-computation branches and merge-pack run
preparation — whose results are handed back to the parent before any
storage I/O happens.  With the default of one worker every code path is
byte-for-byte the serial one.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Below this many input rows, parallel stages run serially: the pickle
#: round-trip and dispatch latency of a process pool cost milliseconds,
#: which small inputs cannot amortize (see docs/PERFORMANCE.md for the
#: measured crossover).
MIN_PARALLEL_ROWS = 32_768


#: Lazily-created pools, keyed by worker count and shared process-wide so
#: repeated parallel stages amortize the fork cost instead of paying it
#: per call.  ``concurrent.futures`` joins them at interpreter exit.
_POOLS: dict = {}  # repro: worker-local


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor for a worker count (created on first use)."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def run_tasks(
    fn: Callable[[T], R], payloads: Sequence[T], workers: int
) -> List[R]:
    """Apply ``fn`` to every payload, in order, across a process pool.

    Falls back to an inline loop when one worker (or one payload) makes a
    pool pointless, so serial runs never pay the fork/pickle overhead.
    ``fn`` must be a module-level function and payloads picklable.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    return list(shared_pool(workers).map(fn, payloads))
