"""An independent oracle: a dict group-by over regenerated facts.

It shares the data generator with the server (same scale and seed give
the same rows) and nothing else: no router, no view, no tree.  A response
is checked against the facts of the ``generation`` it is tagged with —
generation 1 is the bootstrap, and each published refresh adds the next
``bench-<i>`` increment.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.warehouse.tpcd import TPCDGenerator

from bench_e2e.workloads import Query, increments

_COLUMN = {"partkey": 0, "suppkey": 1, "custkey": 2}
_MEASURE = 3


class Oracle:
    """Answers slice queries from the raw fact rows."""

    def __init__(self, scale: float, seed: int) -> None:
        self.base: List[tuple] = TPCDGenerator(
            scale_factor=scale, seed=seed
        ).generate().facts
        # One value -> rows index per key column, so an equality or a
        # narrow range does not walk all 120 000 rows.
        self._index: List[Dict[int, List[tuple]]] = [{}, {}, {}]
        for row in self.base:
            for column, index in enumerate(self._index):
                index.setdefault(row[column], []).append(row)
        self._increments: List[List[tuple]] = []
        self._increment_stream = increments(seed, scale)
        self._cache: Dict[Tuple[str, int], List[list]] = {}

    def fact_rows(self, generation: int) -> int:
        """Fact rows generation ``generation`` holds."""
        return len(self.base) + sum(
            len(rows) for rows in self._applied(generation)
        )

    def _applied(self, generation: int) -> Sequence[List[tuple]]:
        while len(self._increments) < generation - 1:
            self._increments.append(next(self._increment_stream))
        return self._increments[: generation - 1]

    def _candidates(
        self, bounds: Sequence[Tuple[int, int, int]], generation: int
    ) -> Iterator[tuple]:
        """Rows that may match: base rows through the narrowest indexed
        predicate, then every row of every applied increment."""
        if bounds:
            column, low, high = min(bounds, key=lambda b: b[2] - b[1])
            index = self._index[column]
            for value in range(low, high + 1):
                yield from index.get(value, ())
        else:
            yield from self.base
        for rows in self._applied(generation):
            yield from rows

    def answer(self, query: Query, generation: int) -> List[list]:
        """``group-by values + [sum(quantity)]`` rows, sorted by group key."""
        cache_key = (json.dumps(query, sort_keys=True), generation)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        bounds = [
            (_COLUMN[attr], value, value) for attr, value in query["bindings"]
        ] + [
            (_COLUMN[attr], low, high) for attr, low, high in query["ranges"]
        ]
        keys = [_COLUMN[attr] for attr in query["group_by"]]
        totals: Dict[tuple, int] = {}
        for row in self._candidates(bounds, generation):
            if all(low <= row[col] <= high for col, low, high in bounds):
                key = tuple(row[col] for col in keys)
                totals[key] = totals.get(key, 0) + row[_MEASURE]
        rows = [list(key) + [float(totals[key])] for key in sorted(totals)]
        self._cache[cache_key] = rows
        return rows

    def mismatches(
        self, queries: Iterable[Query], payloads: Iterable[dict]
    ) -> int:
        """How many of the answered queries disagree with the facts."""
        wrong = 0
        for query, payload in zip(queries, payloads):
            expected = self.answer(query, payload["generation"])
            if (
                payload["rows"] != expected
                or payload["row_count"] != len(expected)
            ):
                wrong += 1
        return wrong
