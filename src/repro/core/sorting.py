"""Substrate-backed sorting for the engines.

Both configurations sort through the same external-sort machinery and the
same buffer pool, so the sort cost of computing the views is charged
identically — the paper's point that the Cubetree sort "can be hardly
considered as an overhead, since sorting is at the same time used for
computing the views" (Sec. 3.2).
"""

from __future__ import annotations

from array import array
from typing import List

from repro.columns import ColumnRows, sort_columns
from repro.cube.computation import ColumnSorter
from repro.relational.executor import make_key_extractor, merge_sorted_chunks
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec, float_column, int_column


def make_substrate_sorter(
    pool: BufferPool, chunk_rows: int = 100_000
) -> ColumnSorter:
    """A ``sorter(columns, k)`` that spills runs through the buffer pool.

    Inputs that fit into one chunk are sorted in memory (no I/O charged),
    mirroring a real sort operator with a memory budget.  Larger ones
    take the external merge sort's path: chunks of ``chunk_rows`` rows,
    each sorted as columns and spilled as records (an ``int`` field per
    ``'q'`` column, a ``float`` field per ``'d'`` column) read lazily
    from those columns, then merged by
    :func:`~repro.relational.executor.merge_sorted_chunks` — the same
    runs, pages and merge as :func:`~repro.relational.executor.external_sort`
    over the rows.  The merged stream is folded straight back into
    columns.
    """

    def sorter(columns: List[array], k: int) -> List[array]:
        if not columns or len(columns[0]) <= chunk_rows:
            return sort_columns(columns, k)
        typecodes = [column.typecode for column in columns]
        codec = RecordCodec(
            [int_column() if code == "q" else float_column()
             for code in typecodes]
        )
        chunks = (
            ColumnRows(sort_columns(
                [column[start : start + chunk_rows] for column in columns], k
            ))
            for start in range(0, len(columns[0]), chunk_rows)
        )
        merged = merge_sorted_chunks(
            pool, codec, chunks, make_key_extractor(range(k)), chunk_rows
        )
        return ColumnRows.from_rows(merged, typecodes=typecodes).columns

    return sorter
