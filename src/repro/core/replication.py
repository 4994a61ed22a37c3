"""Multi-sort-order replication of a view.

"The packing algorithm that is implemented by the Cubetree Datablade
provides a data replication scheme, where selected views are stored in
multiple sort-orders, to further enhance the performance" (Sec. 3).  The
paper replicates the apex view ``V{p,s,c}`` as ``V{s,c,p}`` and
``V{c,p,s}`` to compensate for the conventional configuration's three
composite B-tree indexes.

A replica is simply the same view with a permuted projection list: under
the valid mapping the permutation changes the coordinate order, hence the
packing sort order, hence which bound-attribute prefixes cluster well.
Replicas have the same arity as the original, so SelectMapping naturally
places each one in a different Cubetree.
"""

from __future__ import annotations

from collections import abc
from typing import Iterator, Sequence

from repro.errors import MappingError
from repro.relational.view import ViewDefinition


def replica_name(base: ViewDefinition, order: Sequence[str]) -> str:
    """Deterministic name for a replica, e.g. ``V_psc__rep_suppkey_custkey_partkey``."""
    return f"{base.name}__rep_{'_'.join(order)}"


def replica_definition(
    base: ViewDefinition, order: Sequence[str]
) -> ViewDefinition:
    """A replica of ``base`` stored in a different attribute order."""
    if sorted(order) != sorted(base.group_by):
        raise MappingError(
            f"replica order {tuple(order)} is not a permutation of "
            f"{base.group_by}"
        )
    if tuple(order) == base.group_by:
        raise MappingError("replica order equals the base view's order")
    return ViewDefinition(
        replica_name(base, order), tuple(order), aggregates=base.aggregates
    )


class PermutedRows(abc.Sequence):
    """A replica's state rows: a lazy view over the base view's rows with
    the group columns reordered to the replica's order.

    Nothing is copied up front; each pass builds the permuted rows one
    at a time, so a replica's rows exist only while its own tree is
    being prepared.
    """

    def __init__(
        self, base: ViewDefinition, rows: Sequence[tuple], order: Sequence[str]
    ) -> None:
        self.rows = rows
        self.positions = tuple(base.group_by.index(attr) for attr in order)
        self.arity = base.arity

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._permute(row) for row in self.rows[index]]
        return self._permute(self.rows[index])

    def __iter__(self) -> Iterator[tuple]:
        return map(self._permute, self.rows)

    def _permute(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.positions) + tuple(row[self.arity:])
