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

from typing import Iterable, Sequence

from repro.columns import ColumnRows, as_columns
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


class PermutedRows(ColumnRows):
    """A replica's state columns: the base view's columns with the group
    columns reordered to the replica's order.

    The columns are the base view's own arrays, shared, not copied;
    the replica's packing order is set by the run preparation's sort.
    """

    __slots__ = ()

    def __init__(
        self, base: ViewDefinition, rows: Iterable[tuple], order: Sequence[str]
    ) -> None:
        batch = as_columns(rows, base.arity + base.total_state_width)
        positions = [base.group_by.index(attr) for attr in order]
        positions.extend(range(base.arity, batch.width))
        super().__init__(batch.select(positions).columns)
