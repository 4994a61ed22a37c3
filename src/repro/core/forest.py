"""The Cubetree forest: every materialized view, one query surface."""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.cubetree import Cubetree
from repro.core.mapping import CubetreeAllocation
from repro.errors import QueryError
from repro.query.router import AccessPath
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import Block
from repro.storage.buffer import BufferPool

Row = Tuple[object, ...]


class CubetreeForest:
    """The collection of Cubetrees produced by SelectMapping."""

    def __init__(
        self, pool: BufferPool, allocation: CubetreeAllocation
    ) -> None:
        self.pool = pool
        self.allocation = allocation
        self.cubetrees: List[Cubetree] = [
            Cubetree(pool, assignment.dims, assignment.views)
            for assignment in allocation.trees
        ]
        self._view_tree: Dict[str, int] = {}
        for i, assignment in enumerate(allocation.trees):
            for view in assignment.views:
                self._view_tree[view.name] = i
        self._paths: List[AccessPath] | None = None

    # ------------------------------------------------------------------
    def view_names(self) -> List[str]:
        """Every view in the forest, sorted."""
        return sorted(self._view_tree)

    def view_definition(self, view_name: str) -> ViewDefinition:
        """Definition of a view by name."""
        tree = self._tree_for(view_name)
        for view in tree.views:
            if view.name == view_name:
                return view
        raise QueryError(f"unknown view {view_name!r}")  # pragma: no cover

    def tree_dims(self, view_name: str) -> int:
        """Dimensionality of the Cubetree holding a view (its sort width)."""
        return self._tree_for(view_name).dims

    def run_leaf_count(self, view_name: str) -> int | None:
        """Leaves in the view's packed run (None when no extent exists)."""
        return self._tree_for(view_name).run_leaf_count(view_name)

    def build(self, data: Mapping[str, Sequence[Row]]) -> None:
        """Bulk-load every tree from the computed view data, in tree order."""
        missing = set(self._view_tree) - set(data)
        if missing:
            raise QueryError(f"no data for views {sorted(missing)}")
        for tree in self.cubetrees:
            tree.build(data)
        self._paths = None

    def update(self, deltas: Mapping[str, Sequence[Row]]) -> None:
        """Merge-pack deltas into every tree that has any, in tree order."""
        for tree in self.cubetrees:
            if any(view.name in deltas for view in tree.views):
                tree.update(self._relevant(tree, deltas))
        self._paths = None

    @staticmethod
    def _relevant(
        tree: Cubetree, data: Mapping[str, Sequence[Row]]
    ) -> Dict[str, Sequence[Row]]:
        """The slice of ``data`` that belongs to one tree's views."""
        return {
            view.name: data[view.name]
            for view in tree.views
            if view.name in data
        }

    # ------------------------------------------------------------------
    # checkpoint restore
    # ------------------------------------------------------------------
    def restore_tree_states(self, states: Sequence[Mapping]) -> None:
        """Adopt saved per-tree root/leaf/ownership state, strictly.

        One state per Cubetree, in allocation order.  A count mismatch
        means the catalog and the allocation disagree (a torn or edited
        checkpoint), so it raises instead of zip-truncating.
        """
        if len(states) != len(self.cubetrees):
            raise ValueError(
                f"{len(states)} saved tree state(s) for an allocation of "
                f"{len(self.cubetrees)} cubetree(s)"
            )
        for tree, state in zip(self.cubetrees, states):
            tree.tree.root_page_id = int(state["root_page_id"])
            tree.tree.height = int(state["height"])
            tree.tree.count = int(state["count"])
            tree.tree.leaf_page_ids = [int(p) for p in state["leaf_page_ids"]]
            tree.tree.owned_page_ids = [
                int(p) for p in state["owned_page_ids"]
            ]
            # Checkpoints written before leaf-run extents existed simply
            # lack the key; such trees fall back to the interior descent.
            tree.tree.view_extents = {
                int(view_id): (int(first), int(last))
                for view_id, (first, last) in state.get(
                    "view_extents", {}
                ).items()
            }
        self._paths = None

    def set_view_sizes(self, sizes: Mapping[str, int]) -> None:
        """Adopt saved tuple counts (each tree's per-view entry counts);
        keys must match the allocation exactly."""
        known = set(self._view_tree)
        unknown = sorted(set(sizes) - known)
        missing = sorted(known - set(sizes))
        if unknown or missing:
            raise ValueError(
                f"view sizes disagree with the allocation: "
                f"unknown {unknown}, missing {missing}"
            )
        for tree in self.cubetrees:
            tree.tree.view_counts = {
                view.arity: int(sizes[view.name]) for view in tree.views
            }
        self._paths = None

    def query_view(
        self, view_name: str, bindings: Mapping[str, int]
    ) -> Iterator[Block]:
        """Slice one view by descent into column blocks (see
        Cubetree.query)."""
        return self._tree_for(view_name).query(view_name, bindings)

    def query_view_group(
        self,
        view_name: str,
        bindings_list: Sequence[Mapping[str, int]],
        fold: Optional[Sequence[bool]] = None,
    ) -> List[object]:
        """Answer slices of one view in one pass over its leaf run
        (see Cubetree.query_group)."""
        return self._tree_for(view_name).query_group(
            view_name, bindings_list, fold=fold
        )

    def has_run(self, view_name: str) -> bool:
        """True when the view's leaf-run extent is recorded."""
        return self._tree_for(view_name).has_run(view_name)

    def protect_index_pages(self) -> int:
        """Shelter every interior/root page from scan-driven eviction.

        Run passes flow through the pool's probationary segment, but the
        descent pages they bypass are still the hot set for the classic
        searches; protecting them keeps the paper's
        "top-level pages stay resident" property under scan pressure.
        Returns the number of protected page ids.
        """
        protected = 0
        for tree in self.cubetrees:
            leaves = set(tree.tree.leaf_page_ids)
            for page_id in tree.tree.owned_page_ids:
                if page_id not in leaves:
                    self.pool.protect_page(page_id)
                    protected += 1
        return protected

    # ------------------------------------------------------------------
    def access_paths(self) -> List[AccessPath]:
        """Router inputs: each view with its Cubetree sort order.

        A view mapped with coordinate order ``(a1..ak)`` is packed sorted
        by ``(ak, ..., a1)``, so that reversed order is the view's
        clustering order — the Cubetree analogue of a B-tree search key.
        """
        if self._paths is None:
            from repro.rtree.node import leaf_capacity

            sizes = self.view_sizes()
            paths = []
            for name in self.view_names():
                view = self.view_definition(name)
                order = tuple(reversed(view.group_by))
                tree = self._tree_for(name)
                paths.append(
                    AccessPath(
                        view,
                        float(sizes[name]),
                        (order,),
                        rows_per_page=leaf_capacity(
                            view.arity, view.total_state_width
                        ),
                        clustered=order,
                        run_leaves=tree.run_leaf_count(name),
                    )
                )
            self._paths = paths
        return self._paths

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def view_sizes(self) -> Dict[str, int]:
        """Tuple count per view."""
        sizes: Dict[str, int] = {}
        for tree in self.cubetrees:
            sizes.update(tree.view_sizes())
        return sizes

    @property
    def num_trees(self) -> int:
        """Number of Cubetrees in the forest."""
        return len(self.cubetrees)

    @property
    def num_pages(self) -> int:
        """Number of pages this structure occupies."""
        return sum(tree.num_pages for tree in self.cubetrees)

    def leaf_utilization(self) -> float:
        """Average leaf fill fraction (1.0 = packed full)."""
        utils = [
            tree.leaf_utilization() for tree in self.cubetrees if len(tree)
        ]
        return sum(utils) / len(utils) if utils else 0.0

    # ------------------------------------------------------------------
    def _tree_for(self, view_name: str) -> Cubetree:
        try:
            return self.cubetrees[self._view_tree[view_name]]
        except KeyError:
            raise QueryError(f"unknown view {view_name!r}") from None
