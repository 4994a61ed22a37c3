"""The paper's contribution: Cubetree storage for ROLAP aggregate views.

* :mod:`repro.core.mapping` — the SelectMapping algorithm (Fig. 5) that
  places an arbitrary set of views onto a minimal forest of Cubetrees;
* :mod:`repro.core.cubetree` — one packed/compressed Cubetree holding one
  view per arity;
* :mod:`repro.core.forest` — the Cubetree forest with query routing;
* :mod:`repro.core.sharded` — the scatter-gather forest over N >= 1
  residue shards, each a Cubetree forest on its own disk;
* :mod:`repro.core.engine` — :class:`CubetreeEngine`, the "Datablade":
  the one engine (one shard by default) — materialize / query /
  bulk-incremental update / checkpoint behind one API;
* :mod:`repro.core.conventional` — :class:`ConventionalEngine`, the same
  API on relational tables + B-trees (the paper's baseline);
* :mod:`repro.core.replication` — multi-sort-order replicas of a view.
"""

from repro.core.advisor import Advice, advise
from repro.core.conventional import ConventionalEngine
from repro.core.cubetree import Cubetree
from repro.core.engine import CubetreeEngine
from repro.core.forest import CubetreeForest
from repro.core.mapping import CubetreeAllocation, select_mapping
from repro.core.replication import replica_definition, replica_name

__all__ = [
    "Advice",
    "advise",
    "ConventionalEngine",
    "Cubetree",
    "CubetreeAllocation",
    "CubetreeEngine",
    "CubetreeForest",
    "replica_definition",
    "replica_name",
    "select_mapping",
]
