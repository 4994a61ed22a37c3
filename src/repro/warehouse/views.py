"""The paper's materialized configuration over the TPC-D warehouse.

The view set V that GHRU 1-greedy selects for the experiments (Sec. 3)
and the Datablade's replica orders for its apex view.  Both the
experiments and the server's bootstrap build this configuration, so it
lives with the warehouse rather than with either of them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.relational.view import ViewDefinition

#: The paper's selected view set V (Sec. 3, from GHRU 1-greedy).
PAPER_VIEW_SPECS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("V_psc", ("partkey", "suppkey", "custkey")),
    ("V_ps", ("partkey", "suppkey")),
    ("V_c", ("custkey",)),
    ("V_s", ("suppkey",)),
    ("V_p", ("partkey",)),
    ("V_none", ()),
)

#: The Datablade replica orders for the apex view (Sec. 3): V{s,c,p} and
#: V{c,p,s}, chosen so every dimension leads one sort order.
PAPER_REPLICA_ORDERS: Tuple[Tuple[str, ...], ...] = (
    ("suppkey", "custkey", "partkey"),
    ("custkey", "partkey", "suppkey"),
)


def paper_views() -> List[ViewDefinition]:
    """The materialized set V as ViewDefinitions."""
    return [ViewDefinition(name, attrs) for name, attrs in PAPER_VIEW_SPECS]


def paper_replicas() -> Dict[str, List[Tuple[str, ...]]]:
    """The replication spec for the Cubetree configuration."""
    return {"V_psc": [tuple(order) for order in PAPER_REPLICA_ORDERS]}
