"""A miniature relational storage engine — the paper's *conventional*
configuration.

The paper materializes ROLAP views as ordinary relational tables indexed
with B-trees inside the Informix Universal Server.  This package provides
the equivalent substrate from scratch: schemas, heap-file tables, a catalog,
predicates, physical operators (scan / filter / external sort / sort-group
aggregation), and materialized views with both per-tuple incremental
maintenance and full recomputation.
"""

from repro.relational.catalog import Catalog
from repro.relational.executor import (
    AggFunc,
    AggSpec,
    aggregate_columns,
    external_sort,
)
from repro.relational.expr import And, Between, Equals, TruePredicate
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.relational.view import MaterializedView, ViewDefinition

__all__ = [
    "AggFunc",
    "AggSpec",
    "And",
    "Between",
    "Catalog",
    "Equals",
    "MaterializedView",
    "Table",
    "TableSchema",
    "TruePredicate",
    "ViewDefinition",
    "aggregate_columns",
    "external_sort",
]
