"""Deterministic TPC-D-style data generation (DBGEN-alike).

The paper generated its data with TPC-D's DBGEN at scale factor 1 (1 GB,
6,001,215 fact rows over 200k parts / 10k suppliers / 150k customers) and a
10% increment for the refresh experiment.  This module reproduces those
cardinality *ratios* at any scale factor so the experiments run at laptop
scale; only the three foreign keys and the ``quantity`` measure matter to
the evaluation.

Everything is seeded: the same (scale factor, seed) always produces the
same warehouse, and increments are generated from an independent stream so
base data and deltas are reproducible separately.

Fact data is generated straight into ``array('q')`` columns; the rows
callers read (``row[col]``) are a lazy view over them
(:class:`~repro.columns.ColumnRows`), not a second copy.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import List, Tuple

from repro.columns import ColumnRows
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import Dimension, StarSchema

# TPC-D scale-factor-1 cardinalities.
PARTS_PER_SF = 200_000
SUPPLIERS_PER_SF = 10_000
CUSTOMERS_PER_SF = 150_000
LINEITEMS_PER_SF = 6_001_215

#: TPC-D value domains.
NUM_BRANDS = 25
NUM_TYPES = 150
NUM_CONTAINERS = 40
NUM_NATIONS = 25
MAX_QUANTITY = 50

#: TPC-D's PARTSUPP gives every part exactly four eligible suppliers.
SUPPLIERS_PER_PART = 4

#: Time dimension: 7 years of days (TPC-D covers 1992–1998).
NUM_YEARS = 7
DAYS_PER_YEAR = 365

FactRow = Tuple[int, int, int, int]


@dataclass
class WarehouseData:
    """A generated warehouse instance."""

    scale_factor: float
    schema: StarSchema
    facts: ColumnRows

    @property
    def num_facts(self) -> int:
        """Number of fact rows in this instance."""
        return len(self.facts)

    def hierarchy(self, fact_key: str, attribute: str) -> Hierarchy:
        """Hierarchy level for a dimension attribute (e.g. part -> brand)."""
        return Hierarchy.from_dimension(
            self.schema.dimension_of(fact_key), attribute
        )


class TPCDGenerator:
    """Generates warehouses and increments at a configurable scale.

    Parameters
    ----------
    scale_factor:
        Fraction of TPC-D SF 1 (default 0.01 -> ~60k fact rows).
    seed:
        Master seed; all streams derive from it.
    include_time:
        When true, fact rows carry a ``timekey`` foreign key and the
        schema gains the ``time`` dimension (used by the Sec. 2.4
        worked example with month/year roll-ups).
    """

    def __init__(
        self,
        scale_factor: float = 0.01,
        seed: int = 42,
        include_time: bool = False,
        include_price: bool = False,
    ) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed
        self.include_time = include_time
        self.include_price = include_price
        self.num_parts = max(1, round(PARTS_PER_SF * scale_factor))
        self.num_suppliers = max(1, round(SUPPLIERS_PER_SF * scale_factor))
        self.num_customers = max(1, round(CUSTOMERS_PER_SF * scale_factor))
        self.num_facts = max(1, round(LINEITEMS_PER_SF * scale_factor))
        self.num_days = NUM_YEARS * DAYS_PER_YEAR

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    def part_dimension(self) -> Dimension:
        """Generate the part dimension (brand/type/size/container)."""
        rng = random.Random(f"{self.seed}/part")
        rows = [
            (
                key,
                f"Part#{key:06d}",
                rng.randint(1, NUM_BRANDS),
                rng.randint(1, NUM_TYPES),
                rng.randint(1, 50),
                rng.randint(1, NUM_CONTAINERS),
            )
            for key in range(1, self.num_parts + 1)
        ]
        return Dimension(
            "part",
            "partkey",
            ("partkey", "name", "brand", "type", "size", "container"),
            rows,
        )

    def supplier_dimension(self) -> Dimension:
        """Generate the supplier dimension."""
        rng = random.Random(f"{self.seed}/supplier")
        rows = [
            (key, f"Supplier#{key:06d}", rng.randint(1, NUM_NATIONS))
            for key in range(1, self.num_suppliers + 1)
        ]
        return Dimension(
            "supplier", "suppkey", ("suppkey", "name", "nation"), rows
        )

    def customer_dimension(self) -> Dimension:
        """Generate the customer dimension."""
        rng = random.Random(f"{self.seed}/customer")
        rows = [
            (key, f"Customer#{key:06d}", rng.randint(1, NUM_NATIONS))
            for key in range(1, self.num_customers + 1)
        ]
        return Dimension(
            "customer", "custkey", ("custkey", "name", "nation"), rows
        )

    def time_dimension(self) -> Dimension:
        """Generate the time dimension (day -> month -> year)."""
        rows = []
        for key in range(1, self.num_days + 1):
            year = (key - 1) // DAYS_PER_YEAR + 1
            month = (key - 1) // 30 + 1  # integer-coded running month
            rows.append((key, month, year))
        return Dimension("time", "timekey", ("timekey", "month", "year"), rows)

    def schema(self) -> StarSchema:
        """The star schema for this generator's configuration."""
        dims = {
            "partkey": self.part_dimension(),
            "suppkey": self.supplier_dimension(),
            "custkey": self.customer_dimension(),
        }
        keys: Tuple[str, ...] = ("partkey", "suppkey", "custkey")
        if self.include_time:
            dims["timekey"] = self.time_dimension()
            keys = keys + ("timekey",)
        extra = ("extendedprice",) if self.include_price else ()
        return StarSchema(fact_keys=keys, measure="quantity",
                          dimensions=dims, extra_measures=extra)

    # ------------------------------------------------------------------
    # facts
    # ------------------------------------------------------------------
    def generate(self) -> WarehouseData:
        """Generate the base warehouse."""
        facts = self._fact_columns(self.num_facts, stream="base")
        return WarehouseData(self.scale_factor, self.schema(), facts)

    def generate_increment(
        self, fraction: float = 0.1, stream: str = "increment"
    ) -> ColumnRows:
        """Generate a refresh increment (default 10%, as in the paper)."""
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        count = max(1, round(self.num_facts * fraction))
        return self._fact_columns(count, stream=stream)

    def eligible_suppliers(self, partkey: int) -> List[int]:
        """The ``SUPPLIERS_PER_PART`` suppliers that stock a part.

        TPC-D's PARTSUPP table gives every part exactly four suppliers,
        derived arithmetically from the part key; lineitems draw their
        supplier from that set.  This correlation is what keeps
        ``V{partkey,suppkey}`` at ~4x the part count instead of ~|F|
        distinct pairs — the effect the paper's view-selection outcome
        depends on.
        """
        s = self.num_suppliers
        return [
            (partkey + i * (s // SUPPLIERS_PER_PART + (partkey - 1) // s)) % s
            + 1
            for i in range(SUPPLIERS_PER_PART)
        ]

    def part_price(self, partkey: int) -> int:
        """Deterministic part retail price (TPC-D-style arithmetic)."""
        return 900 + partkey % 1000

    def _fact_columns(self, count: int, stream: str) -> ColumnRows:
        """``count`` fact rows as columns, in the schema's column order.

        The random draws run in the same order as they always have, so a
        (seed, stream) pair yields the same facts row for row.
        """
        rng = random.Random(f"{self.seed}/{stream}")
        parts, custs = self.num_parts, self.num_customers
        days = self.num_days
        partkeys, suppkeys, custkeys = array("q"), array("q"), array("q")
        timekeys, quantities, prices = array("q"), array("q"), array("q")
        for _ in range(count):
            partkey = rng.randint(1, parts)
            partkeys.append(partkey)
            suppkeys.append(rng.choice(self.eligible_suppliers(partkey)))
            custkeys.append(rng.randint(1, custs))
            if self.include_time:
                timekeys.append(rng.randint(1, days))
            quantity = rng.randint(1, MAX_QUANTITY)
            quantities.append(quantity)
            if self.include_price:
                prices.append(quantity * self.part_price(partkey))
        columns = [partkeys, suppkeys, custkeys]
        if self.include_time:
            columns.append(timekeys)
        columns.append(quantities)
        if self.include_price:
            columns.append(prices)
        return ColumnRows(columns)
