"""Tests for the TPC-D-style generator."""

import hashlib

import pytest

from repro.warehouse.tpcd import (
    LINEITEMS_PER_SF,
    MAX_QUANTITY,
    NUM_BRANDS,
    TPCDGenerator,
)


def test_cardinality_ratios():
    gen = TPCDGenerator(scale_factor=0.01, seed=1)
    assert gen.num_parts == 2000
    assert gen.num_suppliers == 100
    assert gen.num_customers == 1500
    assert gen.num_facts == round(LINEITEMS_PER_SF * 0.01)


def test_deterministic_generation():
    a = TPCDGenerator(scale_factor=0.001, seed=7).generate()
    b = TPCDGenerator(scale_factor=0.001, seed=7).generate()
    assert a.facts == b.facts


def test_different_seeds_differ():
    a = TPCDGenerator(scale_factor=0.001, seed=1).generate()
    b = TPCDGenerator(scale_factor=0.001, seed=2).generate()
    assert a.facts != b.facts


def test_fact_rows_within_domains():
    gen = TPCDGenerator(scale_factor=0.001, seed=3)
    data = gen.generate()
    for partkey, suppkey, custkey, quantity in data.facts[:500]:
        assert 1 <= partkey <= gen.num_parts
        assert 1 <= suppkey <= gen.num_suppliers
        assert 1 <= custkey <= gen.num_customers
        assert 1 <= quantity <= MAX_QUANTITY


def test_schema_contents():
    data = TPCDGenerator(scale_factor=0.001, seed=3).generate()
    schema = data.schema
    assert schema.fact_keys == ("partkey", "suppkey", "custkey")
    assert schema.measure == "quantity"
    assert schema.distinct_count("brand") <= NUM_BRANDS


def test_increment_size_and_independence():
    gen = TPCDGenerator(scale_factor=0.001, seed=3)
    base = gen.generate()
    inc = gen.generate_increment(fraction=0.1)
    assert len(inc) == round(len(base.facts) * 0.1)
    assert inc != base.facts[: len(inc)]


def test_increment_deterministic():
    gen = TPCDGenerator(scale_factor=0.001, seed=3)
    assert gen.generate_increment() == gen.generate_increment()
    assert gen.generate_increment(stream="day2") != gen.generate_increment()


def test_include_time_adds_dimension_and_key():
    gen = TPCDGenerator(scale_factor=0.001, seed=3, include_time=True)
    data = gen.generate()
    assert data.schema.fact_keys == (
        "partkey", "suppkey", "custkey", "timekey"
    )
    row = data.facts[0]
    assert len(row) == 5
    hierarchy = data.hierarchy("timekey", "year")
    assert hierarchy.roll_up(1) == 1
    assert hierarchy.roll_up(366) == 2


def test_partsupp_correlation():
    """Each part draws its suppliers from a fixed set of 4 (TPC-D PARTSUPP)."""
    gen = TPCDGenerator(scale_factor=0.01, seed=3)
    data = gen.generate()
    eligible = {p: set(gen.eligible_suppliers(p))
                for p in range(1, gen.num_parts + 1)}
    pairs = set()
    for partkey, suppkey, _c, _q in data.facts:
        assert suppkey in eligible[partkey]
        pairs.add((partkey, suppkey))
    # Distinct (part, supplier) pairs are bounded by 4 * parts, far below |F|.
    assert len(pairs) <= 4 * gen.num_parts
    assert len(pairs) < len(data.facts) / 2


def test_eligible_suppliers_in_range():
    gen = TPCDGenerator(scale_factor=0.01, seed=3)
    for partkey in (1, 5, gen.num_parts):
        supps = gen.eligible_suppliers(partkey)
        assert len(supps) == 4
        assert all(1 <= s <= gen.num_suppliers for s in supps)


def test_hierarchy_access():
    data = TPCDGenerator(scale_factor=0.001, seed=3).generate()
    brand = data.hierarchy("partkey", "brand")
    assert 1 <= brand.roll_up(1) <= NUM_BRANDS


def test_bad_scale_factor_raises():
    with pytest.raises(ValueError):
        TPCDGenerator(scale_factor=0)


def test_bad_increment_fraction_raises():
    gen = TPCDGenerator(scale_factor=0.001)
    with pytest.raises(ValueError):
        gen.generate_increment(fraction=0)


def test_include_price_adds_measure_column():
    gen = TPCDGenerator(scale_factor=0.001, seed=3, include_price=True)
    data = gen.generate()
    assert data.schema.measures == ("quantity", "extendedprice")
    assert data.schema.fact_columns == (
        "partkey", "suppkey", "custkey", "quantity", "extendedprice",
    )
    for partkey, _s, _c, quantity, price in data.facts[:200]:
        assert price == quantity * gen.part_price(partkey)


def test_price_with_time_dimension_column_order():
    gen = TPCDGenerator(scale_factor=0.001, seed=3,
                        include_time=True, include_price=True)
    data = gen.generate()
    assert data.schema.fact_columns == (
        "partkey", "suppkey", "custkey", "timekey",
        "quantity", "extendedprice",
    )
    row = data.facts[0]
    assert len(row) == 6


def _rows_digest(rows):
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(tuple(row)).encode())
    return digest.hexdigest()


def test_generated_facts_match_the_golden_digest():
    """Seed 42 at SF 0.002 yields the same fact and increment tuples as
    when facts were generated as a list of tuples (digests taken then):
    the column generator draws the same random values in the same
    order."""
    gen = TPCDGenerator(scale_factor=0.002, seed=42)
    facts = gen.generate().facts
    increment = gen.generate_increment(0.1)
    assert (len(facts), len(increment)) == (12002, 1200)
    assert _rows_digest(facts) == (
        "28c48725698cb28d4ce1f055df2ea3f80e93e4b4f9752f7c5aa47e14cc0f0516"
    )
    assert _rows_digest(increment) == (
        "d86a536e92ee02db3c7cca4dc7ca1af6fbdbb8068ee23a8719bdffef1243eee5"
    )
    wide = TPCDGenerator(scale_factor=0.002, seed=42, include_time=True,
                         include_price=True)
    assert _rows_digest(wide.generate().facts) == (
        "940b20dc8528f70e5b2a74f3b14d7d266512cecd9bf5cb3be281239e5c411645"
    )
    assert _rows_digest(wide.generate_increment(0.05, stream="day2")) == (
        "8a0236cc844b1901f15ec02f76ea8214a0aa2668c17ba2bd8d2db9c02cebc651"
    )


def test_facts_are_a_row_view_over_int_columns():
    data = TPCDGenerator(scale_factor=0.001, seed=3).generate()
    columns = data.facts.columns
    assert [column.typecode for column in columns] == ["q"] * 4
    assert data.facts[5] == tuple(column[5] for column in columns)
    assert list(data.facts)[:3] == [data.facts[i] for i in range(3)]
