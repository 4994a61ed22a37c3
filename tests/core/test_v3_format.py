"""Checkpoint format v3: columnar pages on disk, v2 compatibility.

New saves stamp format_version 4 (v3's pages in a compact dump); a v2
checkpoint (row-major leaves only) must keep loading and answer queries
identically, because the catalog layout did not change and the page
decoder dispatches on each page's node-type byte.
"""

import json
import os

import pytest

from repro.core.engine import CubetreeEngine
from repro.core.persistence import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    META_NAME,
    SUPPORTED_FORMAT_VERSIONS,
    PersistenceError,
    load_any_engine,
    save_database,
)
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.settings import override
from repro.warehouse.tpcd import TPCDGenerator

from tests.core.test_persistence import (
    _downgrade_to_single_layout,
    _expand_to_full_layout,
    _newest_gen,
    _rewrite_meta,
)

VIEWS = [
    ViewDefinition("V_ps", ("partkey", "suppkey")),
    ViewDefinition("V_s", ("suppkey",)),
    ViewDefinition("V_none", ()),
]

PROBE = SliceQuery(group_by=("partkey",), bindings=(("suppkey", 3),))


def _build_engine(columnar=False):
    data = TPCDGenerator(scale_factor=0.0005, seed=23).generate()
    # Pinned either way: v2 checkpoints (and the size baseline below)
    # are row pages whatever the shipped default is.
    with override(leaf_format="columnar" if columnar else "row"):
        engine = CubetreeEngine(data.schema, buffer_pages=128)
        engine.materialize(VIEWS, data.facts)
    return engine


def _downgrade_generation(gen_path, version):
    """Stamp an existing checkpoint with an older format version."""
    _rewrite_meta(
        gen_path, lambda meta: meta.__setitem__("format_version", version)
    )
    manifest_path = os.path.join(gen_path, MANIFEST_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format_version"] = version
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)


def test_new_checkpoints_stamp_v4(tmp_path):
    assert FORMAT_VERSION == 4
    assert FORMAT_VERSION in SUPPORTED_FORMAT_VERSIONS
    assert {2, 3} <= set(SUPPORTED_FORMAT_VERSIONS)
    engine = _build_engine()
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    gen_path = _newest_gen(directory)
    with open(os.path.join(gen_path, META_NAME)) as handle:
        assert json.load(handle)["format_version"] == 4
    with open(os.path.join(gen_path, MANIFEST_NAME)) as handle:
        assert json.load(handle)["format_version"] == 4


def test_v2_checkpoint_still_loads(tmp_path):
    engine = _build_engine()
    expected = engine.query(PROBE).rows
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    # What a v2 release wrote: the single-tree generation, stamped 2,
    # its dump holding a block for every page id.
    _downgrade_to_single_layout(directory)
    _expand_to_full_layout(_newest_gen(directory), 2)

    reopened = load_any_engine(directory)
    assert reopened.view_sizes() == engine.view_sizes()
    assert reopened.query(PROBE).rows == expected


def test_future_version_rejected(tmp_path):
    engine = _build_engine()
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    _downgrade_generation(_newest_gen(directory), 99)
    with pytest.raises(PersistenceError):
        load_any_engine(directory)


def test_columnar_checkpoint_round_trip(tmp_path):
    row_engine = _build_engine(columnar=False)
    col_engine = _build_engine(columnar=True)
    assert (
        col_engine.forest.num_pages < row_engine.forest.num_pages
    ), "columnar checkpoint should be smaller"

    directory = str(tmp_path / "db")
    save_database(col_engine, directory)
    # Loading does not depend on the gate: the stored pages carry their
    # own node-type bytes.
    reopened = load_any_engine(directory)
    assert reopened.view_sizes() == row_engine.view_sizes()
    assert reopened.query(PROBE).rows == row_engine.query(PROBE).rows
