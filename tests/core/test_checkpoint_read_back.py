"""A checkpoint reads each page dump back once to checksum it.

Saving reads the dump it just wrote once, for both the per-page CRCs and
the whole-file CRC; reopening reads it once to validate and once more to
restore the pages.
"""

import builtins

from repro.core.engine import CubetreeEngine
from repro.core.persistence import PAGES_NAME, load_any_engine
from repro.relational.view import ViewDefinition
from repro.warehouse.tpcd import TPCDGenerator


def test_each_page_dump_is_read_back_once(tmp_path, monkeypatch):
    generator = TPCDGenerator(scale_factor=0.0005, seed=7)
    engine = CubetreeEngine(generator.schema(), shards=2)
    engine.materialize(
        [ViewDefinition("V_ps", ("partkey", "suppkey")),
         ViewDefinition("V_none", ())],
        generator.generate().facts,
    )
    modes = []
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file).endswith(PAGES_NAME):
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    engine.checkpoint(str(tmp_path))
    # Per shard: the dump written, then read back once.
    assert sorted(modes) == ["rb", "rb", "wb", "wb"]
    modes.clear()
    load_any_engine(str(tmp_path))
    # Per shard: one validation pass and the restore.
    assert modes == ["rb"] * 4
