"""Shared experiment scaffolding: configuration, engine construction, the
paper's selected views/indexes/replicas, and formatting helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.constants import EXPERIMENT_BUFFER_PAGES
from repro.core.conventional import ConventionalEngine
from repro.core.engine import CubetreeEngine
from repro.core.reports import LoadReport
from repro.warehouse.tpcd import TPCDGenerator, WarehouseData
from repro.warehouse.views import (  # noqa: F401 - re-exported
    PAPER_REPLICA_ORDERS,
    PAPER_VIEW_SPECS,
    paper_replicas,
    paper_views,
)

#: The paper's selected index set I: three composite B-trees on the apex.
PAPER_INDEX_KEYS: Tuple[Tuple[str, ...], ...] = (
    ("custkey", "suppkey", "partkey"),
    ("partkey", "custkey", "suppkey"),
    ("suppkey", "partkey", "custkey"),
)

#: The seven lattice nodes Fig. 12 plots (every node except "none").
FIG12_NODES: Tuple[Tuple[str, ...], ...] = (
    ("partkey", "suppkey", "custkey"),
    ("partkey", "suppkey"),
    ("partkey", "custkey"),
    ("suppkey", "custkey"),
    ("partkey",),
    ("suppkey",),
    ("custkey",),
)


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    The defaults reproduce the paper's setup scaled to laptop size:
    TPC-D at ``scale_factor`` of SF 1 with a buffer pool that is small
    relative to the data (the paper's 32 MB vs. ~600 MB regime).
    ``python -m repro experiment <name> --scale s --queries n`` runs an
    experiment at another size.
    """

    scale_factor: float = 0.01
    seed: int = 42
    query_seed: int = 7
    buffer_pages: int = EXPERIMENT_BUFFER_PAGES
    queries_per_node: int = 100
    increment_fraction: float = 0.1
    sort_chunk_rows: int = 100_000


def paper_indexes() -> Dict[str, List[Tuple[str, ...]]]:
    """The index set I, keyed by owning view."""
    return {"V_psc": [tuple(key) for key in PAPER_INDEX_KEYS]}


def build_warehouse(config: ExperimentConfig) -> Tuple[TPCDGenerator, WarehouseData]:
    """Generate the TPC-D warehouse for a configuration."""
    gen = TPCDGenerator(scale_factor=config.scale_factor, seed=config.seed)
    return gen, gen.generate()


def build_cubetree_engine(
    config: ExperimentConfig,
    data: WarehouseData,
    replicate: bool = True,
    shards: int = 1,
) -> Tuple[CubetreeEngine, LoadReport]:
    """Build + load the Cubetree configuration (with replicas),
    partitioned into ``shards`` residue shards (default: one)."""
    engine = CubetreeEngine(
        data.schema,
        buffer_pages=config.buffer_pages,
        sort_chunk_rows=config.sort_chunk_rows,
        shards=shards,
    )
    report = engine.materialize(
        paper_views(),
        data.facts,
        replicate=paper_replicas() if replicate else None,
    )
    return engine, report


def build_conventional_engine(
    config: ExperimentConfig, data: WarehouseData
) -> Tuple[ConventionalEngine, LoadReport]:
    """Build + load the conventional configuration (with indexes)."""
    engine = ConventionalEngine(
        data.schema,
        buffer_pages=config.buffer_pages,
        sort_chunk_rows=config.sort_chunk_rows,
    )
    engine.load_fact(data.facts)
    report = engine.materialize(paper_views(), indexes=paper_indexes())
    return engine, report


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------
def fmt_duration(ms: float) -> str:
    """Human-friendly duration for simulated times."""
    if ms < 1_000:
        return f"{ms:.1f} ms"
    seconds = ms / 1000.0
    if seconds < 120:
        return f"{seconds:.2f} s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 120:
        return f"{int(minutes)}m {secs:04.1f}s"
    hours, mins = divmod(minutes, 60)
    return f"{int(hours)}h {int(mins)}m"


def fmt_bytes(num: float) -> str:
    """Human-friendly byte count."""
    for unit in ("B", "KB", "MB", "GB"):
        if num < 1024 or unit == "GB":
            return f"{num:.1f} {unit}"
        num /= 1024
    return f"{num:.1f} GB"  # pragma: no cover


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    verbose: bool = True,
) -> None:
    """Render an aligned text table (the experiment output format)."""
    if not verbose:
        return
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def node_label(node: Sequence[str]) -> str:
    """Fig. 12's axis labels, e.g. 'partkey,suppkey'."""
    return ",".join(node) if node else "none"
