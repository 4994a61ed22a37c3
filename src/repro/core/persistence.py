"""Crash-safe generational checkpoints for a Cubetree database.

The paper's update story rests on a *create-new-then-swap* discipline:
merge-pack writes a freshly packed Cubetree beside the old one and swaps
atomically, so the old Cubetree keeps serving queries and a crash never
loses the previous generation (Sec. 5).  This module applies the same
discipline at the checkpoint level.  A saved database is a directory of
numbered **generations**, and there is one generation layout — a
directory per shard, ``shard-00/`` alone for the default one-shard
engine::

    db/
      gen-000001/
        shard-00/
          pages.bin     the shard's allocated pages, in page-id order
          pages.crc     one little-endian uint32 CRC32 per stored page
          shard.json    the shard's catalog: tree states, sizes, allocator
        shard-01/ ...   one directory per further shard
        meta.json       the global catalog (canonical JSON, see below)
        MANIFEST.json   commit record: file sizes + CRC32s (written last)
      gen-000002/
        ...             the next checkpoint; gen-000001 stays intact

:func:`save_database` is the one writer.  It writes a brand-new
``gen-<n>/`` directory next to the existing ones and *commits* it by
writing ``MANIFEST.json`` to a temporary name, fsyncing, and atomically
renaming it into place — the manifest's presence is the commit point for
*every* shard at once, exactly like merge-pack's swap.  A crash at any
write site leaves either the previous committed generation (manifest
absent: the partial is garbage) or the new one (manifest present); never
a torn mix, and never some shards ahead of others.
:func:`load_any_engine` is the one reader: it selects the newest
manifest-complete generation, verifies every checksum, and discards
partials.  Committed generations beyond ``retain`` are pruned only after
the new commit succeeds.

``meta.json`` and ``shard.json`` are canonical: every dict is dumped
as compact JSON (no whitespace) with sorted keys and explicitly
normalized value types (tuples as lists, sizes as ints, names as
strings), so ``save -> load -> save`` produces byte-identical metadata.
The reader takes any JSON, so catalogs written indented before the
compact encoding still load.

Format history
--------------
* **v1** — ``meta.json`` + ``pages.bin`` directly in the directory, no
  checksums, overwritten in place on every save.  No longer read:
  :func:`load_any_engine` raises a :class:`PersistenceError` naming the
  layout (releases up to PR 21 open it, and re-saving there migrates it).
* **v2** — generations, with one ``pages.bin`` / ``pages.crc`` /
  ``meta.json`` triple directly inside ``gen-<n>/`` (the single-tree
  layout; its manifest has no ``layout`` key).
* **v3** — identical catalog layout; ``pages.bin`` may additionally
  contain columnar (type-3) R-tree leaf pages.  v2 images (row-major
  leaves only) load unchanged because the page decoder dispatches on the
  per-page node-type byte.
* **PR 23** — the per-shard layout above became the only one written
  (still format v3; the manifest says ``"layout": "sharded"``).
  Committed single-tree generations of v2/v3 stay loadable through a
  read-only adapter (in :func:`_validate_generation`) that presents the
  generation directory as shard 0; the first re-save migrates them.
* **v4** — compact page dumps.  ``pages.bin`` holds only the allocated
  pages, so page *p* sits at offset ``(p - freed ids below p) *
  PAGE_SIZE``, with the ``freed`` ids taken from the catalog's allocator
  state; ``pages.crc`` and the manifest's ``page_count`` count stored
  pages.  v2/v3 dumps hold a block for every id (page *p* at ``p *
  PAGE_SIZE``, freed ids zero-filled) and still load: the format
  version picks the offset rule (:func:`_stores_freed`).

Every file operation of a checkpoint passes through a
:class:`~repro.storage.wal.CrashPoint` (a shard disk's hook by default),
so recovery tests can kill the simulated process at each step; see
``tests/core/test_checkpoint_crash.py``.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from repro.constants import PAGE_SIZE
from repro.core.engine import CubetreeEngine
from repro.core.sharded import Shard, ShardedForest
from repro.core.mapping import CubetreeAllocation, TreeAssignment
from repro.errors import ReproError
from repro.relational.executor import AggFunc, AggSpec
from repro.relational.view import ViewDefinition
from repro.storage.disk import DiskManager
from repro.storage.wal import CrashPoint
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import Dimension, StarSchema

META_NAME = "meta.json"
PAGES_NAME = "pages.bin"
CHECKSUMS_NAME = "pages.crc"
MANIFEST_NAME = "MANIFEST.json"
#: Per-shard catalog inside a generation's ``shard-XX/``.
SHARD_META_NAME = "shard.json"
#: Current checkpoint format.  v4 stores only the allocated pages in
#: each page dump; v3 admitted columnar (type-3) leaf pages; the catalog
#: layout is unchanged since v2 (see SUPPORTED_FORMAT_VERSIONS).
FORMAT_VERSION = 4
#: Checkpoint format versions this build can load.  v2 images contain
#: only row-major leaves, which every reader still decodes; v2 and v3
#: dumps also hold the freed ids' blocks.
SUPPORTED_FORMAT_VERSIONS = (2, 3, 4)
#: ``layout`` value in every generation's manifest and catalog; only the
#: single-tree generations written before PR 23 lack the key.
LAYOUT_SHARDED = "sharded"
#: Committed generations kept after a successful save (>= 1).
DEFAULT_RETAIN = 2

_GENERATION_RE = re.compile(r"^gen-(\d{6,})$")


def _shard_dir_name(index: int) -> str:
    return f"shard-{index:02d}"


def _stores_freed(format_version: int) -> bool:
    """Whether a generation's page dumps hold a block for every page id,
    freed ones included (formats before v4), rather than only the
    allocated pages."""
    return int(format_version) < 4


class _ShardCrashPoint:
    """Prefixes crash contexts with the shard, so recovery tests can
    target (and reports can attribute) a specific shard's write sites."""

    def __init__(self, inner: CrashPoint, index: int) -> None:
        self._inner = inner
        self._prefix = f"shard {index} "

    def hit(self, context: str = "") -> None:
        self._inner.hit(self._prefix + context)


class PersistenceError(ReproError):
    """A saved database is missing, incomplete, or version-incompatible."""


class CorruptCheckpointError(PersistenceError):
    """A committed generation failed checksum or size validation."""


# ----------------------------------------------------------------------
# serialization helpers (canonical: sorted keys, explicit value types)
# ----------------------------------------------------------------------
def _view_to_json(view: ViewDefinition) -> dict:
    return {
        "name": str(view.name),
        "group_by": [str(attr) for attr in view.group_by],
        "aggregates": [
            {"func": str(spec.func.value), "attribute": str(spec.attribute)}
            for spec in view.aggregates
        ],
    }


def _view_from_json(payload: dict) -> ViewDefinition:
    aggregates = tuple(
        AggSpec(AggFunc(item["func"]), item["attribute"])
        for item in payload["aggregates"]
    )
    return ViewDefinition(
        payload["name"], tuple(payload["group_by"]), aggregates=aggregates
    )


def _schema_to_json(schema: StarSchema) -> dict:
    return {
        "fact_keys": [str(key) for key in schema.fact_keys],
        "measure": str(schema.measure),
        "dimensions": {
            str(fact_key): {
                "name": str(dim.name),
                "key": str(dim.key),
                "attributes": [str(attr) for attr in dim.attributes],
                "rows": [list(row) for row in dim.rows],
            }
            for fact_key, dim in schema.dimensions.items()
        },
    }


def _schema_from_json(payload: dict) -> StarSchema:
    dimensions = {
        fact_key: Dimension(
            item["name"],
            item["key"],
            tuple(item["attributes"]),
            [tuple(row) for row in item["rows"]],
        )
        for fact_key, item in payload["dimensions"].items()
    }
    return StarSchema(
        tuple(payload["fact_keys"]), payload["measure"], dimensions
    )


def _tree_state(tree) -> dict:
    return {
        "root_page_id": int(tree.tree.root_page_id),
        "height": int(tree.tree.height),
        "count": int(tree.tree.count),
        "leaf_page_ids": [int(p) for p in tree.tree.leaf_page_ids],
        "owned_page_ids": [int(p) for p in tree.tree.owned_page_ids],
        # Per-view packed leaf-run extents (JSON forces string keys;
        # restore re-ints them).  Checkpoints written before this field
        # existed simply lack the key and restore with no extents.
        "view_extents": {
            str(view_id): [int(first), int(last)]
            for view_id, (first, last) in sorted(
                tree.tree.view_extents.items()
            )
        },
    }


def _meta_bytes(meta: dict) -> bytes:
    """Canonical encoding: compact, sorted keys, trailing NL.

    No ``indent``: it forces the pure-Python encoder, and whitespace was
    three fifths of a catalog.
    """
    return (
        json.dumps(
            meta, separators=(",", ":"), sort_keys=True, ensure_ascii=True
        )
        + "\n"
    ).encode("ascii")


# ----------------------------------------------------------------------
# generation bookkeeping
# ----------------------------------------------------------------------
def list_generations(directory: str) -> List[Tuple[int, str, bool]]:
    """Every on-disk generation: ``(number, path, committed)`` ascending.

    The serving layer uses this to map generation numbers to directories
    and to distinguish committed generations (manifest present) from the
    crash debris recovery ignores.
    """
    found: List[Tuple[int, str, bool]] = []
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return found
    for entry in entries:
        match = _GENERATION_RE.match(entry)
        if match:
            path = os.path.join(directory, entry)
            committed = os.path.exists(os.path.join(path, MANIFEST_NAME))
            found.append((int(match.group(1)), path, committed))
    found.sort()
    return found


def newest_committed_number(directory: str) -> Optional[int]:
    """Number of the newest manifest-complete generation (None if none).

    This is the database's visible version: a publish that crashed after
    its manifest rename still moved this number forward, and the serving
    layer's refresh recovery keys off exactly that."""
    committed = [
        number for number, _path, ok in list_generations(directory) if ok
    ]
    return committed[-1] if committed else None


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: str) -> None:
    """Durably record directory entries (rename/create) — best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def _crash_hit(crash_point: Optional[CrashPoint], context: str) -> None:
    if crash_point is not None:
        crash_point.hit(context)


def _write_file(
    path: str,
    payload: bytes,
    crash_point: Optional[CrashPoint],
    context: str,
) -> dict:
    """One checkpoint write site: crash hook, write, fsync.

    Returns the file's manifest record (size + CRC32 of the payload)."""
    _crash_hit(crash_point, context)
    with open(path, "wb") as handle:
        handle.write(payload)
        _fsync_file(handle)
    return {"bytes": len(payload), "crc32": zlib.crc32(payload)}


@dataclass(frozen=True)
class _ReadBack:
    """One pass over a page dump: the CRC32 of every whole page, the
    CRC32 of the whole file, and the length of a trailing partial page
    (0 when the dump ends on a page boundary)."""

    page_crcs: List[int]
    file_crc: int
    tail: int


def _read_back(pages_path: str) -> _ReadBack:
    """Read a page dump back from disk once, checksumming as it goes.

    Read-back (rather than checksumming in-memory buffers) means the
    recorded checksums cover exactly the bytes a later reopen will see.
    """
    crcs: List[int] = []
    crc = 0
    with open(pages_path, "rb") as handle:
        while raw := handle.read(PAGE_SIZE):
            crc = zlib.crc32(raw, crc)
            if len(raw) < PAGE_SIZE:
                return _ReadBack(crcs, crc, len(raw))
            crcs.append(zlib.crc32(raw))
    return _ReadBack(crcs, crc, 0)


def _file_crc(path: str) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 16)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc


# ----------------------------------------------------------------------
# saving (one manifest rename commits every shard atomically)
# ----------------------------------------------------------------------
def _catalog(engine: CubetreeEngine, forest: ShardedForest) -> dict:
    """The global catalog (shared across shards), normalized so
    serialization is deterministic."""
    return {
        "format_version": FORMAT_VERSION,
        "layout": LAYOUT_SHARDED,
        "num_shards": int(engine.num_shards),
        "schema": _schema_to_json(engine.schema),
        "hierarchies": sorted(
            (
                {
                    "attribute": str(attr),
                    "fact_key": str(source),
                    "dim_attribute": str(hierarchy.attribute),
                }
                for attr, (hierarchy, source) in engine.hierarchies.items()
            ),
            key=lambda item: item["attribute"],
        ),
        "base_views": [_view_to_json(v) for v in engine.base_views],
        "replicas": {
            str(replica): str(base)
            for replica, base in engine.replicas.items()
        },
        "allocation": [
            {
                "dims": int(assignment.dims),
                "views": [_view_to_json(v) for v in assignment.views],
            }
            for assignment in forest.allocation.trees
        ],
        "sizes": {
            str(name): int(size)
            for name, size in forest.view_sizes().items()
        },
        "buffer_pages": int(engine.pool.capacity),
    }


def _shard_catalog(shard: Shard) -> dict:
    """One shard's private catalog: tree states, sizes, allocator."""
    forest = shard.require_forest()
    allocator = shard.disk.allocation_state()
    return {
        "format_version": FORMAT_VERSION,
        "shard": int(shard.index),
        "trees": [_tree_state(tree) for tree in forest.cubetrees],
        "sizes": {
            str(name): int(size)
            for name, size in forest.view_sizes().items()
        },
        "disk": {
            "next_page_id": int(allocator["next_page_id"]),
            "freed": [int(p) for p in allocator["freed"]],
        },
    }


def save_database(
    engine: CubetreeEngine,
    directory: str,
    crash_point: Optional[CrashPoint] = None,
    retain: int = DEFAULT_RETAIN,
    protect: Collection[int] = (),
) -> str:
    """Checkpoint a loaded engine into a new generation.

    Layout: ``gen-<n>/shard-XX/{pages.bin,pages.crc,shard.json}`` per
    shard plus one top-level ``meta.json`` (global catalog) and ONE
    ``MANIFEST.json`` listing every shard file — the single atomic
    manifest rename commits all shards together, so a crash anywhere
    mid-checkpoint leaves *every* shard on the previous generation (the
    all-or-nothing property the serving layer's publish depends on).
    Returns the committed generation directory.

    ``crash_point`` defaults to the first hook found on a shard disk, so
    a test that armed ``engine.disk.crash_point`` kills the checkpoint
    the same way it kills a merge-pack; per-shard write sites hit it with
    contexts prefixed ``shard <i> ``, the commit-level sites without.
    ``retain`` committed generations are kept; older ones (and any
    uncommitted partials) are pruned only after the new manifest is in
    place, so a crash at any point keeps the last committed generation
    reopenable.  Generation numbers in ``protect`` are never pruned
    regardless of ``retain`` — the serving layer passes the set of
    reader-pinned generations so a snapshot someone is still reading
    from keeps its files.
    """
    forest = engine.forest
    if forest is None:
        raise PersistenceError("engine has no materialized views to save")
    if retain < 1:
        raise ValueError("retain must be >= 1")
    if crash_point is None:
        hooks = (shard.disk.crash_point for shard in engine.shards)
        crash_point = next((hook for hook in hooks if hook is not None), None)

    os.makedirs(directory, exist_ok=True)
    forest.flush()

    generations = list_generations(directory)
    number = (generations[-1][0] + 1) if generations else 1
    gen_path = os.path.join(directory, f"gen-{number:06d}")
    os.makedirs(gen_path)

    files: Dict[str, dict] = {}
    shard_entries: List[dict] = []
    for shard in engine.shards:
        sub = _shard_dir_name(shard.index)
        shard_path = os.path.join(gen_path, sub)
        os.makedirs(shard_path)
        shard_hook = (
            _ShardCrashPoint(crash_point, shard.index)
            if crash_point is not None
            else None
        )

        # 1. the shard's page dump (one crash site per stored page)
        pages_path = os.path.join(shard_path, PAGES_NAME)
        shard.disk.dump_pages(pages_path, crash_point=shard_hook)

        # 2. per-page and whole-file checksums, in one read-back of the
        #    dump just written
        dump = _read_back(pages_path)
        if dump.tail:
            raise PersistenceError(
                f"page dump {pages_path!r} ends mid-page "
                f"({dump.tail} trailing bytes)"
            )
        page_crcs = dump.page_crcs
        files[f"{sub}/{PAGES_NAME}"] = {
            "bytes": len(page_crcs) * PAGE_SIZE,
            "crc32": dump.file_crc,
        }
        files[f"{sub}/{CHECKSUMS_NAME}"] = _write_file(
            os.path.join(shard_path, CHECKSUMS_NAME),
            b"".join(crc.to_bytes(4, "little") for crc in page_crcs),
            shard_hook,
            "checkpoint page checksums",
        )

        # 3. the shard catalog
        files[f"{sub}/{SHARD_META_NAME}"] = _write_file(
            os.path.join(shard_path, SHARD_META_NAME),
            _meta_bytes(_shard_catalog(shard)),
            shard_hook,
            "checkpoint catalog",
        )
        shard_entries.append({"dir": sub, "page_count": len(page_crcs)})

    # 4. the global catalog
    files[META_NAME] = _write_file(
        os.path.join(gen_path, META_NAME),
        _meta_bytes(_catalog(engine, forest)),
        crash_point,
        "checkpoint catalog",
    )

    # 5. the commit record: ONE manifest rename commits every shard
    manifest = {
        "format_version": FORMAT_VERSION,
        "layout": LAYOUT_SHARDED,
        "generation": number,
        "num_shards": int(engine.num_shards),
        "page_count": sum(entry["page_count"] for entry in shard_entries),
        "shards": shard_entries,
        "files": files,
    }
    manifest_tmp = os.path.join(gen_path, MANIFEST_NAME + ".tmp")
    manifest_path = os.path.join(gen_path, MANIFEST_NAME)
    _write_file(
        manifest_tmp,
        _meta_bytes(manifest),
        crash_point,
        "checkpoint manifest write",
    )
    _crash_hit(crash_point, "checkpoint manifest commit")
    os.rename(manifest_tmp, manifest_path)
    _fsync_dir(gen_path)
    _fsync_dir(directory)

    # 6. only now retire older generations (and stale partials)
    _crash_hit(crash_point, "checkpoint prune")
    _prune(directory, keep_newest=number, retain=retain, protect=protect)
    return gen_path


# ----------------------------------------------------------------------
# pruning
# ----------------------------------------------------------------------
def _prune(
    directory: str,
    keep_newest: int,
    retain: int,
    protect: Collection[int] = (),
) -> None:
    """Remove uncommitted partials and committed gens beyond ``retain``.

    Numbers in ``protect`` (committed generations still pinned by a
    reader) are kept no matter how old they are; uncommitted partials are
    never protectable — nothing can pin crash debris.
    """
    import shutil

    generations = list_generations(directory)
    committed = [number for number, _path, ok in generations if ok]
    keep = set(committed[-retain:]) | {keep_newest}
    keep.update(set(protect).intersection(committed))
    for number, path, _ok in generations:
        if number not in keep:
            shutil.rmtree(path, ignore_errors=True)


def prune_generations(
    directory: str,
    retain: int = DEFAULT_RETAIN,
    protect: Collection[int] = (),
    crash_point: Optional[CrashPoint] = None,
) -> None:
    """Retire prunable generations of a saved database.

    The standalone companion to the prune step of :func:`save_database`:
    keeps the newest ``retain`` committed generations plus every number
    in ``protect`` (reader-pinned snapshots), removes everything else —
    including uncommitted partials left by crashes.  No-op when the
    directory holds no committed generation (there is nothing safe to
    judge "older than").
    """
    if retain < 1:
        raise ValueError("retain must be >= 1")
    newest = newest_committed_number(directory)
    if newest is None:
        return
    _crash_hit(crash_point, "checkpoint prune")
    _prune(directory, keep_newest=newest, retain=retain, protect=protect)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
@dataclass
class CheckpointReport:
    """Result of validating a saved database's committed generations."""

    directory: str
    generation: Optional[int] = None
    pages_checked: int = 0
    files_checked: int = 0
    partial_generations: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every committed generation validated cleanly."""
        return not self.problems

    def format(self) -> str:
        """Human-readable multi-line summary."""
        head = (
            f"checkpoint {self.directory}: "
            + (
                f"generation {self.generation}, "
                if self.generation is not None
                else ""
            )
            + f"{self.files_checked} file(s), {self.pages_checked} page(s) "
            f"checked: {len(self.problems)} problem(s)"
        )
        lines = [head]
        lines.extend(f"  [corrupt] {problem}" for problem in self.problems)
        lines.extend(
            f"  [partial] discarded uncommitted generation {name}"
            for name in self.partial_generations
        )
        return "\n".join(lines)


def _committed(directory: str) -> Tuple[List[str], List[str]]:
    """Manifest-complete generation paths, oldest first, and the names
    of the partial (manifest-less) ones."""
    committed: List[str] = []
    partials: List[str] = []
    for _number, path, is_committed in list_generations(directory):
        if is_committed:
            committed.append(path)
        else:
            partials.append(os.path.basename(path))
    return committed, partials


def _read_manifest(gen_path: str) -> dict:
    manifest_path = os.path.join(gen_path, MANIFEST_NAME)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorruptCheckpointError(
            f"unreadable manifest in {gen_path!r}: {exc}"
        ) from exc
    if manifest.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise PersistenceError(
            f"unsupported checkpoint format version "
            f"{manifest.get('format_version')!r} in {gen_path!r}"
        )
    return manifest


def _validate_pages(
    gen_path: str,
    rel_dir: str,
    page_count: Optional[int],
    disk_state: Optional[dict],
    with_freed: bool,
    report: CheckpointReport,
    read_backs: Dict[str, _ReadBack],
) -> None:
    """Per-page CRC pass: every stored page of a dump against its sidecar.

    The shard catalog's allocator state (``disk_state``) fixes which
    page ids the dump stores — the allocated ones, or every id below
    ``next_page_id`` when ``with_freed`` (formats before v4) — and so
    the exact sizes of ``pages.bin`` (a ``PAGE_SIZE`` block per stored
    page) and ``pages.crc`` (4 bytes per stored page), and the
    manifest's ``page_count``.  ``rel_dir`` is ``shard-XX`` for one
    shard of a generation (``""`` for a pre-PR-23 single-tree
    generation, whose dump sits directly in the generation directory);
    problem messages carry the relative path, so a report names the
    failing shard, and the page id, so it names the failing page.  The
    page CRCs come from ``read_backs`` when the manifest pass already
    read the dump.
    """
    base = os.path.join(gen_path, rel_dir) if rel_dir else gen_path
    prefix = f"{rel_dir}/" if rel_dir else ""
    pages_path = os.path.join(base, PAGES_NAME)
    crc_path = os.path.join(base, CHECKSUMS_NAME)
    if not (os.path.exists(pages_path) and os.path.exists(crc_path)):
        return
    try:
        stored = DiskManager.stored_page_ids(disk_state, with_freed)
    except (KeyError, TypeError, ValueError):
        report.problems.append(
            f"{prefix}{PAGES_NAME}: the catalog has no readable allocator "
            f"state"
        )
        return
    if page_count is not None and int(page_count) != len(stored):
        report.problems.append(
            f"{prefix}{PAGES_NAME}: manifest records {page_count} pages, "
            f"the allocator state stores {len(stored)}"
        )
    with open(crc_path, "rb") as handle:
        raw = handle.read()
    if len(raw) != 4 * len(stored):
        report.problems.append(
            f"{prefix}{CHECKSUMS_NAME}: {len(raw)} bytes, the allocator "
            f"state needs 4 per stored page ({4 * len(stored)})"
        )
    recorded = [
        int.from_bytes(raw[i : i + 4], "little")
        for i in range(0, len(raw) - 3, 4)
    ]
    actual_bytes = os.path.getsize(pages_path)
    if actual_bytes != len(stored) * PAGE_SIZE:
        report.problems.append(
            f"{prefix}{PAGES_NAME}: holds {actual_bytes} bytes, the "
            f"allocator state needs exactly {len(stored)} pages "
            f"({len(stored) * PAGE_SIZE} bytes)"
        )
    dump = read_backs.get(pages_path) or _read_back(pages_path)
    page_crcs = dump.page_crcs
    # Past the dump's last whole page the size problem above names it.
    for index, page_id in enumerate(stored[: len(page_crcs)]):
        report.pages_checked += 1
        if index < len(recorded) and page_crcs[index] != recorded[index]:
            report.problems.append(
                f"{prefix}{PAGES_NAME}: page {page_id} fails its CRC32"
            )


def _read_catalog(
    gen_path: str, name: str, report: CheckpointReport
) -> Optional[dict]:
    """A generation's catalog file, or None (and a problem) if unreadable."""
    try:
        with open(os.path.join(gen_path, name)) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        report.problems.append(f"{name}: unreadable catalog ({exc})")
        return None


def _validate_generation(
    gen_path: str, report: CheckpointReport
) -> Tuple[dict, List[Tuple[str, dict]]]:
    """Verify a committed generation against its manifest.

    Returns the manifest and ``(page dump path, shard catalog)`` per
    shard, in shard order.  The read-only adapter for single-tree
    generations written before PR 23 lives here: their manifest has no
    ``layout`` key, their one ``pages.bin`` sits directly in
    ``gen-<n>/``, and their ``meta.json`` carries the shard-catalog keys
    (``trees``, ``sizes``, ``disk``) beside the global ones — so the
    generation directory *is* shard 0.  Nothing is rewritten; the next
    :func:`save_database` migrates it.
    """
    manifest = _read_manifest(gen_path)
    with_freed = _stores_freed(manifest["format_version"])
    files = manifest.get("files", {})
    # Each page dump is read once: its whole-file CRC here, its per-page
    # CRCs in _validate_pages.
    read_backs: Dict[str, _ReadBack] = {}
    for name, expected in sorted(files.items()):
        path = os.path.join(gen_path, name)
        if not os.path.exists(path):
            report.problems.append(f"{name}: listed in manifest but missing")
            continue
        report.files_checked += 1
        actual_bytes = os.path.getsize(path)
        if actual_bytes != int(expected["bytes"]):
            report.problems.append(
                f"{name}: {actual_bytes} bytes on disk, manifest records "
                f"{expected['bytes']}"
            )
            continue
        if os.path.basename(name) == PAGES_NAME:
            read_backs[path] = _read_back(path)
            crc = read_backs[path].file_crc
        else:
            crc = _file_crc(path)
        if crc != int(expected["crc32"]):
            report.problems.append(
                f"{name}: CRC32 mismatch against the manifest"
            )

    catalogs: List[Tuple[str, dict]] = []
    if manifest.get("layout") == LAYOUT_SHARDED:
        # Manifest completeness: every shard directory 0..N-1 must be
        # listed, and each must contribute its full file triple — one
        # missing shard means the commit would resurrect a torn forest.
        shard_entries = manifest.get("shards", [])
        num_shards = int(manifest.get("num_shards", len(shard_entries)))
        listed = {str(entry.get("dir")): entry for entry in shard_entries}
        for index in range(num_shards):
            sub = _shard_dir_name(index)
            entry = listed.get(sub)
            if entry is None:
                report.problems.append(
                    f"{sub}: shard directory missing from the manifest"
                )
                continue
            for name in (PAGES_NAME, CHECKSUMS_NAME, SHARD_META_NAME):
                if f"{sub}/{name}" not in files:
                    report.problems.append(
                        f"{sub}/{name}: not covered by the manifest"
                    )
            shard_meta = _read_catalog(
                gen_path, f"{sub}/{SHARD_META_NAME}", report
            )
            if shard_meta is None:
                continue
            _validate_pages(
                gen_path, sub, entry.get("page_count"),
                shard_meta.get("disk"), with_freed, report, read_backs,
            )
            catalogs.append(
                (os.path.join(gen_path, sub, PAGES_NAME), shard_meta)
            )
        if META_NAME not in files:
            report.problems.append(
                f"{META_NAME}: not covered by the manifest"
            )
    else:
        # Pre-PR-23 single-tree generation: one dump, directly in gen-<n>/.
        meta = _read_catalog(gen_path, META_NAME, report)
        if meta is not None:
            _validate_pages(
                gen_path, "", manifest.get("page_count"), meta.get("disk"),
                with_freed, report, read_backs,
            )
            catalogs.append((os.path.join(gen_path, PAGES_NAME), meta))
    return manifest, catalogs


def _no_generation_error(directory: str) -> PersistenceError:
    """Why ``directory`` holds nothing this release can open."""
    if all(
        os.path.exists(os.path.join(directory, name))
        for name in (META_NAME, PAGES_NAME)
    ):
        return PersistenceError(
            f"{directory!r} holds a v1 flat layout ({META_NAME} + "
            f"{PAGES_NAME}, no generations), which is no longer read; "
            f"re-save it with a release up to PR 21 to migrate it to the "
            f"generational format"
        )
    return PersistenceError(
        f"no committed generation found in {directory!r}"
    )


def verify_checkpoint(directory: str) -> CheckpointReport:
    """Checksum-validate every committed generation of a database: the
    newest (:attr:`CheckpointReport.generation`) and the older ones
    ``retain`` and reader pins keep.  Each problem names its generation.

    Partial (manifest-less) generations are reported but are not
    problems — they are exactly what a crash leaves behind and recovery
    discards them.  A directory with no committed generation (a v1
    flat-layout database included) yields a problem entry.
    """
    report = CheckpointReport(directory=directory)
    committed, report.partial_generations = _committed(directory)
    if not committed:
        report.problems.append(str(_no_generation_error(directory)))
        return report
    for path in committed:
        found = len(report.problems)
        try:
            manifest, _catalogs = _validate_generation(path, report)
            if path == committed[-1]:
                report.generation = int(manifest["generation"])
        except PersistenceError as exc:
            report.problems.append(str(exc))
        name = os.path.basename(path)
        report.problems[found:] = [
            f"{name}/{problem}" for problem in report.problems[found:]
        ]
    return report


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def _allocation_from_json(assignments: List[dict]) -> CubetreeAllocation:
    trees: List[TreeAssignment] = []
    for assignment in assignments:
        trees.append(
            TreeAssignment(
                int(assignment["dims"]),
                tuple(_view_from_json(v) for v in assignment["views"]),
            )
        )
    return CubetreeAllocation(trees=trees)


def load_any_engine(directory: str) -> CubetreeEngine:
    """Reopen a database saved by :func:`save_database`.

    Recovery rule: the newest generation whose ``MANIFEST.json`` exists is
    the database; generations without a manifest are crash debris and are
    ignored.  Every file of the chosen generation is checksum-verified
    before a single page is trusted — a torn or bit-flipped checkpoint
    raises :class:`CorruptCheckpointError` instead of silently loading —
    then each shard's disk, forest, and sizes are restored from its
    files.
    """
    committed, _partials = _committed(directory)
    if not committed:
        raise _no_generation_error(directory)
    newest = committed[-1]
    report = CheckpointReport(directory=directory)
    manifest, shard_files = _validate_generation(newest, report)
    if not report.ok:
        raise CorruptCheckpointError(
            f"checkpoint {newest!r} failed validation:\n"
            + "\n".join(f"  {problem}" for problem in report.problems)
        )

    with open(os.path.join(newest, META_NAME)) as handle:
        meta = json.load(handle)
    if meta.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise PersistenceError(
            f"unsupported format version {meta.get('format_version')!r} "
            f"(expected one of {SUPPORTED_FORMAT_VERSIONS})"
        )

    schema = _schema_from_json(meta["schema"])
    hierarchies: Dict[str, Hierarchy] = {}
    for item in meta["hierarchies"]:
        dim = schema.dimension_of(item["fact_key"])
        hierarchies[item["attribute"]] = Hierarchy.from_dimension(
            dim, item["dim_attribute"]
        )

    # Sizes were validated above against the same allocator states.
    with_freed = _stores_freed(manifest["format_version"])
    disks = [
        DiskManager.restore(
            pages_path, shard_meta["disk"], with_freed=with_freed
        )
        for pages_path, shard_meta in shard_files
    ]

    engine = CubetreeEngine(
        schema,
        hierarchies=hierarchies,
        buffer_pages=int(meta.get("buffer_pages", 256)),
        shards=len(disks),
        disks=disks,
    )
    engine.base_views = [_view_from_json(v) for v in meta["base_views"]]
    engine.replicas = {
        str(replica): str(base)
        for replica, base in meta["replicas"].items()
    }
    engine.forest = ShardedForest(
        engine.shards, _allocation_from_json(meta["allocation"])
    )
    for shard, (_pages_path, shard_meta) in zip(engine.shards, shard_files):
        forest = shard.require_forest()
        try:
            forest.restore_tree_states(shard_meta["trees"])
            forest.set_view_sizes(
                {name: int(size) for name, size in shard_meta["sizes"].items()}
            )
        except ValueError as exc:
            raise PersistenceError(f"catalog mismatch: {exc}") from exc
    return engine
