"""Global constants for the storage substrate and cost model.

The values below parameterize the simulated disk that both storage engines
(the conventional relational engine and the Cubetree engine) share.  They can
be overridden per :class:`repro.storage.iomodel.IOCostModel` instance; the
module-level defaults exist so every experiment uses the same device unless a
bench explicitly varies them.
"""

#: Size of a disk page in bytes.  Every on-disk structure (heap files,
#: B+-trees, Cubetrees) is built out of pages of this size.
PAGE_SIZE = 4096

#: Default number of pages the buffer pool may hold in memory.  The paper's
#: testbed had 32 MB of RAM; 2048 * 4 KiB = 8 MiB keeps the same
#: "buffer is much smaller than the data" regime at our reduced scale.
DEFAULT_BUFFER_PAGES = 2048

#: Pool size of the paper-configuration experiments and of the served
#: database's bootstrap: 256 pages (1 MiB) against a few thousand pages
#: of views, so buffer misses dominate as they did for the paper.
EXPERIMENT_BUFFER_PAGES = 256

#: Simulated cost of a random page access (seek + rotational delay +
#: transfer), in milliseconds.  Late-90s commodity disk (~8 ms average
#: positioning time).
RANDOM_IO_MS = 8.0

#: Simulated cost of a sequential page access (transfer only), in
#: milliseconds: a 4 KiB page at the ~5 MB/s media rate of the paper's
#: era.  The ~10:1 random/sequential ratio is what makes the paper's
#: trade-offs (clustered access vs. scans vs. scattered fetches) land
#: where they did on the original hardware.
SEQUENTIAL_IO_MS = 0.8

#: Per-row-operation overhead (ms) charged on the conventional engine's
#: transactional insert/update path: SQL layer, locking, log-record
#: construction.  A 1998 RDBMS sustained on the order of a few thousand
#: row operations per second on the paper's hardware; the Cubetree
#: Datablade's non-logged bulk operations avoid this cost entirely.
#: 0.2 ms/row (~5000 rows/s) reproduces Table 6's ~16:1 load ratio.
ROW_OP_OVERHEAD_MS = 0.2

#: Per-row storage overhead (bytes) in heap-file slots: the row header a
#: transactional server keeps (row id, null bitmap, transaction info).
#: The packed Cubetree leaves carry no per-row header, which is part of
#: the paper's 51% storage saving.
ROW_HEADER_BYTES = 8

#: Number of bytes used for every integer key / coordinate on disk.
KEY_BYTES = 8

#: Number of bytes used for every aggregate value on disk (float64).
VALUE_BYTES = 8
