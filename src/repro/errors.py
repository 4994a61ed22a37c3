"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InternalError(ReproError):
    """An internal invariant did not hold — a bug in the library itself.

    Used where production code would otherwise reach for ``assert``:
    unlike asserts, these checks survive ``python -O``.
    """


class StorageError(ReproError):
    """Low-level storage failure (bad page id, page overflow, ...)."""


class IntegrityError(StorageError):
    """A structural invariant of an on-disk structure is violated.

    Raised by the :mod:`repro.analysis.fsck` verifier (and by the debug
    post-conditions on bulk load / merge-pack) when a packed tree is not
    in the state the storage format promises.
    """


class PageOverflowError(StorageError):
    """A record or node does not fit in a single page."""


class InvalidRecordError(StorageError):
    """A record does not match the schema it is being encoded against."""


class IndexError_(ReproError):
    """Base class for index (B+-tree / R-tree) errors."""


class DuplicateKeyError(IndexError_):
    """An insert found an existing entry with the same unique key."""


class KeyNotFoundError(IndexError_):
    """A lookup/update targeted a key that is not in the index."""


class SchemaError(ReproError):
    """A table/view definition is inconsistent."""


class CatalogError(ReproError):
    """Unknown or duplicate table/index/view name."""


class InvalidCoordinateError(ReproError):
    """A view tuple mapped to a Cubetree has a non-positive coordinate.

    The valid-mapping transformation pads unused coordinates with zero, so
    real coordinate values must be strictly positive integers (paper,
    Sec. 2.2).
    """


class MappingError(ReproError):
    """A set of views cannot be mapped as requested (e.g. two views of the
    same arity forced into one Cubetree)."""


class QueryError(ReproError):
    """A query references unknown attributes or cannot be routed to any
    materialized view."""


class UnanswerableQueryError(QueryError):
    """No materialized view's attributes cover the query's node — the
    client asked for something the served views cannot answer."""


class SQLError(ReproError):
    """The SQL front end could not tokenize, parse, or bind a statement."""


class InvalidDeltaError(ReproError):
    """A warehouse increment row cannot be merge-packed: wrong width, a
    fact key outside ``[1, 2**63 - 1]`` or not an integer, or a measure
    that is not a finite number.  The whole increment is refused."""


class UpdateTimeoutError(ReproError):
    """An (simulated) update run exceeded its down-time window deadline."""


class ConfigError(ReproError):
    """A ``REPRO_*`` environment variable (or a settings override) holds
    a value its :class:`~repro.settings.Settings` field does not accept."""
