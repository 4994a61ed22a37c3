"""One typed, frozen configuration: every ``REPRO_*`` knob in one place.

:class:`Settings` has one field per environment variable the library
honours; field ``name`` is read from ``REPRO_<NAME>``.
:meth:`Settings.from_env` is the only code in the package that reads the
process environment, and it applies one parse rule per type:

* booleans accept ``1/true/yes/on`` and ``0/false/no/off``, in any case;
* enumerations accept only their listed values.

An unset or empty variable keeps the field's default; anything else
raises :class:`~repro.errors.ConfigError` naming the variable and the
value.  The process-wide instance is :func:`current` (parsed from
``os.environ`` on first use) and the only way to change it is the
:func:`override` context manager — tests, benches, and the experiments
that pin paper-era row leaves.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.errors import ConfigError

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")
_BOOLEAN = "/".join(_TRUE) + " or " + "/".join(_FALSE)


def _boolean(raw: str) -> bool:
    word = raw.lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(word)
    return word in _TRUE


def _is_bool(value: object) -> bool:
    return isinstance(value, bool)


def _knob(
    default: Any,
    parse: Callable[[str], Any],
    valid: Callable[[Any], bool],
    accepts: str,
) -> Any:
    """A field: default, env-string parser, value check, and the
    accepted-values text used in error messages."""
    return field(
        default=default,
        metadata={"parse": parse, "valid": valid, "accepts": accepts},
    )


def env_name(field_name: str) -> str:
    """The environment variable behind a :class:`Settings` field."""
    return "REPRO_" + field_name.upper()


@dataclass(frozen=True)
class Settings:
    """Every process-wide knob, parsed and validated once."""

    #: Leaf layout newly packed trees use (type 3 columnar or type 1 row).
    leaf_format: str = _knob(
        "columnar", str.lower, ("row", "columnar").__contains__, "row or columnar"
    )
    #: Self-verify (fsck) after bulk load and merge-pack.
    debug_checks: bool = _knob(False, _boolean, _is_bool, _BOOLEAN)
    #: Record span timings into the metrics registry.
    trace: bool = _knob(False, _boolean, _is_bool, _BOOLEAN)

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not spec.metadata["valid"](value):
                raise ConfigError(
                    f"{env_name(spec.name)}={value!r}: expected "
                    f"{spec.metadata['accepts']}"
                )

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "Settings":
        """Parse every ``REPRO_*`` knob out of ``environ``."""
        values = {}
        for spec in fields(cls):
            name = env_name(spec.name)
            raw = environ.get(name, "").strip()
            if not raw:
                continue
            try:
                values[spec.name] = spec.metadata["parse"](raw)
            except ValueError:
                raise ConfigError(
                    f"{name}={raw!r}: expected {spec.metadata['accepts']}"
                ) from None
        return cls(**values)


_active: Optional[Settings] = None  # repro: worker-local


def current() -> Settings:
    """The process-wide settings (parsed from ``os.environ`` on first
    use)."""
    global _active
    if _active is None:
        _active = Settings.from_env(os.environ)
    return _active


@contextmanager
def override(**changes: Any) -> Iterator[Settings]:
    """Replace fields of :func:`current` for the ``with`` block; the
    replacement is validated like a parse (:class:`ConfigError`)."""
    global _active
    before = current()
    _active = replace(before, **changes)
    try:
        yield _active
    finally:
        _active = before
