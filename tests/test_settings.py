"""The one configuration object: parse rules, defaults, overrides, docs.

Every ``REPRO_*`` knob is a :class:`repro.settings.Settings` field.  These
tests pin the parse rule of each field (booleans take the documented on
and off spellings, malformed values raise :class:`ConfigError` naming the
variable), the defaults an empty environment yields, the ``override``
context manager, the CLI's handling of a bad value, and the README knob
table, which must list exactly the fields.
"""

import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.settings import Settings, current, env_name, override

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Today's defaults, spelled out so a changed default is a visible diff.
DEFAULTS = {
    "leaf_format": "columnar",
    "debug_checks": False,
    "trace": False,
}

BOOLEAN_FIELDS = [
    spec.name for spec in fields(Settings) if isinstance(spec.default, bool)
]

#: One malformed value per field.
MALFORMED = {
    "leaf_format": "rows",
    "debug_checks": "enabled",
    "trace": "offf",
}

def child_env(**extra):
    """This process's environment without REPRO_* knobs, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.update(extra)
    return env


def run_python(code, **env):
    return subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(**env),
        capture_output=True,
        text=True,
        timeout=120,
    )


# ----------------------------------------------------------------------
# parse rules
# ----------------------------------------------------------------------
def test_settings_has_exactly_the_three_knobs():
    assert [spec.name for spec in fields(Settings)] == list(DEFAULTS)
    assert set(MALFORMED) == set(DEFAULTS)


def test_empty_environment_gives_the_defaults():
    parsed = Settings.from_env({})
    assert {name: getattr(parsed, name) for name in DEFAULTS} == DEFAULTS
    assert Settings() == parsed
    # An empty or blank variable counts as unset.
    blank = {env_name(name): "  " for name in DEFAULTS}
    assert Settings.from_env(blank) == parsed


@pytest.mark.parametrize("name", BOOLEAN_FIELDS)
@pytest.mark.parametrize("raw", ["off", "OFF", "0", "false", "no", "No"])
def test_off_spellings_turn_booleans_off(name, raw):
    assert getattr(Settings.from_env({env_name(name): raw}), name) is False


@pytest.mark.parametrize("name", BOOLEAN_FIELDS)
@pytest.mark.parametrize("raw", ["on", "ON", "1", "true", "Yes"])
def test_on_spellings_turn_booleans_on(name, raw):
    assert getattr(Settings.from_env({env_name(name): raw}), name) is True


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_value_raises_config_error_naming_the_variable(name):
    raw = MALFORMED[name]
    with pytest.raises(ConfigError) as excinfo:
        Settings.from_env({env_name(name): raw})
    assert env_name(name) in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


def test_typed_values_parse():
    parsed = Settings.from_env(
        {
            "REPRO_LEAF_FORMAT": " ROW ",
            "REPRO_TRACE": " On ",
        }
    )
    assert parsed.leaf_format == "row"
    assert parsed.trace is True


def test_config_error_is_a_repro_error():
    from repro.errors import ReproError

    assert issubclass(ConfigError, ReproError)


# ----------------------------------------------------------------------
# the one override
# ----------------------------------------------------------------------
def test_override_replaces_and_restores():
    before = current()
    with override(leaf_format="row", trace=True) as active:
        assert current() is active
        assert (active.leaf_format, active.trace) == ("row", True)
        assert active.debug_checks == before.debug_checks
    assert current() is before


def test_override_restores_after_an_exception():
    before = current()
    with pytest.raises(RuntimeError):
        with override(leaf_format="row"):
            raise RuntimeError("boom")
    assert current() is before


def test_override_validates_and_rejects_unknown_fields():
    before = current()
    with pytest.raises(ConfigError, match="REPRO_LEAF_FORMAT"):
        with override(leaf_format="rows"):
            pass
    with pytest.raises(TypeError):
        with override(no_such_knob=1):
            pass
    assert current() is before


# ----------------------------------------------------------------------
# the process environment, end to end
# ----------------------------------------------------------------------
def test_repro_trace_off_leaves_tracing_disabled():
    probe = run_python(
        "from repro.obs import trace\n"
        "from repro.obs.trace import _NOOP\n"
        "print(trace('probe') is _NOOP)",
        REPRO_TRACE="off",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "True"


@pytest.mark.parametrize("raw,runs", [("off", False), ("on", True)])
def test_repro_debug_checks_off_runs_no_fsck(raw, runs):
    """The post-build fsck imports the verifier only when it runs."""
    probe = run_python(
        "import sys\n"
        "from repro.core.cubetree import Cubetree\n"
        "from repro.relational.view import ViewDefinition\n"
        "from repro.storage.buffer import BufferPool\n"
        "from repro.storage.disk import DiskManager\n"
        "cube = Cubetree(BufferPool(DiskManager()), 2,\n"
        "                [ViewDefinition('V_a', ('a',))])\n"
        "cube.build({'V_a': [(1, 1.0), (2, 2.0)]})\n"
        "print('repro.analysis.fsck' in sys.modules)",
        REPRO_DEBUG_CHECKS=raw,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == str(runs)


@pytest.mark.parametrize(
    "variable,raw",
    [("REPRO_DEBUG_CHECKS", "abc"), ("REPRO_LEAF_FORMAT", "rows")],
)
def test_cli_bad_value_exits_with_the_message_not_a_traceback(variable, raw):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "info"],
        env=child_env(**{variable: raw}),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert f"{variable}={raw!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# the README knob table cannot drift
# ----------------------------------------------------------------------
def _readme_knob_rows():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index(
        "| field | variable | default | accepted values | effect |"
    )
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _documented_default(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    if value is None:
        return "unset"
    return f"`{value}`"


def test_readme_knob_table_lists_exactly_the_settings_fields():
    rows = _readme_knob_rows()
    assert [re.sub("`", "", row[0]) for row in rows] == [
        spec.name for spec in fields(Settings)
    ]
    for row, spec in zip(rows, fields(Settings)):
        assert row[1] == f"`{env_name(spec.name)}`"
        assert row[2] == _documented_default(spec.default), spec.name
