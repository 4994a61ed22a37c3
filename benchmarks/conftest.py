"""Shared fixtures for the benchmark suite.

Engines are expensive to build, so query-side benches share one loaded
pair per session; load/update benches build their own fresh instances
(they time construction or mutate state).

Scale is controlled by ``REPRO_SCALE`` (default 0.01 = ~60k fact rows) and
query counts by ``REPRO_QUERIES`` (default 100 per view, as in the paper).
"""

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    build_conventional_engine,
    build_cubetree_engine,
    build_warehouse,
)
from repro.settings import override


@pytest.fixture(scope="session", autouse=True)
def _paper_leaf_format():
    """The paper's figures describe row leaves: pin them for the session
    (``test_ablation_compression`` sets the columnar variant itself)."""
    with override(leaf_format="row"):
        yield


@pytest.fixture(scope="session")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def warehouse(config):
    gen, data = build_warehouse(config)
    return gen, data


@pytest.fixture(scope="session")
def increment(config, warehouse):
    gen, _data = warehouse
    return gen.generate_increment(config.increment_fraction)


@pytest.fixture(scope="session")
def loaded_cubetree(config, warehouse):
    _gen, data = warehouse
    engine, report = build_cubetree_engine(config, data)
    return engine, report


@pytest.fixture(scope="session")
def loaded_conventional(config, warehouse):
    _gen, data = warehouse
    engine, report = build_conventional_engine(config, data)
    return engine, report
