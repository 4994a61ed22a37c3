"""Shared fixtures for the benchmark suite.

Engines are expensive to build, so query-side benches share one loaded
pair per session; load/update benches build their own fresh instances
(they time construction or mutate state).

Scale is set by ``--scale`` (default 0.01 = ~60k fact rows) and query
counts by ``--queries`` (default 100 per view, as in the paper), e.g.
``pytest benchmarks --scale 0.002 --queries 20``.
"""

from dataclasses import replace

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


def pytest_addoption(parser):
    group = parser.getgroup("repro benchmarks")
    group.addoption(
        "--scale", type=float, default=None,
        help="TPC-D scale factor (default: ExperimentConfig's 0.01)",
    )
    group.addoption(
        "--queries", type=int, default=None,
        help="queries per lattice node (default: ExperimentConfig's 100)",
    )


@pytest.fixture(scope="session")
def config(pytestconfig):
    config = ExperimentConfig()
    scale = pytestconfig.getoption("--scale")
    if scale is not None:
        config = replace(config, scale_factor=scale)
    queries = pytestconfig.getoption("--queries")
    if queries is not None:
        config = replace(config, queries_per_node=queries)
    return config


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
