"""Fast integration tests of the experiment modules at a tiny scale.

The benchmark suite runs the experiments at the reporting scale and
asserts the claim shapes; these tests only verify that each module is
runnable, returns the documented structure, and respects configuration.
"""


import pytest

from repro.experiments import (
    ablations,
    fig12_queries,
    fig13_throughput,
    fig14_scalability,
    storage_breakdown,
    table5_mapping,
    table6_loading,
    table7_updates,
)
from repro.experiments.common import (
    ExperimentConfig,
    fmt_bytes,
    fmt_duration,
    node_label,
    paper_indexes,
    paper_replicas,
    paper_views,
)


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        scale_factor=0.0005, queries_per_node=5, buffer_pages=128
    )


def test_common_paper_sets():
    views = paper_views()
    assert len(views) == 6
    assert {v.name for v in views} == {
        "V_psc", "V_ps", "V_c", "V_s", "V_p", "V_none",
    }
    assert set(paper_indexes()) == {"V_psc"}
    assert len(paper_indexes()["V_psc"]) == 3
    assert len(paper_replicas()["V_psc"]) == 2


def test_fmt_helpers():
    assert fmt_duration(5.0) == "5.0 ms"
    assert fmt_duration(5000.0) == "5.00 s"
    assert fmt_duration(200_000.0) == "3m 20.0s"
    assert fmt_duration(8 * 3600 * 1000.0) == "8h 0m"
    assert fmt_bytes(512) == "512.0 B"
    assert fmt_bytes(2048) == "2.0 KB"
    assert node_label(("a", "b")) == "a,b"
    assert node_label(()) == "none"


def test_table5(tiny_config, capsys):
    result = table5_mapping.run(tiny_config)
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert result["num_trees"] == 3


def test_table6(tiny_config):
    result = table6_loading.run(tiny_config, verbose=False)
    assert result["cubetree_total_ms"] > 0
    assert result["conventional_total_ms"] > result["cubetree_total_ms"]
    assert 0 < result["savings"] < 1
    assert result["view_rows"] > 0


def test_fig12(tiny_config):
    result = fig12_queries.run(tiny_config, verbose=False)
    assert len(result["per_node"]) == 7
    assert result["total_cubetrees_ms"] >= 0
    assert result["ratio"] > 0


def test_fig13(tiny_config):
    stats = fig13_throughput.run(tiny_config, verbose=False)
    for name in ("cubetrees", "conventional"):
        assert stats[name]["min"] <= stats[name]["avg"] <= stats[name]["max"]


def test_fig14(tiny_config):
    result = fig14_scalability.run(tiny_config, verbose=False)
    assert set(result["small"]) == set(result["big"])
    assert result["growth"] > 0


def test_table7(tiny_config):
    result = table7_updates.run(tiny_config, verbose=False)
    assert result["merge_pack_ms"] > 0
    assert result["recompute_ms"] > result["merge_pack_ms"]
    assert result["incremental_timed_out"] or (
        result["incremental_ms"] is not None
    )


def test_storage_breakdown(tiny_config):
    result = storage_breakdown.run(tiny_config, verbose=False)
    assert 0 < result["leaf_fraction"] <= 1
    assert result["cubetree_bytes"] < result["conventional_bytes"]


def test_ablation_sort_order():
    result = ablations.run_sort_order(verbose=False)
    assert result["low_transitions"] == 1
    assert result["hilbert_transitions"] > 1


def test_ablation_compression():
    result = ablations.run_compression(verbose=False)
    assert result["compressed_pages"] < result["uncompressed_pages"]


def test_ablation_packing():
    result = ablations.run_packing(verbose=False)
    assert result["packed_fill"] > result["dynamic_fill"]


def test_ablation_replication(tiny_config):
    result = ablations.run_replication(tiny_config, verbose=False)
    assert result["with replicas"]["pages"] > result["no replicas"]["pages"]


def test_experiment_all_smoke(capsys):
    """``repro experiment all`` runs every experiment end to end at a
    tiny scale."""
    from repro.cli import main

    assert main(["experiment", "all", "--scale", "0.0003", "--queries", "3"]) == 0
    out = capsys.readouterr().out
    for marker in ("Table 5", "Table 6", "Figure 12", "Figure 13",
                   "Figure 14", "Table 7", "Ablation"):
        assert marker in out, f"experiment all output missing {marker}"