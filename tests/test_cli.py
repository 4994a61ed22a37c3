"""Tests for the command-line interface."""

import csv
import os

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "page size" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_generate_writes_csvs(tmp_path, capsys):
    out = str(tmp_path / "data")
    assert main(["generate", "--scale", "0.0002", "--out", out,
                 "--increment", "0.1"]) == 0
    for name in ("lineitem.csv", "part.csv", "supplier.csv",
                 "customer.csv", "increment.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "lineitem.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["partkey", "suppkey", "custkey", "quantity"]
    assert len(rows) > 10


def test_generate_is_deterministic(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    main(["generate", "--scale", "0.0002", "--seed", "5", "--out", out_a])
    main(["generate", "--scale", "0.0002", "--seed", "5", "--out", out_b])
    with open(os.path.join(out_a, "lineitem.csv")) as fa, \
            open(os.path.join(out_b, "lineitem.csv")) as fb:
        assert fa.read() == fb.read()


def test_experiment_table5(capsys):
    assert main(["experiment", "table5", "--scale", "0.0005"]) == 0
    assert "Table 5" in capsys.readouterr().out


def test_query_cubetree(capsys):
    assert main([
        "query",
        "select suppkey, sum(quantity) from F where partkey = 1 "
        "group by suppkey",
        "--scale", "0.0005", "--engine", "cubetree",
    ]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out
    assert "simulated I/O" in out


def test_query_conventional(capsys):
    assert main([
        "query", "select sum(quantity) from F",
        "--scale", "0.0005", "--engine", "conventional",
    ]) == 0
    assert "plan:" in capsys.readouterr().out


def test_query_with_between(capsys):
    assert main([
        "query",
        "select suppkey, sum(quantity) from F "
        "where partkey between 1 and 9 group by suppkey",
        "--scale", "0.0005",
    ]) == 0


def test_query_batch(capsys):
    assert main([
        "query",
        "select partkey, sum(quantity) from F group by partkey; "
        "select suppkey, sum(quantity) from F group by suppkey",
        "--scale", "0.0005", "--batch", "--limit", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "[0] plan:" in out
    assert "[1] plan:" in out
    assert "batch: 2 queries" in out


def test_query_batch_on_two_shards_matches_unsharded(capsys):
    """Eight slices of one lattice node, batched: ``--shards 2`` prints
    the same rows and the same "8 via shared passes" as one shard.
    (Until PR 23 the sharded forest lacked ``fold=`` and this died with
    a TypeError.)"""
    sql = "; ".join(
        f"select partkey, sum(quantity) from F where suppkey = {v} "
        f"group by partkey"
        for v in range(1, 9)
    )
    outputs = []
    for extra in ([], ["--shards", "2"]):
        assert main(
            ["query", sql, "--scale", "0.002", "--batch", *extra]
        ) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    single, sharded = outputs
    assert "batch: 8 queries, 8 via shared passes (1 group(s))" in single
    assert not any(line.startswith("shards touched") for line in single)
    assert sharded[-1].startswith("shards touched: [0, 1] of 2")

    def rows(lines):
        return [
            line for line in lines
            if line.startswith(("[", "  ", "batch:"))
        ]

    assert rows(sharded) == rows(single)


def test_query_batch_requires_cubetree_engine(capsys):
    assert main([
        "query", "select sum(quantity) from F",
        "--scale", "0.0005", "--batch", "--engine", "conventional",
    ]) == 2
    assert "--engine cubetree" in capsys.readouterr().err


def test_check_reports_clean(capsys):
    assert main(["check", "--scale", "0.0005"]) == 0
    out = capsys.readouterr().out
    assert "cubetree fsck" in out
    assert "0 violation(s)" in out


def test_check_flow_is_clean(capsys):
    assert main(["check", "--flow"]) == 0
    out = capsys.readouterr().out
    assert "flow check: 0 new finding(s), 1 baselined" in out
    assert "shared-state inventory" in out


def test_check_flow_without_baseline_reports_accepted_findings(tmp_path, capsys):
    empty = tmp_path / "empty-baseline.json"
    empty.write_text('{"schema_version": 1, "findings": []}')
    assert main(["check", "--flow", "--flow-baseline", str(empty)]) == 1
    out = capsys.readouterr().out
    assert "pin-balance" in out


def test_check_with_increment(capsys):
    assert main(["check", "--scale", "0.0005", "--increment", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "merge-packed" in out
    assert out.count("0 violation(s)") == 2


@pytest.fixture()
def checkpoint_dir(tmp_path):
    from repro.core.engine import CubetreeEngine
    from repro.core.persistence import save_database
    from repro.relational.view import ViewDefinition
    from repro.warehouse.tpcd import TPCDGenerator

    data = TPCDGenerator(scale_factor=0.0005, seed=41).generate()
    engine = CubetreeEngine(data.schema)
    engine.materialize([ViewDefinition("V_ps", ("partkey", "suppkey")),
                        ViewDefinition("V_none", ())], data.facts)
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    return directory


def test_check_checkpoint_clean(checkpoint_dir, capsys):
    assert main(["check", "--checkpoint", checkpoint_dir]) == 0
    out = capsys.readouterr().out
    assert "0 problem(s)" in out
    assert "0 violation(s)" in out


def test_check_checkpoint_flags_corruption(checkpoint_dir, capsys):
    gen = sorted(
        entry for entry in os.listdir(checkpoint_dir)
        if entry.startswith("gen-")
    )[-1]
    pages = os.path.join(checkpoint_dir, gen, "shard-00", "pages.bin")
    with open(pages, "r+b") as handle:
        handle.seek(100)
        byte = handle.read(1)
        handle.seek(100)
        handle.write(bytes([byte[0] ^ 0x01]))
    assert main(["check", "--checkpoint", checkpoint_dir]) == 1
    out = capsys.readouterr().out
    assert "checkpoint-corrupt" in out


def test_check_checkpoint_missing_database(tmp_path, capsys):
    assert main(["check", "--checkpoint", str(tmp_path / "empty")]) == 1
    assert "no committed generation" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "nope"])


@pytest.mark.parametrize("command", [
    ["query", "select partkey, sum(quantity) from F group by partkey"],
    ["check"],
    ["serve", "some_db"],
])
@pytest.mark.parametrize("bad", ["0", "-2", "2.5", "two"])
def test_bad_shards_rejected_at_parse_time(command, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--shards", bad])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--shards" in err
    assert "positive integer" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--scale", "0"],
    ["check", "--scale", "-0.5"],
    ["query", "select sum(quantity) from F", "--scale", "0"],
    ["bench", "--suite", "smoke", "--scale", "-1"],
    ["serve", "some_db", "--bootstrap-scale", "-1"],
    ["experiment", "fig12", "--queries", "0"],
    ["bench", "--queries", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_scale_and_queries_rejected_at_parse_time(argv, tmp_path, capsys,
                                                      monkeypatch):
    # Nothing may run: a bad value exits 2 with a usage message before
    # any corpus is built or file written.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err
    assert "positive" in err
    assert os.listdir(tmp_path) == []
