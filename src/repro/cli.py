"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Emit a deterministic TPC-D-style dataset as CSV (fact table plus
    dimensions) for external use.
``experiment``
    Run one of the paper's experiments (or ``all``).
``query``
    Build the paper's configuration at a given scale and answer an ad-hoc
    SQL slice query through the chosen engine.
``check``
    Build the paper's configuration and run the structural verifier
    ("cubetree fsck") over every packed tree; non-zero exit on any
    invariant violation.  With ``--checkpoint DIR`` it instead validates
    a saved database: manifest/CRC32 checks over the newest committed
    generation, then fsck over the reopened forest.
``bench``
    Run a named benchmark suite and write a schema-versioned JSON
    document (``BENCH_<suite>.json``); ``--compare`` diffs against a
    previous document and exits non-zero when a phase's I/O counters
    changed or its simulated time regressed past ``--threshold``.
``info``
    Print the library version and the simulated-device parameters.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional

from repro import CubetreeEngine, __version__
from repro.constants import (
    PAGE_SIZE,
    RANDOM_IO_MS,
    ROW_OP_OVERHEAD_MS,
    SEQUENTIAL_IO_MS,
)
from repro.errors import ConfigError
from repro.settings import current, override

EXPERIMENTS = (
    "table5", "table6", "fig12", "fig13", "fig14", "table7",
    "storage", "baseline", "ablations", "all",
)


def _positive_int(raw: str) -> int:
    """argparse type for counts that must be whole numbers >= 1.

    Rejects ``0``, negatives and non-integers (``2.5``, ``two``) at
    parse time, so every subcommand taking ``--shards`` or ``--queries``
    fails fast with a clear usage error (exit status 2) instead of
    misbehaving later.
    """
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer >= 1, got {raw!r}"
        )
    return value


def _positive_float(raw: str) -> float:
    """argparse type for scale factors: a finite number > 0 (usage
    error, exit status 2, otherwise)."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {raw!r}"
        ) from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a positive number > 0, got {raw!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cubetrees (SIGMOD 1998) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit TPC-D-style CSV data")
    gen.add_argument("--scale", type=_positive_float, default=0.001)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument("--increment", type=float, default=None,
                     help="also emit an increment of this fraction")

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--scale", type=_positive_float, default=None)
    exp.add_argument("--queries", type=_positive_int, default=None)

    qry = sub.add_parser("query", help="answer an ad-hoc SQL slice query")
    qry.add_argument("sql", help='e.g. "select partkey, sum(quantity) '
                     'from F where suppkey = 3 group by partkey"; with '
                     '--batch, several queries separated by ";"')
    qry.add_argument("--scale", type=_positive_float, default=0.002)
    qry.add_argument("--seed", type=int, default=42)
    qry.add_argument("--engine", choices=("cubetree", "conventional"),
                     default="cubetree")
    qry.add_argument("--limit", type=int, default=20,
                     help="max rows to print")
    qry.add_argument("--batch", action="store_true",
                     help="split the SQL on ';' and answer all queries "
                     "as one batch over shared leaf-run passes "
                     "(cubetree engine only)")
    qry.add_argument("--shards", type=_positive_int, default=1,
                     help="partition the forest into N residue shards "
                     "and answer scatter-gather (cubetree engine only; "
                     "default 1 = unsharded)")

    chk = sub.add_parser(
        "check",
        help="verify Cubetree structural invariants (cubetree fsck)",
    )
    chk.add_argument("--scale", type=_positive_float, default=0.002)
    chk.add_argument("--seed", type=int, default=42)
    chk.add_argument(
        "--increment", type=float, default=None,
        help="also merge-pack an increment of this fraction, then "
        "re-verify the refreshed forest",
    )
    chk.add_argument(
        "--shards", type=_positive_int, default=1,
        help="build the configuration sharded into N residue "
        "partitions and additionally verify cross-shard residue "
        "disjointness (default 1 = unsharded)",
    )
    chk.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="instead of building a fresh configuration, validate a "
        "saved database: checksum-verify the newest committed "
        "generation, reopen it, and fsck the reconstructed forest",
    )
    chk.add_argument(
        "--flow", action="store_true",
        help="instead of building an engine, run the flow-aware "
        "static analyzer (pin-balance, crash-point-coverage, "
        "obs-isolation, shared-state) over the installed repro "
        "sources and print the concurrency-readiness inventory",
    )
    chk.add_argument(
        "--flow-baseline", default=None, metavar="JSON",
        help="accepted-findings baseline for --flow (default: "
        "tools/flow-baseline.json next to the source tree when "
        "present); only NEW findings fail the check",
    )

    from repro.obs.bench import SUITES

    ben = sub.add_parser(
        "bench",
        help="run a benchmark suite, emit JSON, optionally compare",
    )
    ben.add_argument("--suite", choices=SUITES, default="smoke")
    ben.add_argument("--out", default=None,
                     help="output path (default BENCH_<suite>.json)")
    ben.add_argument("--compare", default=None, metavar="OLD_JSON",
                     help="baseline document to diff against")
    ben.add_argument("--threshold", type=float, default=0.2,
                     help="simulated-ms regression fraction that fails "
                     "the comparison (default 0.2 = +20%%)")
    ben.add_argument("--report", action="store_true",
                     help="print a phase table to stdout")
    ben.add_argument("--scale", type=_positive_float, default=None)
    ben.add_argument("--seed", type=int, default=42)
    ben.add_argument("--queries", type=_positive_int, default=None,
                     help="queries per lattice node in query phases "
                     "(default: per-suite, 5 except 50 for queries)")

    srv = sub.add_parser(
        "serve",
        help="serve a generational database over HTTP with live refresh",
    )
    srv.add_argument("directory", help="database directory (gen-* layout)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642)
    srv.add_argument("--retain", type=int, default=2,
                     help="committed generations to keep on disk "
                     "(pinned ones always survive; default 2)")
    srv.add_argument("--refresh-interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh-thread poll interval; 0 disables the "
                     "thread (refresh only via POST /refresh)")
    srv.add_argument("--max-depth", type=int, default=1024,
                     help="admission queue bound; past it requests get "
                     "HTTP 503 (default 1024)")
    srv.add_argument("--bootstrap-scale", type=_positive_float, default=None,
                     metavar="SCALE",
                     help="when the directory has no committed "
                     "generation, build one at this TPC-D scale first")
    srv.add_argument("--seed", type=int, default=42,
                     help="generator seed for --bootstrap-scale")
    srv.add_argument("--shards", type=_positive_int, default=1,
                     help="with --bootstrap-scale, build the database "
                     "sharded into N residue partitions (an existing "
                     "database keeps its on-disk layout; default 1)")

    sub.add_parser("info", help="print version and device parameters")
    return parser


# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write TPC-D-style CSV files."""
    import os

    from repro.warehouse.tpcd import TPCDGenerator

    generator = TPCDGenerator(scale_factor=args.scale, seed=args.seed)
    data = generator.generate()
    os.makedirs(args.out, exist_ok=True)

    fact_path = os.path.join(args.out, "lineitem.csv")
    with open(fact_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.schema.fact_columns)
        writer.writerows(data.facts)
    print(f"wrote {len(data.facts)} fact rows to {fact_path}")

    for fact_key, dim in data.schema.dimensions.items():
        path = os.path.join(args.out, f"{dim.name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(dim.attributes)
            writer.writerows(dim.rows)
        print(f"wrote {len(dim)} {dim.name} rows to {path}")

    if args.increment:
        inc = generator.generate_increment(args.increment)
        path = os.path.join(args.out, "increment.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(data.schema.fact_columns)
            writer.writerows(inc)
        print(f"wrote {len(inc)} increment rows to {path}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: run one (or all) paper experiments."""
    from dataclasses import replace

    from repro.experiments import (
        ablations,
        baseline_onthefly,
        fig12_queries,
        fig13_throughput,
        fig14_scalability,
        storage_breakdown,
        table5_mapping,
        table6_loading,
        table7_updates,
    )
    from repro.experiments.common import ExperimentConfig

    config = ExperimentConfig()
    if args.scale is not None:
        config = replace(config, scale_factor=args.scale)
    if args.queries is not None:
        config = replace(config, queries_per_node=args.queries)

    modules = {
        "table5": table5_mapping,
        "table6": table6_loading,
        "fig12": fig12_queries,
        "fig13": fig13_throughput,
        "fig14": fig14_scalability,
        "table7": table7_updates,
        "storage": storage_breakdown,
        "baseline": baseline_onthefly,
        "ablations": ablations,
    }
    chosen = modules.values() if args.name == "all" else [modules[args.name]]
    # The paper's figures (and EXPERIMENTS.md) describe row leaves.
    with override(leaf_format="row"):
        for module in chosen:
            module.run(config)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: answer an ad-hoc SQL slice query."""
    from repro.experiments.common import (
        build_conventional_engine,
        build_cubetree_engine,
        ExperimentConfig,
    )
    from repro.sql import parse_query
    from repro.warehouse.tpcd import TPCDGenerator

    if args.shards > 1 and args.engine != "cubetree":
        print("error: --shards requires --engine cubetree",
              file=sys.stderr)
        return 2

    generator = TPCDGenerator(scale_factor=args.scale, seed=args.seed)
    data = generator.generate()
    config = ExperimentConfig(scale_factor=args.scale, seed=args.seed)
    if args.engine != "cubetree":
        engine, _ = build_conventional_engine(config, data)
    else:
        engine, _ = build_cubetree_engine(config, data, shards=args.shards)

    if args.batch:
        if args.engine != "cubetree":
            print("error: --batch requires --engine cubetree",
                  file=sys.stderr)
            return 2
        statements = [s.strip() for s in args.sql.split(";") if s.strip()]
        queries = [parse_query(s, data.schema) for s in statements]
        batch = engine.query_batch(queries)
        for i, result in enumerate(batch.results):
            print(f"[{i}] plan: {result.plan}")
            for row in result.rows[: args.limit]:
                print("  " + "\t".join(str(v) for v in row))
            if len(result.rows) > args.limit:
                print(f"  ... {len(result.rows) - args.limit} more rows")
        print(f"batch: {len(batch)} queries, {batch.batched} via shared "
              f"passes ({batch.groups} group(s))")
        print(f"simulated I/O: {batch.io.total_ms:.1f} ms "
              f"({batch.io.total_ios} page accesses)")
        _print_shard_routing(engine)
        return 0

    query = parse_query(args.sql, data.schema)
    result = engine.query(query)
    print(f"plan: {result.plan}")
    print(f"simulated I/O: {result.io.total_ms:.1f} ms "
          f"({result.io.total_ios} page accesses)")
    for row in result.rows[: args.limit]:
        print("  " + "\t".join(str(v) for v in row))
    if len(result.rows) > args.limit:
        print(f"  ... {len(result.rows) - args.limit} more rows")
    if args.engine == "cubetree":
        _print_shard_routing(engine)
    return 0


def _print_shard_routing(engine: CubetreeEngine) -> None:
    """After a query on several shards, show which ones were targeted."""
    if engine.num_shards <= 1:
        return
    routed = [shard.routed_queries for shard in engine.shards]
    touched = [i for i, count in enumerate(routed) if count]
    print(f"shards touched: {touched} of {engine.num_shards} "
          f"(per-shard routed counts {routed})")


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: fsck the paper configuration's Cubetree forest."""
    from repro.analysis.fsck import check_checkpoint, check_database
    from repro.experiments.common import (
        ExperimentConfig,
        build_cubetree_engine,
    )
    from repro.warehouse.tpcd import TPCDGenerator

    if args.flow:
        return _check_flow(args)

    if args.checkpoint is not None:
        from repro.core.persistence import verify_checkpoint

        print(verify_checkpoint(args.checkpoint).format())
        report = check_checkpoint(args.checkpoint)
        print(report.format())
        return 0 if report.ok else 1

    generator = TPCDGenerator(scale_factor=args.scale, seed=args.seed)
    data = generator.generate()
    config = ExperimentConfig(scale_factor=args.scale, seed=args.seed)
    engine, _ = build_cubetree_engine(config, data, shards=args.shards)
    print(f"loaded {len(data.facts)} fact rows into "
          f"{engine.forest.num_trees if engine.forest else 0} "
          f"cubetree(s) on {engine.num_shards} shard(s)")
    report = check_database(engine)
    print(report.format())

    if args.increment is not None:
        delta = generator.generate_increment(args.increment)
        engine.update(delta)
        print(f"merge-packed {len(delta)} increment rows")
        refreshed = check_database(engine)
        print(refreshed.format())
        report.merge(refreshed)
    return 0 if report.ok else 1


def _check_flow(args: argparse.Namespace) -> int:
    """``repro check --flow``: flow-aware invariant analysis."""
    import os

    import repro
    from repro.analysis.flowrules import (
        analyze_paths,
        apply_baseline,
        format_inventory,
        load_baseline,
    )

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    report = analyze_paths([package_dir])

    baseline_path = args.flow_baseline
    if baseline_path is None:
        candidate = os.path.join(
            os.path.dirname(os.path.dirname(package_dir)),
            "tools",
            "flow-baseline.json",
        )
        if os.path.exists(candidate):
            baseline_path = candidate
    suppressed = 0
    findings = report.findings
    if baseline_path is not None:
        findings, suppressed = apply_baseline(
            findings, load_baseline(baseline_path)
        )

    for finding in findings:
        print(finding.format())
    print(format_inventory(report.inventory))
    print(
        f"flow check: {len(findings)} new finding(s), "
        f"{suppressed} baselined"
    )
    return 1 if findings else 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run a suite, write JSON, optionally compare."""
    import json

    from repro.obs.bench import (
        compare,
        format_report,
        load_result,
        run_suite,
    )

    result = run_suite(
        args.suite,
        scale=args.scale,
        seed=args.seed,
        queries_per_node=args.queries,
    )

    out_path = args.out or f"BENCH_{args.suite}.json"
    with open(out_path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    if args.report:
        print(format_report(result))

    if args.compare:
        baseline = load_result(args.compare)
        regressions = compare(baseline, result, threshold=args.threshold)
        if regressions:
            print(f"REGRESSION vs {args.compare} "
                  f"(threshold +{args.threshold:.0%}, I/O counters exact):")
            for reg in regressions:
                line = (
                    f"  {reg['phase']}: "
                    f"{reg['old_simulated_ms']:.1f} ms -> "
                    f"{reg['new_simulated_ms']:.1f} ms"
                )
                if reg["ratio"] is not None:
                    line += f" ({reg['ratio']:.2f}x)"
                if reg["old_io"] != reg["new_io"]:
                    line += f"; I/O {reg['old_io']} -> {reg['new_io']}"
                print(line)
            return 1
        print(f"no regression vs {args.compare} "
              f"(threshold +{args.threshold:.0%}, I/O counters exact)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: HTTP serving with snapshot-isolated refresh."""
    from repro.core.persistence import newest_committed_number
    from repro.server import (
        CubetreeServer,
        ServerConfig,
        bootstrap_database,
        make_http_server,
    )

    if newest_committed_number(args.directory) is None:
        if args.bootstrap_scale is None:
            print(
                f"error: no committed generation in {args.directory!r}; "
                f"pass --bootstrap-scale to build one",
            )
            return 1
        report = bootstrap_database(
            args.directory,
            scale=args.bootstrap_scale,
            seed=args.seed,
            retain=args.retain,
            shards=args.shards,
        )
        print(
            f"bootstrapped generation {report.generation}: "
            f"{report.fact_rows} facts, {report.view_rows} view rows"
            + (f", {args.shards} shards" if args.shards > 1 else "")
        )

    config = ServerConfig(
        retain=args.retain,
        max_admission_depth=args.max_depth,
        refresh_interval=(
            args.refresh_interval if args.refresh_interval > 0 else None
        ),
    )
    server = CubetreeServer(args.directory, config).start()
    httpd = make_http_server(server, host=args.host, port=args.port)
    host, port = httpd.server_address[:2]
    print(
        f"serving generation {server.manager.current_number} of "
        f"{args.directory} on http://{host}:{port} (Ctrl-C to stop)"
    )
    for entry in server.shard_stats():
        print(
            f"  shard {entry['shard']}: {entry['pages']} pages, "
            f"{entry['rows']} rows"
        )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    """``repro info``: print version and device parameters."""
    print(f"repro {__version__}")
    print(f"page size:           {PAGE_SIZE} bytes")
    print(f"random page access:  {RANDOM_IO_MS} ms")
    print(f"sequential access:   {SEQUENTIAL_IO_MS} ms")
    print(f"row-op overhead:     {ROW_OP_OVERHEAD_MS} ms "
          f"(conventional engine only)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        current()
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "generate": cmd_generate,
        "experiment": cmd_experiment,
        "query": cmd_query,
        "check": cmd_check,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "info": cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
