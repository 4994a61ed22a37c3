"""Import layering: the serving path does not load the tooling above it.

``repro.analysis`` (fsck, lint, flow analysis) is tooling.  The library
reaches it only through local imports inside debug branches, so starting
a server must leave every ``repro.analysis*`` module unloaded.  Likewise
``repro.experiments`` sits above the server: bootstrapping a database
builds the paper's configuration from ``repro.warehouse`` alone.  The
server computes, builds and merge-packs in one process, so it loads no
process-pool machinery either.  The checks run in a fresh interpreter
because this test process has long since imported everything.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _probe(script):
    """Run ``script`` in a fresh interpreter; return its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    probe = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.strip()


def test_import_repro_server_loads_no_analysis_module():
    assert _probe(
        "import sys, repro.server\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('repro.analysis')))"
    ) == "[]"


def test_import_repro_server_loads_no_process_pool():
    assert _probe(
        "import sys, repro.server\n"
        "print(sorted(m for m in sys.modules if m == 'multiprocessing'"
        " or m.startswith(('multiprocessing.', 'concurrent.futures.process'))))"
    ) == "[]"


def test_bootstrap_database_loads_no_experiments_module(tmp_path):
    assert _probe(
        "import sys\n"
        "from repro.server.service import bootstrap_database\n"
        f"report = bootstrap_database({str(tmp_path)!r}, scale=0.002)\n"
        "assert report.created and report.view_rows > 0\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('repro.experiments')))"
    ) == "[]"
