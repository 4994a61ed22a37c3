"""Import layering: the serving path does not load the analysis tools.

``repro.analysis`` (fsck, lint, flow analysis) is tooling.  The library
reaches it only through local imports inside debug branches, so starting
a server must leave every ``repro.analysis*`` module unloaded.  The check
runs in a fresh interpreter because this test process has long since
imported everything.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_repro_server_loads_no_analysis_module():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.server\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.analysis')))",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
