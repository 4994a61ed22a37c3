"""bench_e2e — a client-side, per-layer benchmark of ``repro serve``.

``python bench_e2e/run.py`` is the one entry point; ``README.md`` in this
directory says what is measured and why.  Nothing here is imported by the
``repro`` package, and nothing here edits it on disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

#: The checkout this benchmark measures (``bench_e2e/``'s parent).
ROOT = Path(__file__).resolve().parent.parent

#: TPC-D scale of the measured corpus: 120 024 fact rows, about 3 000
#: pages against the 256-page pool, so the working set of ``slice_large``
#: is more than ten times what the server can cache.
SCALE = 0.02


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
