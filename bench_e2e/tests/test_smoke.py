"""Self-test of the benchmark on a miniature corpus (not part of tier-1).

Run with ``python -m pytest bench_e2e/tests``.  Scale 0.002 and one-second
windows keep it to about half a minute; the numbers mean nothing, but the
plumbing is the real one: subprocess servers, the closed-loop client, the
oracle, the span recorders.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench_e2e import load_spec, run  # noqa: E402
from bench_e2e.oracle import Oracle  # noqa: E402
from bench_e2e.workloads import WORKLOADS  # noqa: E402

MINIATURE = ["--scale", "0.002", "--seconds", "1", "--seed", "7"]


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_workload_reports_exactly_the_listed_metrics(workload, tmp_path):
    out = tmp_path / "out.json"
    code = run.main(MINIATURE + ["--workload", workload, "--out", str(out)])
    assert code == 0
    timed, traced = json.loads(out.read_text())["runs"]
    spec = load_spec()
    for result, listed in (
        (timed, spec["end_to_end"]), (traced, spec["per_layer"])
    ):
        assert result["correct"] and result["failed"] == 0
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in listed}

    # Every wrap target of the layer table resolves on this tree ...
    assert traced["info"]["trace.missing"] == []
    # ... and the spans' self times add up to the latency the client saw.
    assert traced["metrics"]["trace.unattributed_share"]["value"] <= 0.10
    assert traced["info"]["spans_recorded"] > 0


def test_wrong_answer_is_caught(monkeypatch, capsys):
    honest = Oracle.answer

    def off_by_one(self, query, generation):
        rows = honest(self, query, generation)
        return [row[:-1] + [row[-1] + 1.0] for row in rows]

    monkeypatch.setattr(Oracle, "answer", off_by_one)
    code = run.main(MINIATURE + ["--workload", "point_small", "--trace", "0"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
