"""Every committed benchmark record at the repository root keeps one schema."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"label", "what", "command", "parent_commit", "change_commit", "host", "date", "pairs", "summary"}


def workloads():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert KEYS <= set(record), sorted(KEYS - set(record))
    assert record["pairs"]
    for workload in workloads():
        for side in ("parent", "change"):
            median = record["summary"][workload]["wall_ref"][side]["median"]
            assert isinstance(median, (int, float)) and median > 0, (workload, side)
