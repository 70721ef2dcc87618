"""Shape of the committed benchmark records.

Every ``BENCH_<workload>.json`` at the repository root names its
workload, the ``perfbench/run.py`` command that produced it and the
machine it ran on.  Each record in it (the file itself and every entry
of ``later_records``) obeys the same rules.  Every ``pairs`` entry,
wherever it sits, holds a seed and the run.py result lines of the
parent and of the change, each correct and carrying exactly the
end-to-end metric names of ``BENCHMARK.json``.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def pair_lists(node):
    """Every list stored under a ``pairs`` key, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "pairs":
                yield value
            else:
                yield from pair_lists(value)
    elif isinstance(node, list):
        for value in node:
            yield from pair_lists(value)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_shape(path):
    doc = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_")
    assert workload in WORKLOADS
    for record in [doc, *doc.get("later_records", [])]:
        assert record["workload"] == workload
        assert f"perfbench/run.py --workload {workload}" in record["command"]
        machine = json.dumps(record["machine"]).lower()
        assert "numpy" in machine and "blas" in machine
    pairs = [pair for found in pair_lists(doc) for pair in found]
    assert pairs
    for pair in pairs:
        assert set(pair) == {"seed", "parent", "change"}
        assert isinstance(pair["seed"], int)
        for line in (pair["parent"], pair["change"]):
            assert line["correct"] is True
            assert set(line["metrics"]) == END_TO_END
