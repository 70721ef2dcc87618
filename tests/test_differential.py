"""``tools/differential.py``: records of a corpus, and the diff of two records."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import entkit as ek
import entkit.cli as cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "differential.py"
spec = importlib.util.spec_from_file_location("differential", TOOL)
differential = importlib.util.module_from_spec(spec)
spec.loader.exec_module(differential)

#: a small corpus: a float, a draw, a report, a validation error and a CLI run
CASES = [
    ("sum", lambda: 0.1 + 0.2),
    ("draw", lambda: ek.random_sud(2, ek.trial_rng(1, 2))),
    ("report", lambda: ek.invariance_suite(ek.bell_state("phi+"), "det", trials=5, seed=3)),
    ("error", lambda: ek.bell_state("x")),
    ("cli", lambda: differential._cli_run(cli, ["qutrit-inv", "2", "1", "1", "--json"])),
]


def read(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_record_twice_gives_equal_output(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert differential.record(a, CASES) == differential.record(b, CASES) == len(CASES)
    assert a.read_text() == b.read_text()
    assert differential.main(["diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"0 of {len(CASES)} records differ\n"


def test_records_are_exact(tmp_path):
    out = tmp_path / "a.jsonl"
    differential.record(out, CASES)
    rows = {row["id"]: row["result"] for row in read(out)}
    assert rows["sum"] == (0.1 + 0.2).hex()
    draw = ek.random_sud(2, ek.trial_rng(1, 2))
    assert rows["draw"] == differential.encode(draw)
    assert rows["draw"]["dtype"] == "complex128" and rows["draw"]["shape"] == [2, 2]
    assert rows["report"]["type"] == "InvarianceReport" and rows["report"]["trials"] == 5
    assert rows["error"]["raises"] == "ValidationError"
    assert rows["error"]["message"].startswith("unknown Bell state 'x'")
    assert rows["cli"]["exit"] == 0 and '"I6"' in rows["cli"]["stdout"]


def test_planted_change_is_the_one_record_reported(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    differential.record(a, CASES)
    planted = [(k, f) if k != "draw" else (k, lambda: ek.random_sud(2, ek.trial_rng(1, 3)))
               for k, f in CASES]
    differential.record(b, planted)
    assert differential.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "draw" and out[1].startswith("  - ") and out[2].startswith("  + ")
    assert out[3:] == [f"1 of {len(CASES)} records differ"]


def test_array_encoding_tells_dtype_shape_and_bits_apart():
    encode = differential.encode
    base = encode(np.zeros(4))
    assert encode(np.zeros(4, dtype=np.float32)) != base
    assert encode(np.zeros((2, 2))) != base
    assert encode(np.array([0.0, 0.0, 0.0, -0.0])) != base
    assert encode(np.float64(0.5)) != encode(0.5)


def test_full_corpus_ids_are_unique():
    ids = [case_id for case_id, _ in differential.corpus()]
    assert len(ids) == len(set(ids)) > 1000
