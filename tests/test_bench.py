"""Schema of the BENCH_*.json files that tools/qca_ladder.py writes; nothing is timed."""

import json
from math import isfinite
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LADDERS = [
    path
    for path in sorted(ROOT.glob("BENCH_*.json"))
    if json.loads(path.read_text()).get("command", "").startswith("python tools/qca_ladder.py")
]
QUBITS = (16, 18, 20, 22)
PARTS = ("shift", "coin", "readout", "step")
MACHINE = ("nproc", "cpus_usable", "cpu", "blas", "blas_threads", "numpy", "python")
TREE = ("commit", "src_lines", "src_sha256", "tests")
ROW = ("median_s", "iqr_s", "p25_s", "p75_s", "per_process_s")


def _positive(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value) and value > 0


def test_a_qca_ladder_file_exists():
    assert LADDERS


@pytest.mark.parametrize("path", LADDERS, ids=[p.name for p in LADDERS])
def test_qca_ladder_file_schema(path):
    doc = json.loads(path.read_text())
    assert set(MACHINE) <= set(doc["machine"])
    assert all(_positive(doc["machine"][key]) for key in ("nproc", "cpus_usable", "blas_threads"))
    assert doc["processes_per_tree"] >= 3
    assert set(doc["trees"]) == {"base", "change"}
    for facts in doc["trees"].values():
        assert set(TREE) <= set(facts)
        assert _positive(facts["src_lines"]) and _positive(facts["tests"])
    rows = {(r["tree"], r["q"], r["part"]): r for r in doc["rows"]}
    assert set(rows) == {(t, q, p) for t in ("base", "change") for q in QUBITS for p in PARTS}
    assert len(rows) == len(doc["rows"])
    for row in rows.values():
        assert set(ROW) <= set(row)
        assert len(row["per_process_s"]) == doc["processes_per_tree"]
        assert all(_positive(v) for v in (row["median_s"], row["p25_s"], row["p75_s"], *row["per_process_s"]))
        assert isfinite(row["iqr_s"]) and row["iqr_s"] >= 0
        assert row["p25_s"] <= row["median_s"] <= row["p75_s"]
    slow = doc["slow_coin_calls"]
    assert _positive(slow["threshold_s"])
    for tree in ("base", "change"):
        assert 0 <= slow[tree]["processes_over"] <= doc["processes_per_tree"]
        assert all(_positive(v) for v in slow[tree]["first_call_s"] + slow[tree]["slowest_call_s"])
