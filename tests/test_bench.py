"""Schema of the BENCH_*.json files that the ladder tools write; nothing is timed.

Every BENCH_*.json must come from a tool listed in TOOLS and match that
tool's schema, so a new kind of ladder file needs its schema here.
"""

import json
from math import isfinite, isqrt
from pathlib import Path

import pytest

from walkqca import cli, multiparticle, qca

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
TOOLS = ("python tools/qca_ladder.py", "python tools/cli_ladder.py")


def _tool(doc) -> str | None:
    command = doc.get("command") if isinstance(doc, dict) else None
    return next((tool for tool in TOOLS if isinstance(command, str) and command.startswith(tool + " ")), None)


def _written_by(tool):
    return [path for path in BENCH_FILES if _tool(json.loads(path.read_text())) == tool]


LADDERS = _written_by(TOOLS[0])
CLI_LADDERS = _written_by(TOOLS[1])
QUBITS = (16, 18, 20, 22)
PARTS = ("shift", "coin", "readout", "step")
MACHINE = ("nproc", "cpus_usable", "cpu", "blas", "blas_threads", "numpy", "python")
TREE = ("commit", "src_lines", "src_sha256", "tests")
ROW = ("median_s", "iqr_s", "p25_s", "p75_s", "per_process_s")


def _positive(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value) and value > 0


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_every_bench_file_comes_from_a_known_tool(path):
    assert _tool(json.loads(path.read_text())) in TOOLS


@pytest.mark.parametrize(
    "doc", [{}, [], {"command": None}, {"command": "python tools/other_ladder.py --base x"},
            {"command": "python tools/qca_ladder.pyx --base x"}],
)
def test_a_bench_file_from_an_unknown_tool_has_no_schema(doc):
    assert _tool(doc) is None


def _check_machine_and_trees(doc):
    assert set(MACHINE) <= set(doc["machine"])
    assert all(_positive(doc["machine"][key]) for key in ("nproc", "cpus_usable", "blas_threads"))
    assert doc["processes_per_tree"] >= 3
    assert set(doc["trees"]) == {"base", "change"}
    for facts in doc["trees"].values():
        assert set(TREE) <= set(facts)
        assert _positive(facts["src_lines"]) and _positive(facts["tests"])


def test_a_qca_ladder_file_exists():
    assert LADDERS


def test_a_cli_ladder_file_times_the_grid_cap():
    cap_n = isqrt(cli.GRID_CAP)
    assert cap_n * cap_n == cli.GRID_CAP
    rows = [row for path in CLI_LADDERS for row in json.loads(path.read_text())["rows"]]
    assert any((row["tree"], row["N"]) == ("change", cap_n) for row in rows)


@pytest.mark.parametrize("path", LADDERS, ids=[p.name for p in LADDERS])
def test_qca_ladder_file_schema(path):
    doc = json.loads(path.read_text())
    _check_machine_and_trees(doc)
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


CLI_SIZES = (32, 64, 128, 256)
CLI_COMMANDS = ("spectrum", "dispersion")
CLI_DEFAULT_COMMANDS = ("evolve", "qca-demo")
# Later files also time verify: at the default config, and its blocks suite on a 1D check lattice at the grid cap;
# later still, CI's blocks and momentum-ops run there too.  A file times none of them, the first two or all three.
CLI_VERIFY_ROWS = {
    "verify": "default",
    "verify --only blocks": {"verify": {"n_1d": cli.GRID_CAP}},
    "verify --only blocks --only momentum-ops": {"verify": {"n_1d": cli.GRID_CAP}},
}
# Later still, runs near a cap, each in a fresh process, as (command, config, amplitudes, cap): two with 3 particles
# on 1D N=62, (2*62 + 1)**3 amplitudes, then CI's automaton run at 22 qubits.  A file times none, the first two or all.
THREE_LABELS = [{"ell": -3, "branch": -1}, {"ell": 1, "branch": 1}, {"ell": 5, "branch": -1}]
NEAR_AMPLITUDES = ((2 * 62 + 1) ** 3, multiparticle.AMPLITUDE_CAP)
CLI_NEAR_CAP_RUNS = [
    ("verify --only preservation", {"verify": {"n_1d": 62, "n_random": 3}}, *NEAR_AMPLITUDES),
    ("evolve --steps 4", {"lattice": {"N": 62}, "evolve": {"n_max": 3, "labels": THREE_LABELS}}, *NEAR_AMPLITUDES),
    ("evolve --steps 4", {"evolve": {"system": "qca", "qca": {"sites": 11, "types": 1}}}, 2**22, 1 << qca.QUBIT_CAP),
]


def _run_key(command, config):
    return command, json.dumps(config, sort_keys=True)


NEAR_CAP = {_run_key(command, config): (amplitudes, cap) for command, config, amplitudes, cap in CLI_NEAR_CAP_RUNS}


def _change_runs():
    rows = [row for path in CLI_LADDERS for row in json.loads(path.read_text())["rows"] if row["tree"] == "change"]
    return {_run_key(row["command"], row.get("config")) for row in rows}


def test_a_cli_ladder_file_times_the_runs_near_the_amplitude_cap():
    assert _change_runs() >= set(list(NEAR_CAP)[:2])


def test_a_cli_ladder_file_times_ci_automaton_and_block_table_runs():
    assert _change_runs() >= {list(NEAR_CAP)[2], _run_key(*list(CLI_VERIFY_ROWS.items())[2])}


@pytest.mark.parametrize("path", CLI_LADDERS, ids=[p.name for p in CLI_LADDERS])
def test_cli_ladder_file_schema(path):
    doc = json.loads(path.read_text())
    _check_machine_and_trees(doc)
    processes = doc["processes_per_tree"]
    trees = ("base", "change")
    verify = {(r["tree"], r["command"]): r for r in doc["rows"] if r["command"] in CLI_VERIFY_ROWS}
    assert set(verify) in [{(t, c) for t in trees for c in list(CLI_VERIFY_ROWS)[:k]} for k in (0, 2, 3)]
    near = {(r["tree"], *_run_key(r["command"], r["config"])): r for r in doc["rows"] if "amplitudes" in r}
    assert set(near) in [{(t, *run) for t in trees for run in list(NEAR_CAP)[:k]} for k in (0, 2, 3)]
    named = lambda r: r["command"] in CLI_VERIFY_ROWS or "amplitudes" in r
    rows = {(r["tree"], r["N"], r["command"]): r for r in doc["rows"] if not named(r)}
    assert len(rows) + len(verify) + len(near) == len(doc["rows"])
    caps = {r["N"] for r in rows.values() if r["at_cap"]}
    assert len(caps) == 1 and caps.isdisjoint(CLI_SIZES)
    # a base tree from before the cap has no cap rows, and older files no default-config rows
    base_caps = {r["N"] for r in rows.values() if r["at_cap"] and r["tree"] == "base"}
    sizes = {"base": CLI_SIZES + tuple(base_caps), "change": CLI_SIZES + tuple(caps)}
    grid = {(t, n, c) for t, ns in sizes.items() for n in ns for c in CLI_COMMANDS}
    defaults = {(t, None, c) for t in sizes for c in CLI_DEFAULT_COMMANDS}
    assert set(rows) in (grid, grid | defaults)
    for row in [*rows.values(), *verify.values(), *near.values()]:
        assert set(ROW) <= set(row)
        if "amplitudes" in row:
            assert (row["N"], row["modes"], row["at_cap"]) == (None, None, False)
            amplitudes, cap = NEAR_CAP[_run_key(row["command"], row["config"])]
            assert row["amplitudes"] == amplitudes <= cap
        elif row["command"] in CLI_VERIFY_ROWS:
            assert row["N"] is None and row["config"] == CLI_VERIFY_ROWS[row["command"]]
            at_cap = row["command"] != "verify"
            assert (row["modes"], row["at_cap"]) == ((cli.GRID_CAP, True) if at_cap else (None, False))
        elif row["N"] is None:
            assert row["modes"] is None and row["config"] == "default" and not row["at_cap"]
        else:
            assert row["modes"] == row["N"] ** 2
        for key in ("per_process_s", "first_call_s", "peak_rss_mb"):
            assert len(row[key]) == processes and all(_positive(v) for v in row[key])
        assert all(_positive(v) for v in (row["median_s"], row["p25_s"], row["p75_s"]))
        assert isfinite(row["iqr_s"]) and row["iqr_s"] >= 0
        assert row["p25_s"] <= row["median_s"] <= row["p75_s"]
