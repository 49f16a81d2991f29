"""The CLI's columnar CSV writer against csv.writer and the per-row tables it replaced.

`cli._write_table` formats each distinct bit pattern of a column once and
joins the texts into CRLF lines.  The oracles below write the same tables
with `csv.writer` and `csv.DictWriter`, the evolution traces from per-row
dicts as `evolve` and `qca-demo` used to, and the bytes must be equal.
"""

import csv
import io
import json

import numpy as np
import pytest

from walkqca import cli, multiparticle, qca
from walkqca.lattice import EnergyModeLabel, LatticeSpec, momentum_mode


def run(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _csv_oracle(columns):
    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(column.tolist() for column in columns.values())))
        return fh.getvalue()


def _written(columns):
    with io.StringIO(newline="") as fh:
        cli._write_table(fh, columns)
        return fh.getvalue()


EDGE_COLUMNS = {
    "signed-zeros": {"x": np.array([0.0, -0.0, 0.0, 1.0, -0.0])},
    "nans": {"x": np.array([np.nan, 1.0, -np.nan, np.nan]), "i": np.arange(4)},
    "infinities": {"x": np.array([np.inf, -np.inf, np.inf, 0.5])},
    "subnormals": {"x": np.array([5e-324, -5e-324, 2.2250738585072014e-308, 5e-324])},
    "large": {"x": np.array([1e16, 1e16 + 2, 2.0**53 + 1, 1e15, 1.2345678901234568e17, -1e16])},
    "small": {"x": np.array([1e-5, 1e-4, 1.5e-5, -1e-5, 1e-5])},
    "ints": {
        "i64": np.array([0, -1, 2**62, -(2**63), 7, 0]),
        "i32": np.array([0, -1, 2**31 - 1, -(2**31), 7, 0], dtype=np.int32),
    },
    "all-equal": {"x": np.full(5, 0.1), "i": np.full(5, 3)},
    "all-distinct": {"x": np.random.default_rng(0).normal(size=64), "i": np.arange(64)[::-1]},
    "header-only": {"x": np.empty(0), "i": np.empty(0, dtype=int)},
}


@pytest.mark.parametrize("name", list(EDGE_COLUMNS))
def test_the_writer_equals_csv_writer_on_edge_columns(tmp_path, name):
    columns = EDGE_COLUMNS[name]
    assert _written(columns) == _csv_oracle(columns)
    cli._write_table(tmp_path / "table.csv", columns)
    assert (tmp_path / "table.csv").read_bytes() == _csv_oracle(columns).encode()


def test_a_value_keyed_dedupe_fails_the_signed_zero_column(monkeypatch):
    # negative control: keyed on values, 0.0 and -0.0 share one text
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda bits, **kwargs: unique(bits.view(np.float64), **kwargs))
    columns = EDGE_COLUMNS["signed-zeros"]
    assert _written(columns) != _csv_oracle(columns)


def _dict_csv(rows, fields):
    with io.StringIO(newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        return fh.getvalue()


def _evolution_oracle(lattice, labels, n_max, steps):
    spec = LatticeSpec.from_dict({**cli.DEFAULT_CONFIG["lattice"], **lattice})
    labels = [EnergyModeLabel(momentum_mode(spec, ell), branch) for ell, branch in labels]
    state = multiparticle.physical_basis_state(spec, labels, n_max)
    rows = []
    for step in range(steps + 1):
        probs = np.abs(state.tensor()) ** 2
        d = state.walk_dim
        for factor in range(state.n_factors):
            axes = tuple(a for a in range(state.n_factors) if a != factor)
            weights = np.sum(probs, axis=axes)
            rows.append({"step": step, "factor": factor, "occupancy": float(np.sum(weights[:d]))})
        if step < steps:
            state = multiparticle.total_evolution_apply(spec, state.n_factors, state)
    return _dict_csv(rows, ["step", "factor", "occupancy"])


EVOLUTIONS = {
    "default": ({}, [], 2, 4),
    "1d-one-particle": ({"N": 6, "theta": 0.3}, [(1, 1)], 2, 3),
    "2d-two-particles": ({"dimension": 2, "N": 4, "theta": 0.3}, [((1, 0), 1), ((0, 1), -1)], 2, 2),
}


@pytest.mark.parametrize("name", list(EVOLUTIONS))
def test_evolution_csv_equals_the_per_row_oracle(tmp_path, name):
    lattice, labels, n_max, steps = EVOLUTIONS[name]
    evolve = {"n_max": n_max, "labels": [{"ell": ell, "branch": b} for ell, b in labels]}
    cfg = write_config(tmp_path, {"lattice": lattice, "evolve": evolve})
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", steps]) == 0
    expected = _evolution_oracle(lattice, labels, n_max, steps)
    assert (tmp_path / "evolution.csv").read_bytes() == expected.encode()


def _occupations_oracle(theta, qconf, steps):
    lattice = qca.CellLattice(n_sites=qconf["sites"], n_types=qconf["types"])
    coin = qca.build_local_coin(theta)
    if qconf["initial"] == "vacuum":
        state = np.zeros(lattice.dim, dtype=complex)
        state[0] = 1.0
    else:
        state = qca.localized_particle_state(lattice, qconf["site"], "RL".index(qconf["direction"]))
    rows = []
    for step in range(steps + 1):
        occ = qca.occupation_expectations(lattice, state)
        rows += [
            {"step": step, "site": site, "type": t, "n_r": occ[t, site, 0], "n_l": occ[t, site, 1]}
            for t in range(lattice.n_types)
            for site in range(lattice.n_sites)
        ]
        if step < steps:
            state = qca.qca_step(lattice, coin, state)
    return _dict_csv(rows, ["step", "site", "type", "n_r", "n_l"])


AUTOMATA = {
    "default": (0.05, {}),
    "two-types-left-mover": (0.7, {"sites": 3, "types": 2, "site": 2, "direction": "L"}),
    "vacuum": (0.3, {"sites": 2, "types": 2, "initial": "vacuum"}),
}


def _automaton(name):
    theta, qconf = AUTOMATA[name]
    doc = {"lattice": {"theta": theta}, "evolve": {"qca": qconf}} if qconf else {}
    return doc, theta, {**cli.DEFAULT_CONFIG["evolve"]["qca"], **qconf}


@pytest.mark.parametrize("name", list(AUTOMATA))
def test_occupations_csv_equals_the_per_row_oracle(tmp_path, name):
    doc, theta, qconf = _automaton(name)
    doc = {**doc, "evolve": {**doc.get("evolve", {}), "system": "qca"}}
    assert run(["evolve", "--config", write_config(tmp_path, doc), "--out", tmp_path, "--steps", 5]) == 0
    assert (tmp_path / "occupations.csv").read_bytes() == _occupations_oracle(theta, qconf, 5).encode()


@pytest.mark.parametrize("name", list(AUTOMATA))
def test_qca_demo_stdout_equals_the_per_row_oracle(tmp_path, capsys, name):
    doc, theta, qconf = _automaton(name)
    argv = ["qca-demo"]
    if doc:
        argv += ["--config", write_config(tmp_path, doc), "--steps", 3]
    assert run(argv) == 0
    assert capsys.readouterr().out == _occupations_oracle(theta, qconf, 3 if doc else 6)
