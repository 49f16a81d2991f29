import argparse
import csv
import dataclasses
import functools
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import faults
import numpy as np
import pytest
from state_dump import load_state

from walkqca import blocks, cli, dirac, fock, lattice, multiparticle, qca, verify, walk
from walkqca.cli import DEFAULT_CONFIG, main
from walkqca.fock import momentum_mode_ops
from walkqca.lattice import make_lattice
from walkqca.verify import VerifyOptions, momentum_ops_residual


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def out_flag(command, tmp_path):
    """--out for the commands that write files; qca-demo prints to standard output and takes none."""
    return [] if command == "qca-demo" else ["--out", tmp_path]


def test_spectrum_1d_schema_and_rows(tmp_path):
    cfg = write_config(
        tmp_path, {"lattice": {"dimension": 1, "N": 8, "dx": 1.0, "dt": 1.0, "theta": 0.1}}
    )
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 0
    rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 8
    assert list(rows[0]) == ["ell", "k", "r0", "r1", "r2", "r3", "phi", "degenerate"]


def test_spectrum_2d_rows(tmp_path):
    cfg = write_config(
        tmp_path, {"lattice": {"dimension": 2, "N": 4, "dx": 1.0, "dt": 1.0, "theta": 0.1}}
    )
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 0
    rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 16
    assert "k_x" in rows[0] and "k_y" in rows[0]


def test_odd_lattice_rejected_with_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"lattice": {"dimension": 1, "N": 7, "dx": 1.0, "dt": 1.0, "theta": 0.1}}
    )
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,words",
    [
        ({"N": 4.7}, "N must be an integer, got 4.7"),
        ({"N": "8"}, "N must be an integer, got '8'"),
        ({"N": None}, "N must be an integer, got None"),
        ({"N": True}, "N must be an integer, got True"),
        ({"dimension": 1.5}, "dimension must be an integer, got 1.5"),
        ({"theta": float("nan")}, "theta must be a finite real number, got nan"),
        ({"dx": float("inf")}, "dx must be a finite real number, got inf"),
        ({"dt": "1"}, "dt must be a finite real number, got '1'"),
    ],
)
def test_malformed_lattice_rejected_with_exit_2(tmp_path, capsys, override, words):
    lattice = {"dimension": 1, "N": 8, "dx": 1.0, "dt": 1.0, "theta": 0.1, **override}
    cfg = write_config(tmp_path, {"lattice": lattice})
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert words in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("dimension,n", [(1, 262_146), (2, 514)])
@pytest.mark.parametrize("command", ["spectrum", "dispersion"])
def test_a_grid_over_the_cap_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, dimension, n):
    # the first even N whose N**dimension modes exceed GRID_CAP
    assert n**dimension > cli.GRID_CAP >= (n - 2) ** dimension

    def refuse(*args):
        raise AssertionError("grid computed")

    monkeypatch.setattr(walk, "block_table", refuse)
    monkeypatch.setattr(dirac, "convergence_study", refuse)
    cfg = write_config(tmp_path, {"lattice": {"dimension": dimension, "N": n}})
    assert run([command, "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: lattice.N {n} gives {n**dimension} momentum modes in {dimension}D, over the cap of {cli.GRID_CAP}\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


def test_invalid_json_exit_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(["spectrum", "--config", bad, "--out", tmp_path]) == 2


def test_dispersion_outputs(tmp_path):
    assert run(["dispersion", "--out", tmp_path]) == 0
    rows = read_csv(tmp_path / "dispersion.csv")
    assert len(rows) == 8  # default lattice
    assert list(rows[0]) == ["ell", "k", "phi_over_dt", "e_rel", "abs_err", "rel_err"]
    doc = json.loads((tmp_path / "convergence.json").read_text())
    assert 1.8 <= doc["dispersion_order"] <= 2.2
    assert 1.8 <= doc["generator_order"] <= 2.2
    assert doc["within_expected_order"] is True
    assert len(doc["rows"]) == 4


def test_dispersion_2d_has_both_momentum_columns(tmp_path):
    cfg = write_config(
        tmp_path, {"lattice": {"dimension": 2, "N": 4, "dx": 1.0, "dt": 1.0, "theta": 0.05}}
    )
    assert run(["dispersion", "--config", cfg, "--out", tmp_path]) == 0
    rows = read_csv(tmp_path / "dispersion.csv")
    assert len(rows) == 16
    assert {"k_x", "k_y"} <= set(rows[0])
    # first order in the dispersion error is the expected result on the generic 2D ray
    doc = json.loads((tmp_path / "convergence.json").read_text())
    assert doc["dispersion_order"] == pytest.approx(1.0, abs=0.1)
    assert doc["within_expected_order"] is True


def test_dispersion_massless_reports_exact(tmp_path):
    cfg = write_config(
        tmp_path, {"lattice": {"dimension": 1, "N": 8, "dx": 1.0, "dt": 1.0, "theta": 0.0}}
    )
    assert run(["dispersion", "--config", cfg, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "convergence.json").read_text())
    assert doc["exact"] is True


def test_verify_default_passes(tmp_path):
    assert run(["verify", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert all(entry["pass"] for entry in report)
    assert {"check", "max_residual", "tolerance", "pass"} == set(report[0])


def _dispersion_rows(tmp_path, lattice_doc):
    cfg = write_config(tmp_path, {"lattice": lattice_doc})
    assert run(["verify", "--config", cfg, "--only", "dispersion", "--out", tmp_path]) == 0
    return json.loads((tmp_path / "verification.json").read_text())


@pytest.mark.parametrize("dt", [1e12, 1e-9, 2.5])
def test_verify_dispersion_fits_its_orders_at_any_dt(tmp_path, dt):
    # the generator deviation is in units of 1/dt; fit dimensionless, it
    # gives the orders of dt 1, where a large dt used to fit none of them
    rows = _dispersion_rows(tmp_path, {"dt": dt})
    reference = _dispersion_rows(tmp_path, {"dt": 1.0})
    assert [r["check"] for r in rows] == [r["check"] for r in reference]
    assert len(rows) == 3 and all(r["pass"] for r in rows)
    for row, ref in zip(rows, reference):
        assert row["max_residual"] == pytest.approx(ref["max_residual"], rel=1e-3)


def test_verify_dispersion_refuses_a_study_that_fits_no_held_order(tmp_path, capsys, monkeypatch):
    # keep only the first-order fits: the generic 2D ray's dispersion error
    # fits, and the generator order it holds does not, so it is not exact
    fit = dirac._fit_order
    monkeypatch.setattr(dirac, "_fit_order", lambda s, e: None if fit(s, e) > 1.5 else fit(s, e))
    assert run(["verify", "--only", "dispersion", "--out", tmp_path]) == 2
    err = capsys.readouterr().err.strip()
    assert err.splitlines() == [err]
    assert "generator-order-2d: the convergence study fits none of the orders it holds" in err


def test_verify_car_catches_a_wrong_parity_sign(tmp_path, monkeypatch):
    # negative control: the second mode's creation operator loses the
    # parity sign it owes an occupied first mode, a_1^+ |10> = +|11>
    create = fock.creation_op

    def corrupted(basis, label):
        op = create(basis, label)
        if basis.index(label) == 1:
            assert op.target[0, 0b01] == 0b11
            op.weight[0, 0b01] *= -1
        return op

    monkeypatch.setattr(fock, "creation_op", corrupted)
    options = VerifyOptions(make_lattice(1, 4, 1.0, 1.0, 0.3), make_lattice(2, 2, 1.0, 1.0, 0.3))
    rows = verify.check_car(options)
    assert [row.check for row in rows if not row.passed] == ["car-anticommutators"]
    assert rows[0].max_residual > 1.0
    assert run(["verify", "--out", tmp_path, "--only", "car"]) == 1


def test_verify_momentum_ops_catches_a_phase_off_by_1e_9(monkeypatch):
    # negative control: the first checked 1D mode's eigenphase is off by
    # 1e-9, so the Fock evolution no longer conjugates its pair by the block
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    options = VerifyOptions(spec, make_lattice(2, 4, 1.0, 1.0, 0.3))
    assert all(row.passed for row in verify.check_momentum_ops(options))
    mode = next(m for m in lattice.momentum_grid(spec) if not walk.momentum_block(spec, m).degenerate)
    faults.shift_phase(monkeypatch, mode, 1e-9)
    rows = verify.check_momentum_ops(options)
    assert [row.check for row in rows if not row.passed] == ["momentum-ops-conjugation-1d"]
    assert rows[0].max_residual > 1e-10


@pytest.mark.parametrize("suite,rows", [("eigenphase", 2), ("intertwine", 1)])
def test_verify_energy_basis_rows_step_once_at_the_default_config(tmp_path, monkeypatch, suite, rows):
    # 15 and 529 eigenphase states, 93 intertwining images: one run of at most 1,024 each
    calls = []
    step = multiparticle.total_evolution_apply
    monkeypatch.setattr(
        multiparticle, "total_evolution_apply", lambda *args: calls.append(args) or step(*args)
    )
    assert run(["verify", "--out", tmp_path, "--only", suite]) == 0
    assert len(calls) == rows


def test_verify_only_filters_suites(tmp_path):
    assert run(["verify", "--out", tmp_path, "--only", "car"]) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report and all(entry["check"].startswith("car-") for entry in report)
    assert run(["verify", "--out", tmp_path, "--only", "no-such-suite"]) == 2


@pytest.mark.parametrize("n_random", [0, -1])
def test_verify_rejects_no_random_samples_with_exit_2(tmp_path, capsys, n_random):
    cfg = write_config(tmp_path, {"verify": {"n_random": n_random}})
    assert run(["verify", "--config", cfg, "--out", tmp_path, "--only", "preservation"]) == 2
    assert "n_random" in capsys.readouterr().err


@pytest.mark.parametrize("n_max", [0, -1])
def test_verify_rejects_an_n_max_below_one_with_exit_2(tmp_path, capsys, n_max):
    # n_max 0 would step only the vacuum; -1 crashed in the state sampler
    cfg = write_config(tmp_path, {"verify": {"n_max": n_max}})
    assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n_max must be at least 1, got {n_max}\n"


def test_verify_rejects_a_momentum_ops_check_with_no_mode_to_test(tmp_path, capsys):
    # at theta = 0 every block of the 2D N = 2 lattice is +-identity
    cfg = write_config(tmp_path, {"lattice": {"theta": 0.0}, "verify": {"n_2d": 2}})
    assert run(["verify", "--config", cfg, "--out", tmp_path, "--only", "momentum-ops"]) == 2
    err = capsys.readouterr().err
    assert "degenerate" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "verification.json").exists()


def test_verify_momentum_ops_1d_tests_the_pole_modes_at_zero_theta(monkeypatch):
    # 1D N = 4 at theta = 0: k = 0 and pi are degenerate, k = +-pi/2 are
    # eigenvector poles and must both be evaluated
    checked = []

    def recording_ops(basis, spec, mode):
        checked.append(mode.ell)
        return momentum_mode_ops(basis, spec, mode)

    monkeypatch.setattr(fock, "momentum_mode_ops", recording_ops)
    assert momentum_ops_residual(make_lattice(1, 4, 1.0, 1.0, 0.0)) < 1e-12
    assert checked == [(-1,), (1,)]


@pytest.mark.parametrize("dimension", [1, 2])
def test_momentum_ops_residual_reads_the_tables_it_fills_into_its_memo(monkeypatch, dimension):
    built, table_of = [], walk.block_table
    monkeypatch.setattr(walk, "block_table", lambda spec: built.append(spec) or table_of(spec))
    spec, memo = make_lattice(dimension, 4, 1.0, 1.0, 0.3), {}
    alone = momentum_ops_residual(spec)
    assert momentum_ops_residual(spec, memo) == alone and list(memo) == [spec] and len(built) == 2
    assert momentum_ops_residual(spec, memo) == alone and len(built) == 2  # the second call builds no table
    with pytest.raises(TypeError):  # verify's memo is its options' own, set by no caller
        VerifyOptions(spec, make_lattice(2, 4, 1.0, 1.0, 0.3), tables=memo)


def scaled_columns(names, factor):
    """walk.block_table with the named columns times `factor`."""
    table_of = walk.block_table
    return lambda spec: {name: factor * c if name in names else c for name, c in table_of(spec).items()}


def repeated_v_plus():
    """blocks.eigenvector_pair returning (v_plus, v_plus) for every block of its call."""
    pair_of = blocks.eigenvector_pair
    return lambda r: (pair_of(r)[0],) * 2


# The suite reads the grid's r columns and phi from walk.block_table and its eigenvectors from one
# blocks.eigenvector_pair call on every live row; a corrupted r column reaches the consistency rows too.
@pytest.mark.parametrize(
    "fault,failing",
    [
        ((walk, "block_table", scaled_columns({"phi"}, 1.01)), {"eigenphase-law", "eigenvector-residual"}),
        ((blocks, "eigenvector_pair", repeated_v_plus()), {"eigenvector-residual"}),
        (
            (walk, "block_table", scaled_columns({"r0", "r1", "r2", "r3"}, 1.001)),
            {"pauli-normalization", "eigenvector-residual", "block-consistency-1d", "block-consistency-2d"},
        ),
    ],
    ids=["phase", "eigenvector", "normalization"],
)
def test_block_checks_catch_a_corrupted_block(monkeypatch, fault, failing):
    monkeypatch.setattr(*fault)
    spec1d, spec2d = make_lattice(1, 4, 1.0, 1.0, 0.3), make_lattice(2, 4, 1.0, 1.0, 0.3)
    rows = verify.check_blocks(VerifyOptions(spec1d, spec2d))
    assert {row.check for row in rows if not row.passed} == failing


@pytest.mark.parametrize("only", [[], ["blocks", "momentum-ops"]], ids=["default", "blocks-and-momentum-ops"])
def test_verify_builds_one_block_table_per_check_lattice(tmp_path, monkeypatch, only):
    # the blocks and momentum-ops admissions and suites share the tables of one run_verification call
    built, table_of = [], walk.block_table
    monkeypatch.setattr(walk, "block_table", lambda spec: built.append(spec) or table_of(spec))
    argv = ["verify", "--out", tmp_path, *(arg for name in only for arg in ("--only", name))]
    assert run(argv) == 0
    assert sorted(spec.dimension for spec in built) == [1, 2]
    built.clear()  # and the next call builds its own
    assert run(argv) == 0
    assert len(built) == 2


def test_eigenphase_law_holds_at_a_block_of_minus_identity(tmp_path):
    # theta = pi/2 makes the 2D N=4 block at ell = (1, 1) -1 times the
    # identity: both eigenphases are pi, which equals -pi.
    cfg = write_config(tmp_path, {"lattice": {"theta": 1.5707963267948966}, "verify": {"n_2d": 4}})
    assert run(["verify", "--config", cfg, "--out", tmp_path, "--only", "blocks"]) == 0


def test_verify_injected_faults_fail(tmp_path):
    assert run(["verify", "--out", tmp_path, "--inject-fault", "coin-nonconserving"]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    failed = {entry["check"] for entry in report if not entry["pass"]}
    assert "qca-number-conservation" in failed
    # a corrupted (non-unitary) coin must show up in the unitarity suite
    assert (
        run(
            [
                "verify",
                "--out",
                tmp_path,
                "--inject-fault",
                "coin-nonunitary",
                "--only",
                "unitarity",
            ]
        )
        == 1
    )


def test_verify_deterministic_given_seed(tmp_path):
    run(["verify", "--out", tmp_path / "a", "--seed", 3])
    run(["verify", "--out", tmp_path / "b", "--seed", 3])
    assert (tmp_path / "a/verification.json").read_text() == (
        tmp_path / "b/verification.json"
    ).read_text()


def test_evolve_vacuum_occupations_zero(tmp_path):
    assert run(["evolve", "--out", tmp_path, "--steps", 3]) == 0
    rows = read_csv(tmp_path / "evolution.csv")
    assert list(rows[0]) == ["step", "factor", "occupancy"]
    assert all(float(r["occupancy"]) == 0.0 for r in rows)
    assert {r["step"] for r in rows} == {"0", "1", "2", "3"}


def test_evolve_zero_steps_snapshot_only(tmp_path):
    assert run(["evolve", "--out", tmp_path, "--steps", 0]) == 0
    rows = read_csv(tmp_path / "evolution.csv")
    assert {r["step"] for r in rows} == {"0"}
    assert run(["evolve", "--out", tmp_path, "--steps", -1]) == 2


def test_evolve_single_particle_occupancy_conserved(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "lattice": {"dimension": 1, "N": 4, "dx": 1.0, "dt": 1.0, "theta": 0.3},
            "evolve": {"labels": [{"ell": [1], "branch": 1}], "n_max": 2},
        },
    )
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", 2]) == 0
    rows = read_csv(tmp_path / "evolution.csv")
    by_factor = {}
    for r in rows:
        by_factor.setdefault(r["factor"], []).append(float(r["occupancy"]))
    assert all(occ == pytest.approx(1.0, abs=1e-12) for occ in by_factor["0"])
    assert all(occ == pytest.approx(0.0, abs=1e-12) for occ in by_factor["1"])


def test_evolve_can_dump_the_final_state(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "lattice": {"dimension": 1, "N": 2, "dx": 1.0, "dt": 1.0, "theta": 0.3},
            "evolve": {"labels": [{"ell": [1], "branch": -1}], "n_max": 2,
                       "dump_state": True},
        },
    )
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", 1]) == 0
    state = load_state(tmp_path / "final_state.txt")
    assert state.n_factors == 2
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_evolve_qca_localized_light_cone(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "lattice": {"dimension": 1, "N": 8, "dx": 1.0, "dt": 1.0, "theta": 0.4},
            "evolve": {"system": "qca", "qca": {"sites": 8, "types": 1, "site": 4}},
        },
    )
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", 5]) == 0
    rows = read_csv(tmp_path / "occupations.csv")
    assert list(rows[0]) == ["step", "site", "type", "n_r", "n_l"]
    for r in rows:
        occupied = float(r["n_r"]) + float(r["n_l"]) > 1e-12
        if occupied:
            distance = min(abs(int(r["site"]) - 4), 8 - abs(int(r["site"]) - 4))
            assert distance <= int(r["step"])


QCA_LATTICE = {"dimension": 1, "dx": 1.0, "dt": 1.0, "theta": 0.4}


@pytest.mark.parametrize(
    "qconf,words",
    [
        ({"sites": 4, "types": 2, "site": 4}, "site 4"),
        ({"sites": 4, "types": 1, "site": 9}, "site 9"),
        ({"sites": 4, "types": 1, "site": -1}, "site -1"),
        ({"sites": 4, "types": 1, "direction": "X"}, "direction 'X'"),
        ({"sites": 4, "types": 1, "initial": "bogus"}, "initial state 'bogus'"),
        ({"sites": "4"}, "n_sites must be an integer, got '4'"),
        ({"sites": 4.0}, "n_sites must be an integer, got 4.0"),
        ({"sites": 4, "types": True}, "n_types must be an integer, got True"),
        ({"sites": 4, "site": True}, "evolve.qca.site must be an integer, got True"),
        # a size the automaton refuses names both keys
        ({"sites": 2.5}, "evolve.qca.sites 2.5, evolve.qca.types 1: n_sites must be an integer, got 2.5"),
        ({"types": 0}, "evolve.qca.sites 8, evolve.qca.types 0: need at least 1 type, got 0"),
        ({"sites": 30}, "evolve.qca.sites 30, evolve.qca.types 1: 60 qubits exceed the desk-scale cap 22"),
    ],
)
def test_evolve_qca_rejects_bad_initial_particles_with_exit_2(tmp_path, capsys, qconf, words):
    cfg = write_config(tmp_path, {"lattice": QCA_LATTICE, "evolve": {"system": "qca", "qca": qconf}})
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", 1]) == 2
    err = capsys.readouterr().err
    assert words in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "occupations.csv").exists()


# pi/dx, the largest momentum, overflows a float below about 1.7476e-308
@pytest.mark.parametrize(
    "command,doc",
    [("spectrum", {}), ("verify", {}), ("evolve", {"evolve": {"labels": [{"ell": 1, "branch": 1}]}})],
    ids=["spectrum", "verify", "evolve"],
)
def test_a_dx_whose_momenta_overflow_is_refused_in_one_line(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, {"lattice": {"dx": 1e-310}, **doc})
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "error: dx 1e-310 is too small: the largest momentum pi/dx overflows a float\n"
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path, {"lattice": {"dx": 1.75e-308}})
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 0


# Every case is (command, config document, words of its one-line error).
# The cases of MALFORMED_NUMBERED keep the ids they were first collected
# under, which number each document by its place in the list; add new
# cases to MALFORMED_CASES, whose ids are the command and the expected
# words, so that a case inserted there renames no other.
MALFORMED_NUMBERED = (
    [
        ("spectrum", {"lattice": 5}, "config section lattice must be a JSON object"),
        ("verify", {"verify": []}, "config section verify must be a JSON object"),
        ("evolve", {"evolve": {"qca": None}}, "config section evolve.qca must be a JSON object"),
        # the steps are the --steps flag's alone, so the config has no such key, whatever its value
        ("evolve", {"evolve": {"steps": "3"}}, "unknown config key evolve.steps"),
        ("evolve", {"evolve": {"steps": 2.5}}, "unknown config key evolve.steps"),
        ("evolve", {"evolve": {"steps": True}}, "unknown config key evolve.steps"),
        ("evolve", {"evolve": {"n_max": "2"}}, "evolve.n_max must be an integer, got '2'"),
        ("verify", {"verify": {"n_max": "3"}}, "verify.n_max must be an integer, got '3'"),
        ("verify", {"verify": {"n_random": 2.5}}, "verify.n_random must be an integer, got 2.5"),
        ("verify", {"verify": {"n_1d": 4.0}}, "verify.n_1d must be an integer, got 4.0"),
        ("verify", {"verify": {"n_2d": True}}, "verify.n_2d must be an integer, got True"),
        ("verify", {"verify": {"qca_sites": "3"}}, "verify.qca_sites must be an integer, got '3'"),
        ("verify", {"verify": {"qca_types": 2.0}}, "verify.qca_types must be an integer, got 2.0"),
        ("dispersion", {"dispersion": {"halvings": "3"}}, "unknown config key dispersion"),  # --halvings alone
        ("evolve", {"evolve": {"labels": [{"ell": [1.7], "branch": 1}]}}, "momentum indices must be integers"),
        ("evolve", {"evolve": {"labels": [{"ell": [1], "branch": 1.0}]}}, "branch must be +1 or -1, got 1.0"),
        ("evolve", {"evolve": {"labels": [5]}}, "evolve.labels must be a list of objects"),
        ("evolve", {"evolve": {"n_max": 0}}, "evolve.n_max must be at least 1, got 0"),
        ("evolve", {"evolve": {"n_max": -1}}, "evolve.n_max must be at least 1, got -1"),
        ("evolve", {"evolve": {"labels": [{"branch": 1}]}}, "evolve.labels[0] is missing key 'ell'"),
        (
            "evolve",
            {"evolve": {"labels": [{"ell": [1], "branch": 1}, {"ell": [2]}]}},
            "evolve.labels[1] is missing key 'branch'",
        ),
        ("evolve", {"evolve": {"labels": None}}, "evolve.labels must be a list of objects, got None"),
        ("verify", {"verify": {"qca_types": 0}}, "qca_types must be at least 1, got 0"),
        ("verify", {"verify": {"qca_types": -1}}, "qca_types must be at least 1, got -1"),
        ("evolve", {"evolve": {"dump_state": "no"}}, "evolve.dump_state must be true or false, got 'no'"),
        ("evolve", {"evolve": {"dump_state": 1}}, "evolve.dump_state must be true or false, got 1"),
        ("spectrum", {"lattic": {"N": 4}}, "unknown config key lattic"),
        ("spectrum", {"lattice": {"NN": 4}}, "unknown config key lattice.NN"),
        ("verify", {"verify": {"n_rnadom": 1}}, "unknown config key verify.n_rnadom"),
        ("verify", {"verify": {"inject_fault": "coin-nonconserving"}}, "unknown config key verify.inject_fault"),
        ("evolve", {"evolve": {"sytem": "qca"}}, "unknown config key evolve.sytem"),
        ("evolve", {"evolve": {"system": "qca", "qca": {"type": 1}}}, "unknown config key evolve.qca.type"),
        ("verify", {"verify": {"n_1d": 3}}, "verify.n_1d: N must be an even integer >= 2, got 3"),
        ("verify", {"verify": {"n_2d": 0}}, "verify.n_2d: N must be an even integer >= 2, got 0"),
        ("verify", {"verify": {"qca_sites": 1}}, "qca_sites 1, qca_types 2: need at least 2 sites, got 1"),
        ("verify", {"verify": {"qca_sites": 6}}, "qca_sites 6, qca_types 2: 24 qubits exceed"),
        ("verify", {"verify": {"qca_types": 4}}, "qca_sites 3, qca_types 4: 24 qubits exceed"),
        (
            "evolve",
            {"evolve": {"system": "qca", "dump_state": True}},
            "evolve.dump_state applies only to the multiparticle system",
        ),
        (
            "evolve",
            {"evolve": {"labels": [{"ell": 1, "branch": 1}, {"ell": 1, "branch": 1, "x": 2}]}},
            "unknown config key evolve.labels[1].x",
        ),
        (
            "verify",
            {"lattice": {"theta": 0}, "verify": {"n_1d": 2, "n_2d": 2}},
            "every momentum block of the 1D N=2 and 2D N=2 lattices at theta=0 is degenerate; "
            "the eigenvector-residual check has no vector to test",
        ),
        ("evolve", {"evolve": {"system": "qca", "n_max": 3}}, "evolve.n_max applies only to the multiparticle system"),
        (
            "evolve",
            {"evolve": {"system": "qca", "labels": [{"ell": 1, "branch": 1}]}},
            "evolve.labels applies only to the multiparticle system",
        ),
        ("evolve", {"evolve": {"system": "qca", "dump_state": 0}}, "evolve.dump_state applies only to the multiparticle"),
        ("evolve", {"evolve": {"qca": {"sites": 4}}}, "evolve.qca applies only to the qca system"),
    ]
    + [
        (command, {"lattice": lattice, "evolve": {"system": "qca", "qca": qconf}}, words)
        for command in ("evolve", "qca-demo")
        for lattice, qconf, words in [
            ({}, {"initial": "vacuum", "site": 99}, "evolve.qca.site applies only to the localized initial state"),
            ({}, {"initial": "vacuum", "site": 0.0}, "evolve.qca.site applies only to the localized initial state"),
            ({}, {"initial": "vacuum", "direction": "L"}, "evolve.qca.direction applies only to the localized"),
            ({}, {"site": 1.0}, "evolve.qca.site must be an integer, got 1.0"),
            ({}, {"site": "1"}, "evolve.qca.site must be an integer, got '1'"),
            ({"dimension": 2, "N": 4}, {}, "the qca system is one-dimensional; lattice.dimension must be 1"),
        ]
    ]
    + [
        # the automaton's ring is evolve.qca.sites; the walk's size and spacing do not reach it, nor dt any step
        (command, {"lattice": lattice, "evolve": {"system": "qca"}}, f"lattice.{key} applies only to {reader}")
        for command in ("evolve", "qca-demo")
        for lattice, key, reader in [
            ({"N": 4}, "N", "the walk, not the qca system"),
            ({"N": 8, "dx": 0.5}, "dx", "the walk, not the qca system"),
            ({"dt": 2.0}, "dt", "dispersion and verify"),
        ]
    ]
    + [
        # every check that reads verify.n_max caps it, so a larger one would change nothing
        ("verify", {"verify": {"n_max": n_max}}, f"verify.n_max must be at most 3, got {n_max}")
        for n_max in (4, 9)
    ]
    + [
        # verify sizes its check lattices with verify.n_1d and verify.n_2d
        ("verify", {"lattice": lattice}, f"lattice.{key} applies only to the walk, not verify's check lattices")
        for lattice, key in [({"N": 64}, "N"), ({"dimension": 2}, "dimension"), ({"N": 64, "dimension": 2}, "dimension")]
    ]
    + [
        # qca-demo steps --steps times (6 by default) from the evolve.qca state
        ("qca-demo", {"evolve": evolve}, f"evolve.{key} applies only to evolve, not qca-demo")
        for evolve, key in [
            ({"n_max": 1}, "n_max"),
            ({"n_max": 3}, "n_max"),
            ({"labels": [{"ell": 1, "branch": 1}]}, "labels"),
            ({"dump_state": True}, "dump_state"),
            ({"system": "qca", "dump_state": 0}, "dump_state"),
            ({"n_max": 3, "labels": [{"ell": 1, "branch": -1}], "dump_state": True}, "n_max"),
        ]
    ]
)


MALFORMED_CASES = [
    # qca-demo always runs the automaton, but refuses an unknown system as evolve does
    ("qca-demo", {"evolve": {"system": "bogus"}}, "unknown evolve system 'bogus'"),
    ("evolve", {"evolve": {"system": "bogus"}}, "unknown evolve system 'bogus'"),
    # verify checks the lattice section as spectrum does, and no falsy angle becomes the default
    ("verify", {"lattice": {"theta": False}}, "theta must be a finite real number, got False"),
    ("verify", {"lattice": {"theta": None}}, "theta must be a finite real number, got None"),
    ("verify", {"lattice": {"theta": "abc"}}, "theta must be a finite real number, got 'abc'"),
    # verify checks at lattice.theta: there is no second angle to set beside it
    ("verify", {"lattice": {"theta": 0.7}, "verify": {"theta": 0.3}}, "unknown config key verify.theta"),
    ("spectrum", {"verify": {"theta": 0.3}}, "unknown config key verify.theta"),
    # a float default takes an equal int, but not a bool
    ("evolve", {"lattice": {"dx": True}, "evolve": {"system": "qca"}}, "dx must be a finite real number, got True"),
    ("qca-demo", {"lattice": {"dt": False}}, "dt must be a finite real number, got False"),
    # a setting of another command's section is unread
    ("spectrum", {"verify": {"n_1d": 6}}, "verify.n_1d applies only to verify"),
    ("dispersion", {"evolve": {"n_max": 3}}, "evolve.n_max applies only to evolve"),
    ("evolve", {"verify": {"n_1d": 6}}, "verify.n_1d applies only to verify"),
    ("qca-demo", {"verify": {"n_random": 5}}, "verify.n_random applies only to verify"),
    ("spectrum", {"evolve": {"system": "qca"}}, "evolve.system applies only to evolve and qca-demo"),
    ("dispersion", {"evolve": {"qca": {"sites": 4}}}, "evolve.qca.sites applies only to evolve and qca-demo"),
    # the step counts and the halvings are flags only
    ("evolve", {"evolve": {"steps": 5}}, "unknown config key evolve.steps"),
    ("qca-demo", {"evolve": {"steps": 10}}, "unknown config key evolve.steps"),
    ("dispersion", {"dispersion": {"halvings": 5}}, "unknown config key dispersion"),
    ("verify", {"dispersion": {"halvings": 5}}, "unknown config key dispersion"),
    # a walk step and its spectrum depend on N, dimension and theta alone, so dt is unread there
    ("spectrum", {"lattice": {"dt": 5.0}}, "lattice.dt applies only to dispersion and verify"),
    ("evolve", {"lattice": {"dt": 5.0}}, "lattice.dt applies only to dispersion and verify"),
    # the unitarity suite builds each check lattice's dense walk; this one would take terabytes
    ("verify", {"verify": {"n_1d": 200000}}, "verify.n_1d 200000: the 1D dense walk dimension (unitarity suite) is 400000"),
    # ten factors of 1D N=8 would take 29 TiB: the size is refused before anything is allocated
    ("evolve", {"evolve": {"n_max": 10}}, "state with 2015993900449 amplitudes exceeds the dense cap 2000000"),
    # c**2, (mc^2)**2, p**2 at |k dx| = pi, or E_rel**2 past the float range: refused before anything is written
    ("dispersion", {"lattice": {"dt": 1e-200}}, "lattice.dt 1e-200, lattice.theta 0.05: energies overflow a float"),
    ("dispersion", {"lattice": {"dx": 1e200}}, "lattice.dx 1e+200, lattice.dt 1.0"),
    ("dispersion", {"lattice": {"dx": 1e-300}}, "lattice.dx 1e-300, lattice.dt 1.0"),
    ("dispersion", {"lattice": {"theta": 1e300}}, "lattice.theta 1e+300: energies overflow a float"),
    ("dispersion", {"lattice": {"dt": 1e-320}}, "lattice.dt 1e-320, lattice.theta 0.05: energies overflow a float"),
    ("verify", {"lattice": {"dt": 1e-200}}, "lattice.dt 1e-200, lattice.theta 0.05: energies overflow a float"),
]


@pytest.mark.parametrize(
    "command,doc,words",
    MALFORMED_NUMBERED + MALFORMED_CASES,
    ids=[f"{command}-doc{i}-{words}" for i, (command, _, words) in enumerate(MALFORMED_NUMBERED)]
    + [f"{command}-{words}" for command, _, words in MALFORMED_CASES],
)
def test_malformed_config_rejected_with_exit_2(tmp_path, capsys, command, doc, words):
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, *out_flag(command, tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert words in err and len(err.strip().splitlines()) == 1
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]  # nothing written, not even --out


@pytest.mark.parametrize("steps", [10**12, 10**20], ids=["1e12", "1e20"])
@pytest.mark.parametrize(
    "command,doc", [("evolve", {}), ("evolve", {"evolve": {"system": "qca"}}), ("qca-demo", {})], ids=["evolve", "evolve-qca", "qca-demo"]
)
def test_a_steps_count_past_its_readout_table_is_refused_before_the_first_step(tmp_path, capsys, monkeypatch, command, doc, steps):
    # 1e12 steps ask for a table of terabytes (MemoryError), 1e20 past numpy's largest dimension (ValueError)
    def never(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(multiparticle, "total_evolution_apply", never)
    monkeypatch.setattr(qca, "qca_step", never)
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, *out_flag(command, tmp_path / "out"), "--steps", steps]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"--steps {steps}: the readout table of {steps + 1} rows cannot be allocated" in err
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]


def test_dispersion_at_dx_1e150_runs_and_reads_as_at_dx_1(tmp_path):
    # c**2 is 1e300, still a float; the errors depend on k*dx, dt and theta alone
    errors = []
    for dx in (1e150, 1.0):
        out = tmp_path / str(dx)
        assert run(["dispersion", "--config", write_config(tmp_path, {"lattice": {"dx": dx}}), "--out", out]) == 0
        errors.append([float(row["rel_err"]) for row in read_csv(out / "dispersion.csv")])
    np.testing.assert_allclose(errors[0], errors[1], rtol=1e-12)
    assert max(errors[1]) > 1e-4


def test_evolve_accepts_the_other_systems_settings_at_their_defaults(tmp_path):
    doc = {"evolve": {"system": "qca", "n_max": 2, "labels": [], "dump_state": False, "qca": {"sites": 4}}}
    assert run(["evolve", "--config", write_config(tmp_path, doc), "--out", tmp_path, "--steps", 1]) == 0
    doc = {"evolve": {"qca": {"sites": 8, "types": 1}}}
    assert run(["evolve", "--config", write_config(tmp_path, doc), "--out", tmp_path, "--steps", 1]) == 0


def test_verify_and_qca_demo_accept_unread_settings_at_their_defaults(tmp_path):
    doc = {"lattice": {"dimension": 1, "N": 8, "dx": 2.0}}
    assert run(["verify", "--config", write_config(tmp_path, doc), "--out", tmp_path, "--only", "car"]) == 0
    doc = {"evolve": {"system": "qca", "n_max": 2, "labels": [], "dump_state": False}}
    assert run(["qca-demo", "--config", write_config(tmp_path, doc), "--steps", 1]) == 0


def test_a_float_default_takes_an_equal_int_and_verify_reads_lattice_theta_without_verify_theta(tmp_path):
    doc = {"lattice": {"dx": 1, "dt": 1}, "evolve": {"system": "qca"}}
    for command in ("evolve", "qca-demo"):
        assert run([command, "--config", write_config(tmp_path, doc), *out_flag(command, tmp_path), "--steps", 1]) == 0
    doc = {"lattice": {"theta": 0.7}}
    assert run(["verify", "--config", write_config(tmp_path, doc), "--out", tmp_path, "--only", "car"]) == 0


def test_verify_rejects_an_automaton_size_before_any_suite_runs(tmp_path, monkeypatch):
    ran = []
    for name, suite in verify.SUITES.items():

        def record(options, name=name, suite=suite):
            ran.append(name)
            return suite(options)

        monkeypatch.setitem(verify.SUITES, name, record)
    for qconf in ({"qca_sites": 1}, {"qca_sites": 12}):
        assert run(["verify", "--config", write_config(tmp_path, {"verify": qconf}), "--out", tmp_path]) == 2
    assert ran == []
    assert run(["verify", "--out", tmp_path, "--only", "car"]) == 0
    assert ran == ["car"]


def test_default_verify_catches_a_y_roll_reversal(tmp_path, monkeypatch):
    # At N=2 a +1 roll equals a -1 roll, so only the default N=4 can see
    # a 2D walk whose y axis rolls the wrong way.
    faults.reverse_roll(monkeypatch, 2)
    cfg = write_config(tmp_path, {"verify": {"n_2d": 2}})
    assert run(["verify", "--config", cfg, "--out", tmp_path]) == 0
    assert run(["verify", "--out", tmp_path]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    failed = {entry["check"] for entry in report if not entry["pass"]}
    assert {"block-consistency-2d", "multiparticle-eigenphase-2d"} <= failed
    assert not any(name.endswith("-1d") for name in failed)


def test_verify_locality_catches_a_two_site_hop_at_the_default_config(tmp_path, monkeypatch):
    # On the default 3-site ring a +2 hop equals a -1 hop; the suite runs on 4 sites.
    shift = qca.shift_slot_map
    monkeypatch.setattr(qca, "shift_slot_map", lambda lattice: shift(lattice)[shift(lattice)])
    report = qca.locality_check(3, 1, 0.3)
    assert report.shift_nearest_neighbor and report.light_cone_radius_per_step == 1
    assert run(["verify", "--out", tmp_path, "--only", "locality"]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    failed = [entry["check"] for entry in report if not entry["pass"]]
    assert failed == ["qca-shift-nearest-neighbor", "qca-light-cone"]


def test_verify_options_defaults_are_the_cli_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(VerifyOptions)}
    shared = defaults.keys() & DEFAULT_CONFIG["verify"].keys()
    assert shared == {"n_max", "n_random", "qca_sites", "qca_types"}
    assert all(defaults[key] == DEFAULT_CONFIG["verify"][key] for key in shared)


def test_evolve_takes_a_scalar_momentum_index(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "lattice": {"dimension": 1, "N": 4, "dx": 1.0, "dt": 1.0, "theta": 0.3},
            "evolve": {"labels": [{"ell": 1, "branch": 1}], "n_max": 1},
        },
    )
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", 1]) == 0
    rows = read_csv(tmp_path / "evolution.csv")
    assert [float(r["occupancy"]) for r in rows] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_evolve_qca_places_a_left_mover_or_the_vacuum(tmp_path):
    for qconf, occupied in (
        ({"site": 3, "direction": "l"}, [("3", "n_l")]),
        ({"initial": "vacuum"}, []),
    ):
        doc = {"lattice": QCA_LATTICE, "evolve": {"system": "qca", "qca": {"sites": 4, **qconf}}}
        assert run(["evolve", "--config", write_config(tmp_path, doc), "--out", tmp_path, "--steps", 0]) == 0
        rows = read_csv(tmp_path / "occupations.csv")
        found = [(r["site"], key) for r in rows for key in ("n_r", "n_l") if float(r[key]) > 0]
        assert found == occupied


def test_qca_demo_prints_csv(capsys):
    assert run(["qca-demo", "--steps", 2]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].strip() == "step,site,type,n_r,n_l"
    # 8 sites x 3 snapshots
    assert len(lines) == 1 + 8 * 3


def test_qca_demo_ends_quietly_when_its_reader_closes_stdout(tmp_path):
    # about 0.7 MB of rows, so the demo is still writing when the reader leaves after two lines
    cfg = write_config(tmp_path, {"evolve": {"qca": {"sites": 2}}})
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "walkqca.cli", "qca-demo", "--config", str(cfg), "--steps", "10000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert lines == [b"step,site,type,n_r,n_l\r\n", b"0,0,0,1.0,0.0\r\n"]
    assert (code, err) == (141, b"")


def test_qca_demo_rejects_a_nan_coin_angle_with_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lattice": {"theta": float("nan")}})
    assert run(["qca-demo", "--config", cfg, "--steps", 1]) == 2
    assert "theta must be a finite real number" in capsys.readouterr().err


def test_golden_spectrum_row(tmp_path):
    # pin the schema and a literal row: k = 0 at theta = 0.1 has
    # (r0, r1, r2, r3) = (cos 0.1, sin 0.1, 0, 0)
    cfg = write_config(
        tmp_path, {"lattice": {"dimension": 1, "N": 2, "dx": 1.0, "dt": 1.0, "theta": 0.1}}
    )
    run(["spectrum", "--config", cfg, "--out", tmp_path])
    rows = read_csv(tmp_path / "spectrum.csv")
    zero = next(r for r in rows if r["ell"] == "0")
    assert float(zero["r0"]) == pytest.approx(0.9950041652780258, abs=1e-15)
    assert float(zero["r1"]) == pytest.approx(0.09983341664682815, abs=1e-15)
    assert float(zero["phi"]) == pytest.approx(0.1, abs=1e-12)
    assert zero["degenerate"] == "0"


@pytest.mark.parametrize(
    "argv,words",
    [
        (["verify", "--tol", "inf"], "tol must be finite and positive, got inf"),
        (["verify", "--tol", "nan"], "tol must be finite and positive, got nan"),
        (["verify", "--tol", "0"], "tol must be finite and positive, got 0.0"),
        (["verify", "--tol", "-1"], "tol must be finite and positive, got -1.0"),
        (["dispersion", "--halvings", "0"], "need at least 2 halvings for a fit, got 0"),
        (["dispersion", "--halvings", "1075"], "at most 1074 halvings keep the scale nonzero, got 1075"),
        (["qca-demo", "--steps", "-1"], "steps must be non-negative, got -1"),
        (["verify", "--seed", "-1"], "seed must be non-negative, got -1"),
    ],
)
def test_malformed_flag_values_rejected_with_exit_2(tmp_path, capsys, argv, words):
    assert run([*argv, *out_flag(argv[0], tmp_path)]) == 2
    captured = capsys.readouterr()
    assert words in captured.err and len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--seed", "--tol"])
@pytest.mark.parametrize("command", ["spectrum", "dispersion", "evolve", "qca-demo"])
def test_only_verify_takes_seed_and_tol(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, flag, "1", *out_flag(command, tmp_path)])
    assert exc.value.code == 2



# The settings each run reads, written apart from cli's table of the ones it leaves unread.  A run
# is its command, evolve.system and evolve.qca.initial; every other setting of DEFAULT_CONFIG must
# keep its default.  The lattice's dimension changes none of these sets: the automaton refuses 2D whole.
def settings_read(command, system, initial):
    walk = {"lattice.dimension", "lattice.N", "lattice.dx", "lattice.theta"}  # dt reaches only phi/dt
    automaton = {"lattice.theta", "evolve.system", "evolve.qca.sites", "evolve.qca.types", "evolve.qca.initial"}
    if initial == "localized":
        automaton |= {"evolve.qca.site", "evolve.qca.direction"}
    multiparticle = {"evolve.system", "evolve.n_max", "evolve.labels", "evolve.dump_state"}
    verify = {f"verify.{key}" for key in DEFAULT_CONFIG["verify"]} | {"lattice.dx", "lattice.dt", "lattice.theta"}
    return {
        "spectrum": walk,
        "dispersion": walk | {"lattice.dt"},
        "verify": verify,
        "evolve": automaton if system == "qca" else walk | multiparticle,
        "qca-demo": automaton,
    }[command]


def leaves(section, where=""):
    for key, value in section.items():
        yield from leaves(value, f"{where}{key}.") if isinstance(value, dict) else [f"{where}{key}"]


def setting(config, path):
    return functools.reduce(dict.__getitem__, path.split("."), config)


def with_setting(config, path, value):
    config = json.loads(json.dumps(config))
    *sections, key = path.split(".")
    setting(config, ".".join(sections))[key] = value
    return config


# The two values of each setting a run branches on, and a valid value off the default for every other one.
BRANCHES = {
    "evolve.system": ("multiparticle", "qca"),
    "evolve.qca.initial": ("localized", "vacuum"),
    "lattice.dimension": (1, 2),
}
CHANGED = {
    "lattice.N": 4, "lattice.dx": 0.5, "lattice.dt": 0.5, "lattice.theta": 0.3,
    "verify.n_1d": 6, "verify.n_2d": 2, "verify.n_max": 2, "verify.n_random": 5, "verify.qca_sites": 2,
    "verify.qca_types": 1,
    "evolve.n_max": 1, "evolve.labels": [{"ell": 1, "branch": 1}], "evolve.dump_state": True,
    "evolve.qca.sites": 4, "evolve.qca.types": 2, "evolve.qca.site": 1, "evolve.qca.direction": "L",
}  # fmt: skip
RUNS = list(itertools.product(cli.COMMANDS, *BRANCHES.values()))


def run_config(system, initial, dimension):
    config = with_setting(DEFAULT_CONFIG, "evolve.system", system)
    return with_setting(with_setting(config, "evolve.qca.initial", initial), "lattice.dimension", dimension)


def changed_configs(config):
    """(setting, config with that one setting changed) for every setting of DEFAULT_CONFIG."""
    for path in leaves(DEFAULT_CONFIG):
        pair = BRANCHES.get(path)
        value = (pair[1] if setting(config, path) == pair[0] else pair[0]) if pair else CHANGED[path]
        yield path, with_setting(config, path, value)


def refusals(command, config):
    """How each error line that may refuse the config begins; none if the run must go ahead."""
    run_of = (command, setting(config, "evolve.system"), setting(config, "evolve.qca.initial"))
    read = settings_read(*run_of)
    changed = [path for path in leaves(DEFAULT_CONFIG) if setting(config, path) != setting(DEFAULT_CONFIG, path)]
    unread = [path for path in changed if path not in read]
    if "lattice.dimension" in unread and command != "verify":  # the automaton is one-dimensional
        return {"error: the qca system is one-dimensional; lattice.dimension must be 1\n"}
    section = run_of[:2] == ("evolve", "multiparticle")  # it names the automaton's section whole
    return {f"error: {'evolve.qca' if section and 'evolve.qca.' in path else path} applies only to " for path in unread}


def refused_wrongly(tmp_path, capsys, command, config):
    """Whether main, with every command stubbed, refuses the config other than `refusals` says."""
    code = run([command, "--config", write_config(tmp_path, config), *out_flag(command, tmp_path)])
    err = capsys.readouterr().err
    words = refusals(command, config)
    return not (code == 2 and err.count("\n") == 1 and any(map(err.startswith, words)) if words else code == 0)


@pytest.fixture
def stubbed_commands(monkeypatch):
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name, lambda config, spec, out_dir, args: 0)


@pytest.mark.parametrize("command,system,initial,dimension", RUNS, ids=["-".join(map(str, run_of)) for run_of in RUNS])
def test_every_unread_setting_is_refused_and_every_read_one_goes_ahead(
    tmp_path, capsys, stubbed_commands, command, system, initial, dimension
):
    config = run_config(system, initial, dimension)
    if refusals(command, config):  # the command does not read these branches: nothing past them to change
        assert not refused_wrongly(tmp_path, capsys, command, config)
        return
    wrong = [path for path, changed in changed_configs(config) if refused_wrongly(tmp_path, capsys, command, changed)]
    assert wrong == []


def test_dropping_any_entry_of_the_table_fails_the_generated_test(tmp_path, capsys, stubbed_commands, monkeypatch):
    table = cli._unread
    dropped = []
    for command, system, initial, dimension in RUNS:
        config = run_config(system, initial, dimension)
        if refusals(command, config):
            continue
        for entry in table(command, config):
            monkeypatch.setattr(cli, "_unread", lambda *args, entry=entry: [e for e in table(*args) if e != entry])
            under = [changed for path, changed in changed_configs(config) if f"{path}.".startswith(f"{entry[0]}.")]
            assert any(refused_wrongly(tmp_path, capsys, command, changed) for changed in under), (command, entry)
            dropped.append(entry)
    # every setting that some run leaves unread is that run's entry, so each was dropped at least once;
    # only lattice.theta, the coin angle, is read by every run
    read_by_all = set.intersection(*(settings_read(*run_of[:3]) for run_of in RUNS))
    assert read_by_all == {"lattice.theta"}
    covered = {leaf for leaf in leaves(DEFAULT_CONFIG) for path, _ in dropped if f"{leaf}.".startswith(f"{path}.")}
    assert covered == set(leaves(DEFAULT_CONFIG)) - read_by_all


def flags_named_as_settings(config):
    """The settings of `config` that share their name with a flag of some command."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {action.dest for sub in commands.values() for action in sub._actions if action.option_strings}
    return {path for path in leaves(config) if path.rsplit(".", 1)[-1] in flags}


def test_no_setting_is_both_a_config_key_and_a_flag():
    assert flags_named_as_settings(DEFAULT_CONFIG) == set()
    # negative control: the config key that --steps used to override
    assert flags_named_as_settings(with_setting(DEFAULT_CONFIG, "evolve.steps", 4)) == {"evolve.steps"}


def test_verify_refuses_an_oversize_check_lattice_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    ran = []
    for name in verify.SUITES:
        passed = lambda options, name=name: ran.append(name) or [verify.CheckResult(name, 0.0, 1.0, True)]
        monkeypatch.setitem(verify.SUITES, name, passed)
    # the unitarity suite builds each dense walk, of dimension 2 N (1D) or 2 N^2 (2D), up to qca.DENSE_OPERATOR_CAP;
    # without it the check lattices are capped as spectrum's grid is, at cli.GRID_CAP modes
    assert (qca.DENSE_OPERATOR_CAP, cli.GRID_CAP) == (2048, 512**2)
    # the preservation suite steps n_max particles on the 1D check lattice and up to 2 on the 2D one, the eigenphase
    # suite 2 on the 2D one: a state of (2 N + 1)^n (1D) or (2 N^2 + 1)^n (2D) amplitudes, up to the dense cap
    assert multiparticle.AMPLITUDE_CAP == 2_000_000
    # the eigenphase suite builds one such state per label set: 1 + L + L (L - 1) / 2 sets of the L = 2 N^2 labels
    # times (L + 1)^2 amplitudes is 8.1e8 at n_2d 10, and 3.5e9 at 12, the next even N, is over the cap of 1e9
    assert verify.EIGENPHASE_WORK_CAP == 10**9
    cases = [
        (["--only", "unitarity"], {"n_1d": 1024, "n_2d": 32}, None),
        ([], {"n_1d": 62, "n_2d": 10}, None),
        ([], {"n_2d": 12}, "verify.n_2d 12: 2 particles in the eigenphase suite: 41617 label sets of 83521 amplitudes"),
        ([], {"n_1d": 62, "n_2d": 26}, "verify.n_2d 26: 2 particles in the eigenphase suite: 914629 label sets of 1830609 amplitudes"),
        (["--only", "preservation"], {"n_1d": 62, "n_2d": 26}, None),
        ([], {"n_1d": 64}, "verify.n_1d 64: 3 particles in the preservation suite: state with 2146689 amplitudes"),
        ([], {"n_2d": 32}, "verify.n_2d 32: 2 particles in the preservation suite: state with 4198401 amplitudes"),
        (["--only", "preservation"], {"n_1d": 64, "n_max": 2}, None),
        (["--only", "eigenphase"], {"n_2d": 28}, "verify.n_2d 28: 2 particles in the eigenphase suite: state with 2461761"),
        ([], {"n_1d": 1026}, "verify.n_1d 1026: the 1D dense walk dimension (unitarity suite) is 2052, over the cap of 2048"),
        (["--only", "unitarity"], {"n_2d": 34}, "verify.n_2d 34: the 2D dense walk dimension (unitarity suite) is 2312"),
        (["--only", "blocks"], {"n_1d": 512 * 512, "n_2d": 512}, None),
        (["--only", "blocks"], {"n_1d": 512 * 512 + 2}, "verify.n_1d 262146: the 1D momentum mode count is 262146"),
        (["--only", "car", "--only", "blocks"], {"n_2d": 514}, "verify.n_2d 514: the 2D momentum mode count is 264196"),
    ]
    for i, (only, vconf, words) in enumerate(cases):
        out = tmp_path / f"out{i}"
        code = run(["verify", "--config", write_config(tmp_path, {"verify": vconf}), "--out", out, *only])
        err = capsys.readouterr().err
        if words is None:
            assert (code, err) == (0, "") and ran == [name for name in verify.SUITES if not only or name in only]
        else:
            assert code == 2 and err.startswith(f"error: {words}") and err.count("\n") == 1
            assert ran == [] and not out.exists()
        ran.clear()


def test_verify_refuses_an_overflowing_scale_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    ran = []
    for name in verify.SUITES:
        passed = lambda options, name=name: ran.append(name) or [verify.CheckResult(name, 0.0, 1.0, True)]
        monkeypatch.setitem(verify.SUITES, name, passed)
    # c**2 is 1e400 at dt 1e-200: only the dispersion suite reads the energies, and it is refused before the first suite
    overflow = "lattice.dx 1.0, lattice.dt 1e-200, lattice.theta 0.05: energies overflow a float"
    config = write_config(tmp_path, {"lattice": {"dt": 1e-200}})
    for i, (only, words) in enumerate([([], overflow), (["--only", "dispersion"], overflow), (["--only", "blocks"], None)]):
        out = tmp_path / f"out{i}"
        code = run(["verify", "--config", config, "--out", out, *only])
        err = capsys.readouterr().err
        if words is None:
            assert (code, err) == (0, "") and ran == ["blocks"]
        else:
            assert (code, err) == (2, f"error: {words}\n") and ran == [] and not out.exists()
        ran.clear()


# at theta 0 every block of an N=2 lattice, at k = 0 or pi on each axis, is +-identity
BLOCKS_DEGENERATE = (
    "every momentum block of the 1D N=2 and 2D N=2 lattices at theta=0 is degenerate; "
    "the eigenvector-residual check has no vector to test"
)
MOMENTUM_OPS_DEGENERATE = (
    "every momentum block of the 1D N=2 lattice at theta=0 is degenerate; the momentum-ops check has no mode to test"
)


def test_verify_refuses_an_all_degenerate_lattice_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    ran = []
    for name in verify.SUITES:
        passed = lambda options, name=name: ran.append(name) or [verify.CheckResult(name, 0.0, 1.0, True)]
        monkeypatch.setitem(verify.SUITES, name, passed)
    cases = [
        ([], {"n_1d": 2, "n_2d": 2}, BLOCKS_DEGENERATE),
        ([], {"n_1d": 2, "n_2d": 4}, MOMENTUM_OPS_DEGENERATE),
        (["--only", "car"], {"n_1d": 2, "n_2d": 2}, None),
    ]
    for i, (only, vconf, words) in enumerate(cases):
        out = tmp_path / f"out{i}"
        config = write_config(tmp_path, {"lattice": {"theta": 0}, "verify": vconf})
        code = run(["verify", "--config", config, "--out", out, *only])
        err = capsys.readouterr().err
        if words is None:
            assert (code, err) == (0, "") and ran == ["car"]
        else:
            assert (code, err) == (2, f"error: {words}\n") and ran == [] and not out.exists()
        ran.clear()


def verify_options(settings):
    """The VerifyOptions of `walkqca verify` at the default config with `settings` of its lattice and verify sections."""
    at = lambda section: {**DEFAULT_CONFIG[section], **{k: v for k, v in settings.items() if k in DEFAULT_CONFIG[section]}}
    lat, vconf = at("lattice"), at("verify")
    specs = [make_lattice(d, vconf[f"n_{d}d"], lat["dx"], lat["dt"], lat["theta"]) for d in (1, 2)]
    return VerifyOptions(*specs, **{key: vconf[key] for key in ("n_max", "n_random", "qca_sites", "qca_types")})


# Every case that the oversize, overflow and all-degenerate tests refuse after the grid cap, with the suite that refuses it.
@pytest.mark.parametrize(
    "suite,settings,words",
    [
        ("eigenphase", {"n_2d": 12}, "verify.n_2d 12: 2 particles in the eigenphase suite: 41617 label sets of 83521 amplitudes"),
        ("eigenphase", {"n_1d": 62, "n_2d": 26}, "verify.n_2d 26: 2 particles in the eigenphase suite: 914629 label sets"),
        ("preservation", {"n_1d": 64}, "verify.n_1d 64: 3 particles in the preservation suite: state with 2146689 amplitudes"),
        ("preservation", {"n_2d": 32}, "verify.n_2d 32: 2 particles in the preservation suite: state with 4198401 amplitudes"),
        ("eigenphase", {"n_2d": 28}, "verify.n_2d 28: 2 particles in the eigenphase suite: state with 2461761"),
        ("unitarity", {"n_1d": 1026}, "verify.n_1d 1026: the 1D dense walk dimension (unitarity suite) is 2052, over the cap of 2048"),
        ("unitarity", {"n_2d": 34}, "verify.n_2d 34: the 2D dense walk dimension (unitarity suite) is 2312"),
        ("dispersion", {"dt": 1e-200}, "lattice.dx 1.0, lattice.dt 1e-200, lattice.theta 0.05: energies overflow a float"),
        ("blocks", {"theta": 0, "n_1d": 2, "n_2d": 2}, BLOCKS_DEGENERATE),
        ("momentum-ops", {"theta": 0, "n_1d": 2, "n_2d": 4}, MOMENTUM_OPS_DEGENERATE),
        ("momentum-ops", {"theta": 0.0, "n_2d": 2}, "every momentum block of the 2D N=2 lattice at theta=0.0 is degenerate"),
    ],
)
def test_each_suite_admission_alone_refuses_its_cases(suite, settings, words):
    with pytest.raises(ValueError) as exc:
        verify.ADMIT[suite](verify_options(settings))
    assert str(exc.value).startswith(words)


def test_the_verify_runner_names_no_suite():
    assert set(verify.ADMIT) <= set(verify.SUITES)
    source = inspect.getsource(verify.run_verification).splitlines()
    assert [line for line in source for name in verify.SUITES if f'"{name}"' in line or f"'{name}'" in line] == []


def test_halvings_at_the_last_nonzero_scale_still_run(tmp_path, capsys):
    assert 0.5**1074 > 0.0 == 0.5**1075
    assert run(["dispersion", "--halvings", "1074", "--out", tmp_path]) == 0
    assert len(json.loads((tmp_path / "convergence.json").read_text())["rows"]) == 1075


def test_qca_demo_takes_no_out_and_makes_no_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["qca-demo", "--out", "made"])
    assert exc.value.code == 2
    assert run(["qca-demo", "--steps", 1]) == 0
    assert capsys.readouterr().out.startswith("step,site,type,n_r,n_l")
    assert list(tmp_path.iterdir()) == []
