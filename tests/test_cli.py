import csv
import dataclasses
import json

import pytest

from walkqca import fock
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
    cfg = write_config(tmp_path, {"verify": {"theta": 0.0}})
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
    from walkqca.multiparticle import load_state

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


QCA_LATTICE = {"dimension": 1, "N": 4, "dx": 1.0, "dt": 1.0, "theta": 0.4}


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
        ({"sites": 4, "site": True}, "site True is outside"),
    ],
)
def test_evolve_qca_rejects_bad_initial_particles_with_exit_2(tmp_path, capsys, qconf, words):
    cfg = write_config(tmp_path, {"lattice": QCA_LATTICE, "evolve": {"system": "qca", "qca": qconf}})
    assert run(["evolve", "--config", cfg, "--out", tmp_path, "--steps", 1]) == 2
    err = capsys.readouterr().err
    assert words in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "occupations.csv").exists()


@pytest.mark.parametrize(
    "command,doc,words",
    [
        ("spectrum", {"lattice": 5}, "config section lattice must be a JSON object"),
        ("verify", {"verify": []}, "config section verify must be a JSON object"),
        ("evolve", {"evolve": {"qca": None}}, "config section evolve.qca must be a JSON object"),
        ("evolve", {"evolve": {"steps": "3"}}, "evolve.steps must be an integer, got '3'"),
        ("evolve", {"evolve": {"steps": 2.5}}, "evolve.steps must be an integer, got 2.5"),
        ("evolve", {"evolve": {"steps": True}}, "evolve.steps must be an integer, got True"),
        ("evolve", {"evolve": {"n_max": "2"}}, "evolve.n_max must be an integer, got '2'"),
        ("verify", {"verify": {"n_max": "3"}}, "verify.n_max must be an integer, got '3'"),
        ("verify", {"verify": {"n_random": 2.5}}, "verify.n_random must be an integer, got 2.5"),
        ("verify", {"verify": {"n_1d": 4.0}}, "verify.n_1d must be an integer, got 4.0"),
        ("verify", {"verify": {"n_2d": True}}, "verify.n_2d must be an integer, got True"),
        ("verify", {"verify": {"qca_sites": "3"}}, "verify.qca_sites must be an integer, got '3'"),
        ("verify", {"verify": {"qca_types": 2.0}}, "verify.qca_types must be an integer, got 2.0"),
        ("dispersion", {"dispersion": {"halvings": "3"}}, "dispersion.halvings must be an integer"),
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
    ],
)
def test_malformed_config_rejected_with_exit_2(tmp_path, capsys, command, doc, words):
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert words in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "final_state.txt").exists()


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
        (["qca-demo", "--steps", "-1"], "steps must be non-negative, got -1"),
    ],
)
def test_malformed_flag_values_rejected_with_exit_2(tmp_path, capsys, argv, words):
    assert run([*argv, "--out", tmp_path]) == 2
    captured = capsys.readouterr()
    assert words in captured.err and len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--seed", "--tol"])
@pytest.mark.parametrize("command", ["spectrum", "dispersion", "evolve", "qca-demo"])
def test_only_verify_takes_seed_and_tol(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, flag, "1", "--out", tmp_path])
    assert exc.value.code == 2
