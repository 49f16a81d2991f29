"""Experiment runner: spectra, dispersion, verification, and evolution traces.

Configuration is a single JSON document; DEFAULT_CONFIG lists every key
with its default, and any other key is refused.  Command-line flags
override it.  Exit codes: 0 success, 1
verification failure, 2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import dirac, multiparticle, qca, verify, walk
from .lattice import EnergyModeLabel, LatticeSpec, is_integer, momentum_mode

DEFAULT_CONFIG = {
    "lattice": {"dimension": 1, "N": 8, "dx": 1.0, "dt": 1.0, "theta": 0.05},
    "dispersion": {"halvings": 3},
    # A null verify.theta takes the lattice angle, or 0.3 where that is 0.
    "verify": {"n_1d": 4, "n_2d": 2, "theta": None, "n_max": 3, "n_random": 30, "qca_sites": 3, "qca_types": 2},
    "evolve": {
        "system": "multiparticle",
        "steps": 4,
        "n_max": 2,
        "labels": [],
        "dump_state": False,
        "qca": {"sites": 8, "types": 1, "site": 0, "direction": "R", "initial": "localized"},
    },
}


def _merge(base: dict, override: dict, where: str = "") -> dict:
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {where}{key}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ValueError(f"config section {where}{key} must be a JSON object, got {val!r}")
            out[key] = _merge(out[key], val, f"{where}{key}.")
        else:
            out[key] = val
    return out


def _count(section: dict, key: str, where: str) -> int:
    """An integer setting of a config section; bools and floats are refused."""
    value = section[key]
    if not is_integer(value):
        raise ValueError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def load_config(path: str | None) -> dict:
    if path is None:
        return dict(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError("config document must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def cmd_spectrum(config: dict, out_dir: Path, args) -> int:
    spec = LatticeSpec.from_dict(config["lattice"])
    rows = walk.spectrum_rows(spec)
    path = out_dir / "spectrum.csv"
    _write_csv(path, list(rows[0]), rows)
    print(f"wrote {len(rows)} modes to {path}")
    return 0


def cmd_dispersion(config: dict, out_dir: Path, args) -> int:
    spec = LatticeSpec.from_dict(config["lattice"])
    halvings = args.halvings
    if halvings is None:
        halvings = _count(config["dispersion"], "halvings", "dispersion")
    # The study checks the halvings, so a bad count writes no file.
    study = dirac.convergence_study(spec, halvings=halvings)
    records = dirac.dispersion_table(spec)
    rows = []
    for rec in records:
        row = walk.mode_columns(rec.mode)
        row.update(
            phi_over_dt=rec.phi_over_dt,
            e_rel=rec.e_rel,
            abs_err=rec.abs_err,
            rel_err=rec.rel_err,
        )
        rows.append(row)
    fields = list(rows[0].keys())
    _write_csv(out_dir / "dispersion.csv", fields, rows)

    doc = study.to_dict()
    doc["dimension"] = spec.dimension
    doc["base_theta"] = spec.theta
    with open(out_dir / "convergence.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(
        f"dispersion: {len(rows)} modes; fitted orders "
        f"dispersion={study.dispersion_order} generator={study.generator_order} "
        f"exact={study.exact}"
    )
    return 0


def cmd_verify(config: dict, out_dir: Path, args) -> int:
    # Verification runs on fixed desk-scale lattices; only the coin angle
    # and spacings are taken over, and a zero angle (fully degenerate
    # blocks) falls back to the default.
    vconf = config["verify"]
    lattice_doc = config["lattice"]
    theta = vconf["theta"]
    if theta is None:
        theta = lattice_doc["theta"] or 0.3
    count = lambda key: _count(vconf, key, "verify")
    spec1d = LatticeSpec(1, count("n_1d"), lattice_doc["dx"], lattice_doc["dt"], theta)
    spec2d = LatticeSpec(2, count("n_2d"), lattice_doc["dx"], lattice_doc["dt"], theta)
    options = verify.VerifyOptions(
        spec1d=spec1d,
        spec2d=spec2d,
        n_max=count("n_max"),
        n_random=count("n_random"),
        qca_sites=count("qca_sites"),
        qca_types=count("qca_types"),
        tol=args.tol,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    results = verify.run_verification(options, only=args.only or None)
    report = [r.to_dict() for r in results]
    with open(out_dir / "verification.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    width = max(len(r.check) for r in results)
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{r.check:<{width}}  {r.max_residual:.3e}  (tol {r.tolerance:g})  {mark}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _evolve_multiparticle(config: dict, spec: LatticeSpec, steps: int, out_dir: Path) -> int:
    econf = config["evolve"]
    n_max = _count(econf, "n_max", "evolve")
    if n_max < 1:
        raise ValueError(f"evolve.n_max must be at least 1, got {n_max}")
    if not isinstance(econf["dump_state"], bool):
        raise ValueError(f"evolve.dump_state must be true or false, got {econf['dump_state']!r}")
    label_doc = econf["labels"]
    if not isinstance(label_doc, list) or not all(isinstance(item, dict) for item in label_doc):
        raise ValueError(f"evolve.labels must be a list of objects, got {label_doc!r}")
    for i, item in enumerate(label_doc):
        for key in ("ell", "branch"):
            if key not in item:
                raise ValueError(f"evolve.labels[{i}] is missing key {key!r}")
    labels = [
        EnergyModeLabel(momentum_mode(spec, item["ell"]), item["branch"]) for item in label_doc
    ]
    state = multiparticle.physical_basis_state(spec, labels, n_max)
    rows = []
    for step in range(steps + 1):
        probs = np.abs(state.tensor()) ** 2
        d = state.walk_dim
        for factor in range(state.n_factors):
            axes = tuple(a for a in range(state.n_factors) if a != factor)
            weights = np.sum(probs, axis=axes)
            rows.append(
                {"step": step, "factor": factor, "occupancy": float(np.sum(weights[:d]))}
            )
        if step < steps:
            state = multiparticle.total_evolution_apply(spec, state.n_factors, state)
    _write_csv(out_dir / "evolution.csv", ["step", "factor", "occupancy"], rows)
    print(f"wrote {len(rows)} occupation rows to {out_dir / 'evolution.csv'}")
    if econf["dump_state"]:
        multiparticle.save_state(out_dir / "final_state.txt", state)
        print(f"wrote final state to {out_dir / 'final_state.txt'}")
    return 0


def _qca_occupation_rows(lattice: qca.CellLattice, coin, state, steps: int) -> list[dict]:
    rows = []
    for step in range(steps + 1):
        occ = qca.occupation_expectations(lattice, state)
        for t in range(lattice.n_types):
            for site in range(lattice.n_sites):
                rows.append(
                    {
                        "step": step,
                        "site": site,
                        "type": t,
                        "n_r": occ[t, site, 0],
                        "n_l": occ[t, site, 1],
                    }
                )
        if step < steps:
            state = qca.qca_step(lattice, coin, state)
    return rows


def _evolve_qca(config: dict, theta: float, steps: int, out_dir: Path | None) -> int:
    qconf = config["evolve"]["qca"]
    lattice = qca.CellLattice(n_sites=qconf["sites"], n_types=qconf["types"])
    coin = qca.build_local_coin(theta)
    direction = str(qconf["direction"]).upper()
    if direction not in ("R", "L"):
        raise ValueError(f"unknown qca direction {qconf['direction']!r}; use R or L")
    initial = qconf["initial"]
    if initial == "vacuum":
        state = np.zeros(lattice.dim, dtype=complex)
        state[0] = 1.0
    elif initial == "localized":
        state = qca.localized_particle_state(lattice, qconf["site"], "RL".index(direction))
    else:
        raise ValueError(f"unknown qca initial state {initial!r}; use localized or vacuum")
    rows = _qca_occupation_rows(lattice, coin, state, steps)
    fields = ["step", "site", "type", "n_r", "n_l"]
    if out_dir is None:
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    else:
        _write_csv(out_dir / "occupations.csv", fields, rows)
        print(f"wrote {len(rows)} occupation rows to {out_dir / 'occupations.csv'}")
    return 0


def _steps(steps: int) -> int:
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return steps


def cmd_evolve(config: dict, out_dir: Path, args) -> int:
    spec = LatticeSpec.from_dict(config["lattice"])
    steps = _steps(args.steps if args.steps is not None else _count(config["evolve"], "steps", "evolve"))
    system = config["evolve"]["system"]
    if system == "qca":
        return _evolve_qca(config, spec.theta, steps, out_dir)
    if system != "multiparticle":
        raise ValueError(f"unknown evolve system {system!r}")
    return _evolve_multiparticle(config, spec, steps, out_dir)


def cmd_qca_demo(config: dict, out_dir: Path, args) -> int:
    steps = _steps(args.steps if args.steps is not None else 6)
    return _evolve_qca(config, LatticeSpec.from_dict(config["lattice"]).theta, steps, None)


COMMANDS = {
    "spectrum": cmd_spectrum,
    "dispersion": cmd_dispersion,
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "qca-demo": cmd_qca_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkqca",
        description="Quantum-walk automaton experiments: spectra, dispersion, verification, evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", type=float, default=verify.DEFAULT_TOL)
            p.add_argument(
                "--only",
                action="append",
                metavar="NAME",
                help="run only the named suite (repeatable)",
            )
            p.add_argument(
                "--inject-fault",
                choices=["coin-nonconserving", "coin-nonunitary"],
                help="negative control: corrupt the automaton coin",
            )
        if name == "dispersion":
            p.add_argument("--halvings", type=int, default=None)
        if name in ("evolve", "qca-demo"):
            p.add_argument("--steps", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out_dir, args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
