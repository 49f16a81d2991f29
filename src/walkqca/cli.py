"""Experiment runner: spectra, dispersion, verification, and evolution traces.

Configuration is a single JSON document; DEFAULT_CONFIG lists every key
with its default, and any other key is refused.  No setting is both a
key and a flag.  Exit codes: 0 success, 1 verification failure, 2 invalid
input or configuration, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TextIO

import numpy as np

from . import dirac, multiparticle, qca, verify, walk
from .lattice import EnergyModeLabel, LatticeSpec, is_integer, momentum_mode
from .walk import GRID_CAP

DEFAULT_CONFIG = {
    "lattice": {"dimension": 1, "N": 8, "dx": 1.0, "dt": 1.0, "theta": 0.05},
    "verify": {"n_1d": 4, "n_2d": 4, "n_max": 3, "n_random": 30, "qca_sites": 3, "qca_types": 2},
    "evolve": {
        "system": "multiparticle",
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


def _unread(command: str, config: dict) -> list[tuple[str, str]]:
    """Each setting the run leaves unread, with who reads it, in the order a refusal names them.

    evolve.system and the automaton's dimension are checked first, each by its own message.
    """
    system, initial = config["evolve"]["system"], config["evolve"]["qca"]["initial"]
    evolves = command in ("evolve", "qca-demo")
    if evolves and system not in ("multiparticle", "qca"):
        raise ValueError(f"unknown evolve system {system!r}")
    automaton = command == "qca-demo" or (command == "evolve" and system == "qca")
    if automaton and config["lattice"]["dimension"] != 1:
        raise ValueError("the qca system is one-dimensional; lattice.dimension must be 1")
    multiparticle = "evolve.n_max evolve.labels evolve.dump_state"
    table = [  # (the runs that leave them unread, the settings, who reads them)
        (command == "verify", "lattice.dimension lattice.N", "the walk, not verify's check lattices (verify.n_1d, verify.n_2d)"),
        # the automaton's ring is evolve.qca.sites; the walk's size and spacing do not reach it
        (automaton, "lattice.N lattice.dx", "the walk, not the qca system"),
        # dt reaches only phi/dt: no walk step, block or automaton step reads it
        (command not in ("dispersion", "verify"), "lattice.dt", "dispersion and verify"),
        (command != "verify", " ".join(f"verify.{key}" for key in DEFAULT_CONFIG["verify"]), "verify"),
        (not evolves, "evolve.system", "evolve and qca-demo"),
        (not evolves, multiparticle, "evolve"),
        (not evolves, " ".join(f"evolve.qca.{key}" for key in DEFAULT_CONFIG["evolve"]["qca"]), "evolve and qca-demo"),
        (command == "qca-demo", multiparticle, "evolve, not qca-demo"),
        (command == "evolve" and automaton, multiparticle, "the multiparticle system"),
        (command == "evolve" and not automaton, "evolve.qca", "the qca system"),
        (automaton and initial == "vacuum", "evolve.qca.site evolve.qca.direction", "the localized initial state"),
    ]
    return [(path, reader) for runs, paths, reader in table if runs for path in paths.split()]


def _at_default(config: dict, path: str) -> bool:
    """repr tells 0 from false and 0.0 from 0; a float default also takes an equal int that is not a bool."""
    value, default = config, DEFAULT_CONFIG
    for key in path.split("."):
        value, default = value[key], default[key]
    if isinstance(default, float) and is_integer(value):
        return value == default
    return repr(value) == repr(default)


def load_config(path: str | None) -> dict:
    if path is None:
        return dict(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError("config document must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _write_table(target: Path | TextIO, columns: dict[str, np.ndarray]) -> None:
    """A CSV of equal-length column arrays to a path or text stream, byte-identical to csv.writer's.

    A field is the str() of its .tolist() scalar, made once per distinct bit pattern (-0.0 keeps its sign).
    """
    if isinstance(target, Path):
        target.parent.mkdir(parents=True, exist_ok=True)  # --out is made at the first write: a refused run makes none
        with open(target, "w", encoding="utf-8", newline="") as fh:
            return _write_table(fh, columns)
    texts = []
    for column in columns.values():
        _, first, inverse = np.unique(column.view(f"u{column.itemsize}"), return_index=True, return_inverse=True)
        texts.append(np.array(list(map(str, column[first].tolist())), dtype=object)[inverse].tolist())
    target.write(",".join(columns) + "\r\n")
    target.writelines(",".join(row) + "\r\n" for row in zip(*texts))


def _grid_lattice(spec: LatticeSpec) -> LatticeSpec:
    """The lattice of spectrum and dispersion, refused before any work if its grid is over GRID_CAP."""
    if spec.n_sites > GRID_CAP:
        raise ValueError(
            f"lattice.N {spec.N} gives {spec.n_sites} momentum modes in {spec.dimension}D, over the cap of {GRID_CAP}"
        )
    return spec


def cmd_spectrum(config: dict, spec: LatticeSpec, out_dir: Path, args) -> int:
    spec = _grid_lattice(spec)
    path = out_dir / "spectrum.csv"
    _write_table(path, walk.block_table(spec))
    print(f"wrote {spec.n_sites} modes to {path}")
    return 0


def cmd_dispersion(config: dict, spec: LatticeSpec, out_dir: Path, args) -> int:
    spec = _grid_lattice(spec)
    # The study checks the halvings, so a bad count writes no file.
    study = dirac.convergence_study(spec, halvings=args.halvings)
    _write_table(out_dir / "dispersion.csv", dirac.dispersion_columns(spec))

    doc = study.to_dict()
    doc["dimension"] = spec.dimension
    doc["base_theta"] = spec.theta
    with open(out_dir / "convergence.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(
        f"dispersion: {spec.n_sites} modes; fitted orders "
        f"dispersion={study.dispersion_order} generator={study.generator_order} "
        f"exact={study.exact}"
    )
    return 0


def cmd_verify(config: dict, lattice: LatticeSpec, out_dir: Path, args) -> int:
    # Verification runs on fixed desk-scale lattices: only the coin angle and spacings are taken over.
    vconf = config["verify"]
    count = lambda key: _count(vconf, key, "verify")
    specs = []
    for dimension, key in ((1, "n_1d"), (2, "n_2d")):
        n = count(key)
        try:  # everything but N was checked in main, so a refusal here is the key's own
            specs.append(replace(lattice, dimension=dimension, N=n))
        except ValueError as exc:
            raise ValueError(f"verify.{key}: {exc}") from None
    options = verify.VerifyOptions(
        *specs,
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
    out_dir.mkdir(parents=True, exist_ok=True)
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
        _merge(dict.fromkeys(("ell", "branch")), item, f"evolve.labels[{i}].")  # refuses other keys
        for key in ("ell", "branch"):
            if key not in item:
                raise ValueError(f"evolve.labels[{i}] is missing key {key!r}")
    labels = [
        EnergyModeLabel(momentum_mode(spec, item["ell"]), item["branch"]) for item in label_doc
    ]
    state = multiparticle.physical_basis_state(spec, labels, n_max)
    occupancy = _readout_table(steps, state.n_factors)
    for step in range(steps + 1):
        probs = np.abs(state.tensor()) ** 2
        for factor in range(state.n_factors):
            axes = tuple(a for a in range(state.n_factors) if a != factor)
            occupancy[step, factor] = np.sum(np.sum(probs, axis=axes)[: state.walk_dim])
        del probs  # before the step, which holds two states of its own
        if step < steps:
            state = multiparticle.total_evolution_apply(spec, state.n_factors, state)
    step, factor = np.indices(occupancy.shape).reshape(2, -1)
    _write_table(out_dir / "evolution.csv", {"step": step, "factor": factor, "occupancy": occupancy.ravel()})
    print(f"wrote {occupancy.size} occupation rows to {out_dir / 'evolution.csv'}")
    if econf["dump_state"]:
        multiparticle.save_state(out_dir / "final_state.txt", state)
        print(f"wrote final state to {out_dir / 'final_state.txt'}")
    return 0


def _qca_occupation_columns(lattice: qca.CellLattice, coin, state, steps: int) -> dict[str, np.ndarray]:
    occ = _readout_table(steps, lattice.n_types, lattice.n_sites, 2)
    for step in range(steps + 1):
        occ[step] = qca.occupation_expectations(lattice, state)
        if step < steps:
            state = qca.qca_step(lattice, coin, state)
    step, t, site = np.indices(occ.shape[:3]).reshape(3, -1)
    return {"step": step, "site": site, "type": t, "n_r": occ[..., 0].ravel(), "n_l": occ[..., 1].ravel()}


def _evolve_qca(config: dict, spec: LatticeSpec, steps: int, out_dir: Path | None) -> int:
    qconf = config["evolve"]["qca"]
    lattice = qca.CellLattice(n_sites=qconf["sites"], n_types=qconf["types"])
    coin = qca.build_local_coin(spec.theta)
    initial = qconf["initial"]
    if initial == "vacuum":
        state = np.zeros(lattice.dim, dtype=complex)
        state[0] = 1.0
    elif initial == "localized":
        direction = str(qconf["direction"]).upper()
        if direction not in ("R", "L"):
            raise ValueError(f"unknown qca direction {qconf['direction']!r}; use R or L")
        site = _count(qconf, "site", "evolve.qca")
        state = qca.localized_particle_state(lattice, site, "RL".index(direction))
    else:
        raise ValueError(f"unknown qca initial state {initial!r}; use localized or vacuum")
    columns = _qca_occupation_columns(lattice, coin, state, steps)
    _write_table(sys.stdout if out_dir is None else out_dir / "occupations.csv", columns)
    if out_dir is not None:
        print(f"wrote {len(columns['step'])} occupation rows to {out_dir / 'occupations.csv'}")
    return 0


def _readout_table(steps: int, *row) -> np.ndarray:
    try:  # a row for the start and each step; numpy raises ValueError past its largest dimension
        return np.empty((steps + 1, *row))
    except (MemoryError, ValueError):
        raise ValueError(f"--steps {steps}: the readout table of {steps + 1} rows cannot be allocated") from None


def _steps(steps: int) -> int:
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return steps


def cmd_evolve(config: dict, spec: LatticeSpec, out_dir: Path, args) -> int:
    steps = _steps(args.steps)
    if config["evolve"]["system"] == "qca":
        return _evolve_qca(config, spec, steps, out_dir)
    return _evolve_multiparticle(config, spec, steps, out_dir)


def cmd_qca_demo(config: dict, spec: LatticeSpec, out_dir: None, args) -> int:
    return _evolve_qca(config, spec, _steps(args.steps), out_dir)


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
        if name != "qca-demo":  # it prints to standard output
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
            p.add_argument("--halvings", type=int, default=3)
        if name in ("evolve", "qca-demo"):
            p.add_argument("--steps", type=int, default=4 if name == "evolve" else 6)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        spec = LatticeSpec.from_dict(config["lattice"])  # every command reads it, so its errors come first
        for path, reader in _unread(args.command, config):  # a setting the run does not read keeps its default
            if not _at_default(config, path):
                raise ValueError(f"{path} applies only to {reader}")
        out_dir = Path(args.out) if "out" in args else None
        code = COMMANDS[args.command](config, spec, out_dir, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader left early (`walkqca qca-demo | head`): end quietly with 128 + SIGPIPE,
        # stdout pointed at devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
