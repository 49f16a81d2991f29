"""The four benchmark workloads, their seeded inputs, and the size ladder.

Every library call goes through a module attribute (``walk1d.walk_matrix_1d``,
not a name bound at import), so the traced run sees the benchmark's own
calls as well as the library's internal ones.

Inputs come from ``numpy.random.default_rng(seed)`` alone: the same seed
gives the same particle positions, energy labels and product states.
Sizes and the coin angle are fixed, so the seed changes the inputs but not
the amount of work.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
from walkqca import cli, fock, lattice, multiparticle, qca, verify, walk1d, walk2d

from jobs import Job, expect, expect_close

# The coin angle `walkqca verify` falls back to.  Not seeded: for about one
# angle in six in [0.15, 0.6] the library's eigenphase at k*dx = pi/2 comes
# out 1.5e-8 short and the N=4 intertwining check fails (README, "Known
# defects").
THETA = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # callable(seed, workdir) -> list[Job]
    largest_array: str
    largest_array_bytes: int


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _popcount(values: np.ndarray, n_bits: int) -> np.ndarray:
    return sum((values >> b) & 1 for b in range(n_bits))


# ---------------------------------------------------------------- evolution


def factor_occupancies(state) -> np.ndarray:
    """Weight of each tensor factor outside its vacuum (the `evolve` readout)."""
    probs = np.abs(state.tensor()) ** 2
    d = state.walk_dim
    out = np.empty(state.n_factors)
    for factor in range(state.n_factors):
        axes = tuple(a for a in range(state.n_factors) if a != factor)
        out[factor] = np.sum(np.sum(probs, axis=axes)[:d])
    return out


def _multiparticle_step(spec, state):
    state = multiparticle.total_evolution_apply(spec, state.n_factors, state)
    return state, factor_occupancies(state)


def evolution_job(name, spec, prepare, n_steps, norm_reference=1.0) -> Job:
    """Prepare a state, then step it with the occupation readout after each step.

    Gate: the norm after every step equals `norm_reference` and every
    factor stays fully occupied, both to 1e-12.
    """

    def run(clock):
        with clock.timed():
            state = prepare()
        for step in range(1, n_steps + 1):
            state, occ = clock.step(_multiparticle_step, spec, state)
            expect_close(f"norm after step {step}", state.norm(), norm_reference)
            for factor, value in enumerate(occ):
                expect_close(f"factor {factor} occupancy after step {step}", value, 1.0)

    return Job(name, run)


def _qca_step(lattice_, coin, state):
    state = qca.qca_step(lattice_, coin, state)
    return state, qca.occupation_expectations(lattice_, state)


def automaton_job(name, cells, coin, initial, n_steps) -> Job:
    """Automaton steps with the occupation readout; gate: norm and per-type number."""

    def run(clock):
        state = initial
        for step in range(1, n_steps + 1):
            state, occ = clock.step(_qca_step, cells, coin, state)
            expect_close(f"norm after step {step}", np.linalg.norm(state), 1.0)
            for t, number in enumerate(occ.sum(axis=(1, 2))):
                expect_close(f"type {t} number after step {step}", number, 1.0)

    return Job(name, run)


def residual_job(name, compute) -> Job:
    """A library residual that must vanish to 1e-12."""

    def run(clock):
        with clock.timed():
            residual = compute()
        expect_close(name, residual, 0.0)

    return Job(name, run)


# ---------------------------------------------------------------- CLI jobs


def spectrum_job(config: Path, out: Path, n_modes: int) -> Job:
    def run(clock):
        with clock.timed():
            code = cli.main(["spectrum", "--config", str(config), "--out", str(out)])
        expect(code == 0, f"spectrum exited {code}")
        rows = _read_csv(out / "spectrum.csv")
        expect(len(rows) == n_modes, f"spectrum wrote {len(rows)} rows, expected {n_modes}")
        worst = max(abs(sum(float(row[f"r{i}"]) ** 2 for i in range(4)) - 1.0) for row in rows)
        expect_close("max | |r|^2 - 1 | over the spectrum", worst, 0.0)
        expect(all(0.0 <= float(row["phi"]) <= np.pi for row in rows), "phi outside [0, pi]")

    return Job("spectrum", run)


def dispersion_job(config: Path, out: Path, n_modes: int) -> Job:
    def run(clock):
        with clock.timed():
            code = cli.main(["dispersion", "--config", str(config), "--out", str(out)])
        expect(code == 0, f"dispersion exited {code}")
        rows = _read_csv(out / "dispersion.csv")
        expect(len(rows) == n_modes, f"dispersion wrote {len(rows)} rows, expected {n_modes}")
        expect(
            all(math.isfinite(float(row[key])) for row in rows for key in ("phi_over_dt", "e_rel", "abs_err")),
            "non-finite dispersion entry",
        )
        study = json.loads((out / "convergence.json").read_text(encoding="utf-8"))
        expect({"dispersion_order", "generator_order", "exact"} <= set(study), "convergence.json keys")

    return Job("dispersion", run)


def verify_cli_job(name: str, config: Path, out: Path, seed: int, n_checks: int, extra=()) -> Job:
    """`walkqca verify`; gate: exit 0 and every verification.json row passing."""

    def run(clock):
        argv = ["verify", "--config", str(config), "--out", str(out), "--seed", str(seed), *extra]
        with clock.timed():
            code = cli.main(argv)
        expect(code == 0, f"verify exited {code}")
        rows = json.loads((out / "verification.json").read_text(encoding="utf-8"))
        expect(len(rows) == n_checks, f"verify reported {len(rows)} checks, expected {n_checks}")
        failing = [row["check"] for row in rows if not row["pass"]]
        expect(not failing, f"failing checks {failing}")

    return Job(name, run)


# ---------------------------------------------------------------- fermion jobs


def antisymmetrize_job(index: int, state) -> Job:
    """Antisymmetrize a normalized 3-factor product state and check the projection.

    Gate: the result lies in the physical subspace, and its distance to the
    input equals the input's projector residual, both to 1e-12.
    """

    def run(clock):
        with clock.timed():
            before = multiparticle.physical_subspace_projector_residual(state)
            out = multiparticle.antisymmetrize(state, state.n_factors)
            after = multiparticle.physical_subspace_projector_residual(out)
        expect_close("projector residual of the antisymmetrized state", after, 0.0)
        distance = np.linalg.norm(state.amplitudes - out.amplitudes)
        expect_close("distance to the antisymmetrized state", distance, before)

    return Job(f"antisymmetrize[{index}]", run)


def creation_job(basis, position: int) -> Job:
    """One dense creation operator; gate: the exact parity-string entries and nothing else."""
    label = basis.modes[position]

    def run(clock):
        with clock.timed():
            mat = fock.creation_op(basis, label).matrix
        bits = np.arange(basis.dim)
        empty = bits[((bits >> position) & 1) == 0]
        parity = _popcount(empty & ((1 << position) - 1), len(basis.modes)) & 1
        expect(
            np.array_equal(mat[empty | (1 << position), empty], 1.0 - 2.0 * parity),
            f"creation operator {position} has a wrong parity-string entry",
        )
        expect(np.count_nonzero(mat) == empty.size, f"creation operator {position} has stray entries")

    return Job(f"creation_op[{position}]", run)


def evolution_diagonal_job(basis, spec) -> Job:
    """Dense diagonal evolution; gate: exp(i * sum of occupied branch phases) to 1e-12."""

    def run(clock):
        with clock.timed():
            mat = fock.evolution_diagonal(basis, spec).matrix
        k_dx = np.array([label.mode.k[0] * spec.dx for label in basis.modes])
        branch = np.array([label.branch for label in basis.modes])
        phases = branch * np.arccos(np.cos(k_dx) * np.cos(spec.theta))
        bits = np.arange(basis.dim)
        occupied = (bits[:, None] >> np.arange(len(basis.modes))) & 1
        expected = np.exp(1j * (occupied @ phases))
        expect_close("max diagonal deviation", np.max(np.abs(np.diagonal(mat) - expected)), 0.0)
        expect(np.count_nonzero(mat) == basis.dim, "evolution operator is not diagonal")

    return Job("evolution_diagonal", run)


def car_job(basis) -> Job:
    """Build every creation operator of `basis` and the CAR anticommutators."""

    def compute():
        create = [fock.creation_op(basis, label).matrix for label in basis.modes]
        eye = np.eye(basis.dim)
        worst = 0.0
        for i, a in enumerate(create):
            for j in range(i, len(create)):
                b = create[j]
                delta = eye if i == j else 0.0
                worst = max(
                    worst,
                    float(np.max(np.abs(fock.anticommutator(a, b)))),
                    float(np.max(np.abs(fock.anticommutator(a.conj().T, b) - delta))),
                )
        return worst

    return residual_job("car-anticommutators", compute)


# ---------------------------------------------------------------- workloads


def single_particle(seed: int, workdir: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    config = _write_config(
        workdir / "lattice2d.json",
        {"lattice": {"dimension": 2, "N": 64, "dx": 1.0, "dt": 1.0, "theta": THETA}},
    )
    spec512 = lattice.make_lattice(1, 512, 1.0, 1.0, THETA)
    spec16 = lattice.make_lattice(2, 16, 1.0, 1.0, THETA)
    spec256 = lattice.make_lattice(1, 256, 1.0, 1.0, THETA)

    def localized(spec):
        vec = np.zeros(spec.walk_dim, dtype=complex)
        vec[int(rng.integers(spec.walk_dim))] = 1.0
        return lambda: multiparticle.product_state([vec], spec.walk_dim)

    return [
        spectrum_job(config, workdir, 64 * 64),
        dispersion_job(config, workdir, 64 * 64),
        residual_job("block-consistency-1d", lambda: walk1d.verify_block_consistency(spec512)),
        residual_job("block-consistency-2d", lambda: walk2d.verify_block_consistency_2d(spec16)),
        evolution_job("evolve-1d", spec256, localized(spec256), 32),
        evolution_job("evolve-2d", spec16, localized(spec16), 16),
    ]


def _seeded_labels(rng, spec, count: int):
    labels = lattice.energy_labels(spec)
    picked = [labels[i] for i in rng.choice(len(labels), size=count, replace=False)]
    return sorted(picked, key=lattice.mode_ordering_key)


def fermion_sector(seed: int, workdir: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    spec24 = lattice.make_lattice(1, 24, 1.0, 1.0, THETA)
    job_list = []
    for i in range(3):
        labels = _seeded_labels(rng, spec24, 3)
        prepare = lambda labels=labels: multiparticle.physical_basis_state(spec24, labels, 3)
        job_list.append(evolution_job(f"evolve-3particle[{i}]", spec24, prepare, 16))
    d = spec24.walk_dim
    for i in range(20):
        factors = []
        for _ in range(3):
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(vec / np.linalg.norm(vec))
        job_list.append(antisymmetrize_job(i, multiparticle.product_state(factors, d)))
    spec6 = lattice.make_lattice(1, 6, 1.0, 1.0, THETA)
    basis12 = fock.full_fock_basis(spec6)
    job_list.extend(creation_job(basis12, pos) for pos in range(len(basis12.modes)))
    job_list.append(evolution_diagonal_job(basis12, spec6))
    spec4 = lattice.make_lattice(1, 4, 1.0, 1.0, THETA)
    job_list.append(car_job(fock.full_fock_basis(spec4)))
    job_list.append(residual_job("intertwining", lambda: verify.intertwining_residual(spec4, 3)))
    return job_list


def automaton(seed: int, workdir: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    cells = qca.CellLattice(n_sites=3, n_types=3)
    initial = np.zeros(cells.dim, dtype=complex)
    bits = 0
    for t in range(cells.n_types):
        bits |= 1 << cells.slot(t, int(rng.integers(cells.n_sites)), int(rng.integers(2)))
    initial[bits] = 1.0
    coin = qca.build_local_coin(THETA)

    def locality():
        report = qca.locality_check(8, 1, THETA)
        return max(
            report.coin_conjugation_residual,
            0.0 if report.shift_nearest_neighbor else 1.0,
            0.0 if report.light_cone_radius_per_step == 1 and report.spread_within_cone else 1.0,
        )

    return [
        automaton_job("qca-evolve", cells, coin, initial, 24),
        residual_job("sector-isomorphism", lambda: qca.one_particle_sector_isomorphism(4, 2, THETA)),
        residual_job("locality", locality),
    ]


# `walkqca verify` reports 27 checks from its 11 suites at this config
# (qca_types >= 2 adds the multi-type sector check).
VERIFY_CONFIG = {"n_1d": 32, "n_2d": 4, "n_max": 3, "n_random": 10, "qca_sites": 4, "qca_types": 2}
VERIFY_CHECKS = 27


def verify_workload(seed: int, workdir: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    config = _write_config(workdir / "verify.json", {"verify": VERIFY_CONFIG})
    base = cli.DEFAULT_CONFIG["lattice"]
    spec = lattice.make_lattice(1, VERIFY_CONFIG["n_1d"], base["dx"], base["dt"], base["theta"])
    n_max = VERIFY_CONFIG["n_max"]
    labels = _seeded_labels(rng, spec, n_max)
    prepare = lambda: multiparticle.physical_basis_state(spec, labels, n_max)
    return [
        verify_cli_job("verify", config, workdir, seed, VERIFY_CHECKS),
        evolution_job("evolve-3particle", spec, prepare, 32),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("single-particle", single_particle, "dense 1D walk, N=512 (1024x1024 complex)", 16 * 1024**2),
        Workload("fermion-sector", fermion_sector, "dense Fock operator, M=12 (4096x4096 complex)", 16 * 4096**2),
        Workload("automaton", automaton, "automaton state, q=18 (2^18 complex)", 16 << 18),
        Workload("verify", verify_workload, "3-factor state, 1D N=32 (65^3 complex)", 16 * 65**3),
    )
}


# ---------------------------------------------------------------- controls


def negative_controls(workdir: Path) -> list[Job]:
    """Jobs that must fail their gate; if one passes, the gate is not testing anything."""
    config = _write_config(workdir / "control.json", {"verify": {"qca_sites": 3, "qca_types": 2}})
    fault = ("--inject-fault", "coin-nonconserving", "--only", "qca-number", "--only", "isomorphism")
    spec = lattice.make_lattice(1, 8, 1.0, 1.0, THETA)
    vec = np.zeros(spec.walk_dim, dtype=complex)
    vec[0] = 1.0
    prepare = lambda: multiparticle.product_state([vec], spec.walk_dim)
    return [
        verify_cli_job("control:verify-inject-fault", config, workdir, 0, 3, fault),
        evolution_job("control:perturbed-norm-reference", spec, prepare, 2, norm_reference=1.0 + 1e-9),
    ]


# ---------------------------------------------------------------- size ladder


def _time(fn, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return median(samples)


def size_ladder(rng: np.random.Generator) -> dict[str, float]:
    """Median seconds of each hot kernel at three sizes (per-layer, not gated)."""
    out = {}
    for n in (128, 256, 512):
        out[f"ladder.walk1d.walk_matrix_1d.N{n}_s"] = _time(lambda: walk1d.walk_matrix_1d(n, THETA))
    for n in (8, 12, 16):
        spec = lattice.make_lattice(2, n, 1.0, 1.0, THETA)
        out[f"ladder.walk2d.build_walk_unitary_2d.N{n}_s"] = _time(lambda: walk2d.build_walk_unitary_2d(spec))
    labels = lattice.energy_labels(lattice.make_lattice(1, 6, 1.0, 1.0, THETA))
    for m in (8, 10, 12):
        basis = fock.fock_basis(labels[:m])
        label = basis.modes[m // 2]
        out[f"ladder.fock.creation_op.M{m}_s"] = _time(lambda: fock.creation_op(basis, label))
    coin = qca.build_local_coin(THETA)
    for q in (16, 18, 20):
        cells = qca.CellLattice(n_sites=q // 2, n_types=1)
        state = rng.standard_normal(cells.dim) + 1j * rng.standard_normal(cells.dim)
        state /= np.linalg.norm(state)
        out[f"ladder.qca.qca_step.q{q}_s"] = _time(lambda: qca.qca_step(cells, coin, state))
    return out
