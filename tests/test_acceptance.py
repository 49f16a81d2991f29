"""Acceptance suite: every contract criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

import itertools
from math import acos, cos, pi, sqrt

import numpy as np
import pytest

from walkqca import dirac, fock, multiparticle, qca
from walkqca.cli import main as cli_main
from walkqca.lattice import (
    EnergyModeLabel,
    energy_labels,
    make_lattice,
    momentum_grid,
    momentum_mode,
)
from walkqca.walk import momentum_state
from walkqca.walk1d import (
    build_walk_unitary_1d,
    momentum_block_1d,
    verify_block_consistency,
)
from walkqca.walk2d import (
    build_walk_unitary_2d,
    momentum_block_2d,
    verify_block_consistency_2d,
)

TOL = 1e-12


def report(cid: str, description: str, worst: float, tol: float = TOL) -> None:
    ok = worst < tol
    print(f"[acceptance {cid}] {'PASS' if ok else 'FAIL'} {description}: "
          f"residual {worst:.3e} (tol {tol:g})")
    assert ok, f"{cid} failed: {description} residual {worst:.3e} >= {tol:g}"


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def test_criterion_1_unitarity():
    u1 = build_walk_unitary_1d(make_lattice(1, 64, 1.0, 1.0, 0.3))
    u2 = build_walk_unitary_2d(make_lattice(2, 16, 1.0, 1.0, 0.3))
    worst = max(unitarity_defect(u1), unitarity_defect(u2))
    report("C1", "walk unitarity (1D N=64, 2D N=16)", worst)


def test_criterion_2_block_diagonalization():
    worst = 0.0
    for spec in (make_lattice(1, 8, 1.0, 1.0, 0.3), make_lattice(1, 6, 0.5, 1.0, 1.1)):
        worst = max(worst, verify_block_consistency(spec))
        for mode in momentum_grid(spec):
            block = momentum_block_1d(spec, mode)
            worst = max(worst, abs(sum(c * c for c in block.r) - 1.0))
    for spec in (make_lattice(2, 4, 1.0, 1.0, 0.3), make_lattice(2, 4, 1.0, 1.0, 0.9)):
        worst = max(worst, verify_block_consistency_2d(spec))
        for mode in momentum_grid(spec):
            block = momentum_block_2d(spec, mode)
            worst = max(worst, abs(sum(c * c for c in block.r) - 1.0))
    report("C2", "momentum blocks match the dense walk; coefficients normalized", worst)


def test_criterion_3_eigenphase_law():
    # oracle per mode: project the dense walk onto the momentum pair and
    # diagonalize numerically, independent of the closed forms
    worst = 0.0
    spec1 = make_lattice(1, 8, 1.0, 1.0, 0.3)
    u1 = build_walk_unitary_1d(spec1)
    for mode in momentum_grid(spec1):
        plane = momentum_state(spec1, mode)
        pair = np.column_stack([np.kron(plane, e) for e in np.eye(2)])
        phases = np.sort(np.angle(np.linalg.eigvals(pair.conj().T @ u1 @ pair)))
        law = acos(max(-1.0, min(1.0, cos(mode.k[0] * spec1.dx) * cos(spec1.theta))))
        worst = max(worst, float(np.max(np.abs(phases - [-law, law]))))
        worst = max(worst, abs(cos(momentum_block_1d(spec1, mode).phi)
                               - cos(mode.k[0] * spec1.dx) * cos(spec1.theta)))
    spec2 = make_lattice(2, 4, 1.0, 1.0, 0.3)
    u2 = build_walk_unitary_2d(spec2)
    for mode in momentum_grid(spec2):
        plane = momentum_state(spec2, mode)
        pair = np.column_stack([np.kron(plane, e) for e in np.eye(2)])
        phases = np.sort(np.angle(np.linalg.eigvals(pair.conj().T @ u2 @ pair)))
        block = momentum_block_2d(spec2, mode)
        law = acos(max(-1.0, min(1.0, block.r[0])))
        worst = max(worst, float(np.max(np.abs(phases - [-law, law]))))
        worst = max(worst, abs(cos(block.phi) - block.r[0]))

    # frozen spot value, computed by the same independent oracle
    phi_spot = acos(cos(0.1) * cos(0.05))
    worst = max(worst, abs(phi_spot - 0.11176609378183253))
    report("C3", "eigenphase law vs independent diagonalization", worst)


def test_criterion_4_physical_subspace_preservation():
    worst = 0.0
    count = 0
    for spec, n_max, seed in (
        (make_lattice(1, 4, 1.0, 1.0, 0.3), 3, 41),
        (make_lattice(2, 2, 1.0, 1.0, 0.3), 2, 42),
    ):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            state = multiparticle.random_physical_state(spec.walk_dim, n_max, rng)
            evolved = multiparticle.total_evolution_apply(spec, n_max, state)
            worst = max(
                worst, multiparticle.physical_subspace_projector_residual(evolved)
            )
            count += 1
    assert count >= 100
    report("C4", f"physical subspace preserved over {count} random states", worst)


def test_criterion_5_multiparticle_eigenphases():
    worst = 0.0
    for spec in (make_lattice(1, 2, 1.0, 1.0, 0.3), make_lattice(2, 2, 1.0, 1.0, 0.3)):
        labels = energy_labels(spec)
        for n in range(4):
            for combo in itertools.combinations(labels, n):
                worst = max(worst, multiparticle.eigenphase_check(spec, combo, 3))
    report("C5", "every n <= 3 energy-basis label is an eigenstate", worst)


def test_criterion_6_car_suite():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    basis = fock.fock_basis(energy_labels(spec)[:6])
    eye = np.eye(basis.dim)
    cre = {lab: fock.creation_op(basis, lab).matrix for lab in basis.modes}
    worst = 0.0
    for la, lb in itertools.product(basis.modes, repeat=2):
        delta = eye if la == lb else np.zeros_like(eye)
        ann_a = cre[la].conj().T
        worst = max(
            worst,
            float(np.max(np.abs(fock.anticommutator(cre[la], cre[lb])))),
            float(np.max(np.abs(fock.anticommutator(ann_a, cre[lb].conj().T)))),
            float(np.max(np.abs(fock.anticommutator(ann_a, cre[lb]) - delta))),
        )
    vacuum = np.zeros(basis.dim, dtype=complex)
    vacuum[0] = 1.0
    for lab in basis.modes:
        worst = max(worst, float(np.max(np.abs(cre[lab] @ cre[lab]))))
        worst = max(worst, float(np.linalg.norm(cre[lab].conj().T @ vacuum)))
    report("C6", "canonical anticommutation relations on 6 modes", worst)


def test_criterion_7_momentum_operator_evolution():
    # the conjugated creation pair reproduces the momentum block entry by
    # entry; the pair column picks up the transpose of the block (the
    # amplitude-convention equations have their off-diagonals swapped)
    worst = 0.0
    for spec, block_of in (
        (make_lattice(1, 2, 1.0, 1.0, 0.3), momentum_block_1d),
        (make_lattice(2, 2, 1.0, 1.0, 0.3), momentum_block_2d),
    ):
        labels = energy_labels(spec)[:4]
        basis = fock.fock_basis(labels)
        assert basis.dim == 16  # M = 4 modes
        evo = fock.evolution_diagonal(basis, spec).matrix
        for mode in {lab.mode for lab in labels}:
            m = block_of(spec, mode).matrix
            a_r, a_l = fock.momentum_mode_ops(basis, spec, mode)
            pair = (a_r.matrix, a_l.matrix)
            for i in range(2):
                conj = evo @ pair[i] @ evo.conj().T
                combo = m[0, i] * pair[0] + m[1, i] * pair[1]
                worst = max(worst, float(np.max(np.abs(conj - combo))))
    report("C7", "momentum-pair conjugation reproduces the block (M = 4 bases)", worst)


def test_criterion_8_intertwining():
    worst = 0.0
    for spec, n_max in (
        (make_lattice(1, 2, 1.0, 1.0, 0.3), 3),
        (make_lattice(2, 2, 1.0, 1.0, 0.3), 3),
    ):
        basis = fock.full_fock_basis(spec)
        evo = fock.evolution_diagonal(basis, spec).matrix
        images = []
        for bits in range(basis.dim):
            if bin(bits).count("1") > n_max:
                continue
            mapped = fock.fock_to_firstquantized(basis, bits, spec, n_max)
            evolved = multiparticle.total_evolution_apply(spec, n_max, mapped)
            worst = max(
                worst,
                float(
                    np.linalg.norm(
                        evolved.amplitudes - evo[bits, bits] * mapped.amplitudes
                    )
                ),
            )
            images.append(mapped.amplitudes)
        gram = np.array([[np.vdot(a, b) for b in images] for a in images])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(images))))))
    report("C8", "occupation map intertwines the evolutions and is isometric", worst)


def test_criterion_9_qca_embedding():
    worst = max(
        qca.one_particle_sector_isomorphism(3, 1, 0.3),
        qca.one_particle_sector_isomorphism(3, 2, 0.3),
    )
    rep = qca.locality_check(3, 1, 0.3)
    light_cone_ok = rep.light_cone_radius_per_step == 1 and rep.spread_within_cone
    worst = max(worst, rep.coin_conjugation_residual, 0.0 if light_cone_ok else 1.0)
    report("C9", "automaton sectors match the walk evolutions; 1-site light cone", worst)


def test_criterion_10_dirac_limit():
    worst_order = 0.0
    study_1d = dirac.convergence_study(make_lattice(1, 8, 1.0, 1.0, 0.05), 3)
    for order in (study_1d.dispersion_order, study_1d.generator_order):
        worst_order = max(worst_order, abs(order - 2.0))
    # the criterion's base (k dx, theta) = (0.1, 0.05) has a single
    # momentum component; in 2D that is the k_y = 0 axis
    study_axis = dirac.convergence_study(
        make_lattice(2, 8, 1.0, 1.0, 0.05), 3, base_k_dx=(0.1, 0.0)
    )
    for order in (study_axis.dispersion_order, study_axis.generator_order):
        worst_order = max(worst_order, abs(order - 2.0))
    # on the generic 2D ray only the generator deviation is quadratic
    study_generic = dirac.convergence_study(make_lattice(2, 8, 1.0, 1.0, 0.05), 3)
    worst_order = max(worst_order, abs(study_generic.generator_order - 2.0))

    rest = 0.0
    for spec in (make_lattice(1, 8, 1.0, 1.0, 0.3), make_lattice(2, 4, 1.0, 1.0, 0.3)):
        zero = momentum_mode(spec, (0,) * spec.dimension)
        rec = dirac.dispersion_record(spec, zero)
        rest = max(rest, abs(rec.phi_over_dt - spec.mc2))
    ok = worst_order <= 0.2 and rest < TOL
    print(
        f"[acceptance C10] {'PASS' if ok else 'FAIL'} relativistic limit: "
        f"max order deviation {worst_order:.3f} (window 0.2), rest energy residual {rest:.3e}"
    )
    assert ok


def test_criterion_11_negative_control(tmp_path):
    code_bad = cli_main(
        [
            "verify",
            "--out",
            str(tmp_path / "bad"),
            "--inject-fault",
            "coin-nonconserving",
        ]
    )
    code_good = cli_main(["verify", "--out", str(tmp_path / "good")])
    ok = code_bad == 1 and code_good == 0
    print(
        f"[acceptance C11] {'PASS' if ok else 'FAIL'} negative control: "
        f"faulty coin exit {code_bad}, clean run exit {code_good}"
    )
    assert ok
