"""Named invariant suites with a uniform pass/fail report schema.

Each check yields {check, max_residual, tolerance, pass}; the CLI turns a
list of these into JSON and an exit status.  Boolean facts are encoded as
residual 0 or 1 against tolerance 0.5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import dirac, fock, multiparticle, qca, walk
from .lattice import EnergyModeLabel, LatticeSpec, energy_labels, momentum_grid

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    check: str
    max_residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _result(name: str, residual: float, tol: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tol, residual < tol)


def _bool_result(name: str, ok: bool) -> CheckResult:
    return CheckResult(name, 0.0 if ok else 1.0, 0.5, ok)


@dataclass(frozen=True)
class VerifyOptions:
    spec1d: LatticeSpec
    spec2d: LatticeSpec
    n_max: int = 3
    n_random: int = 30
    qca_sites: int = 3
    qca_types: int = 2
    tol: float = DEFAULT_TOL
    seed: int = 0
    inject_fault: str | None = None

    def __post_init__(self):
        # Zero samples, or only the vacuum (n_max 0), would let the
        # preservation and intertwining checks pass untested.
        for name in ("n_max", "n_random"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # An infinite tolerance passes every residual check; 0, -1 or nan fails them all.
        if not (isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


def _unitarity_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _qca_coin(options: VerifyOptions, theta: float) -> np.ndarray:
    if options.inject_fault:
        return qca.faulty_local_coin(options.inject_fault, theta)
    return qca.build_local_coin(theta)


def check_unitarity(options: VerifyOptions) -> list[CheckResult]:
    res = [
        _result(
            f"walk-{spec.dimension}d-unitarity",
            _unitarity_residual(walk.build_walk_unitary(spec)),
            options.tol,
        )
        for spec in (options.spec1d, options.spec2d)
    ]
    lattice = qca.CellLattice(n_sites=3, n_types=1)
    coin = _qca_coin(options, options.spec1d.theta)
    step = qca.qca_step_operator(lattice, coin)
    res.append(_result("qca-step-unitarity", _unitarity_residual(step), options.tol))
    return res


def check_blocks(options: VerifyOptions) -> list[CheckResult]:
    specs = (options.spec1d, options.spec2d)
    res = [
        _result(
            f"block-consistency-{spec.dimension}d",
            walk.verify_block_consistency(spec),
            options.tol,
        )
        for spec in specs
    ]
    norm_dev = 0.0
    phase_dev = 0.0
    vec_dev = 0.0
    for spec in specs:
        for mode in momentum_grid(spec):
            block = walk.momentum_block(spec, mode)
            norm_dev = max(norm_dev, abs(sum(c * c for c in block.r) - 1.0))
            eig = np.sort(np.angle(np.linalg.eigvals(block.matrix)))
            phase_dev = max(
                phase_dev, float(np.max(np.abs(eig - np.array([-block.phi, block.phi]))))
            )
            if not block.degenerate:
                lam = np.exp(1j * block.phi)
                vec_dev = max(
                    vec_dev,
                    float(np.linalg.norm(block.matrix @ block.v_plus - lam * block.v_plus)),
                    float(
                        np.linalg.norm(
                            block.matrix @ block.v_minus - lam.conjugate() * block.v_minus
                        )
                    ),
                )
    res.append(_result("pauli-normalization", norm_dev, options.tol))
    res.append(_result("eigenphase-law", phase_dev, options.tol))
    res.append(_result("eigenvector-residual", vec_dev, options.tol))
    return res


def check_car(options: VerifyOptions) -> list[CheckResult]:
    labels = energy_labels(options.spec1d)[:6]
    basis = fock.fock_basis(labels)
    eye = np.eye(basis.dim)
    create = {lab: fock.creation_op(basis, lab).matrix for lab in basis.modes}
    annih = {lab: mat.conj().T for lab, mat in create.items()}
    worst = 0.0
    for la, lb in itertools.product(basis.modes, repeat=2):
        delta = eye if la == lb else 0.0
        worst = max(
            worst,
            float(np.max(np.abs(fock.anticommutator(create[la], create[lb])))),
            float(np.max(np.abs(fock.anticommutator(annih[la], annih[lb])))),
            float(np.max(np.abs(fock.anticommutator(annih[la], create[lb]) - delta))),
        )
    sq = max(
        float(np.max(np.abs(create[lab] @ create[lab]))) for lab in basis.modes
    )
    vacuum = np.zeros(basis.dim, dtype=complex)
    vacuum[0] = 1.0
    vac = max(
        float(np.linalg.norm(annih[lab] @ vacuum)) for lab in basis.modes
    )
    return [
        _result("car-anticommutators", worst, options.tol),
        _result("car-creation-squared", sq, options.tol),
        _result("car-vacuum-annihilation", vac, options.tol),
    ]


def check_preservation(options: VerifyOptions) -> list[CheckResult]:
    rng = np.random.default_rng(options.seed)
    out = []
    for name, spec, n_max in (
        ("physical-preservation-1d", options.spec1d, min(options.n_max, 3)),
        ("physical-preservation-2d", options.spec2d, min(options.n_max, 2)),
    ):
        worst = 0.0
        for _ in range(options.n_random):
            state = multiparticle.random_physical_state(spec.walk_dim, n_max, rng)
            evolved = multiparticle.total_evolution_apply(spec, n_max, state)
            worst = max(
                worst, multiparticle.physical_subspace_projector_residual(evolved)
            )
        out.append(_result(name, worst, options.tol))
    return out


def _labels_up_to(spec: LatticeSpec, n: int):
    labels = energy_labels(spec)
    for size in range(n + 1):
        yield from itertools.combinations(labels, size)


def check_eigenphase(options: VerifyOptions) -> list[CheckResult]:
    spec1 = LatticeSpec(1, 2, options.spec1d.dx, options.spec1d.dt, options.spec1d.theta)
    worst1 = max(
        multiparticle.eigenphase_check(spec1, labels, 3)
        for labels in _labels_up_to(spec1, 3)
    )
    worst2 = max(
        multiparticle.eigenphase_check(options.spec2d, labels, 2)
        for labels in _labels_up_to(options.spec2d, 2)
    )
    return [
        _result("multiparticle-eigenphase-1d", worst1, options.tol),
        _result("multiparticle-eigenphase-2d", worst2, options.tol),
    ]


def momentum_ops_residual(spec: LatticeSpec) -> float:
    """Max entrywise deviation of the conjugated pair from the block action.

    Checks the first two non-degenerate modes of the grid over the Fock
    basis of their four branches.  The column (a_R+, a_L+) conjugates by
    the transpose of the block, so each conjugated operator is matched
    against the corresponding column combination.
    """
    blocks = [walk.momentum_block(spec, mode) for mode in momentum_grid(spec)]
    blocks = [block for block in blocks if not block.degenerate][:2]
    if not blocks:
        raise ValueError(
            f"every momentum block of the {spec.dimension}D N={spec.N} lattice at "
            f"theta={spec.theta} is degenerate; the momentum-ops check has no mode to test"
        )
    basis = fock.fock_basis(
        EnergyModeLabel(block.mode, branch) for block in blocks for branch in (-1, 1)
    )
    evo = fock.evolution_diagonal(basis, spec).matrix
    worst = 0.0
    for block in blocks:
        pair = [op.matrix for op in fock.momentum_mode_ops(basis, spec, block.mode)]
        for i in range(2):
            conj = evo @ pair[i] @ evo.conj().T
            combo = block.matrix[0, i] * pair[0] + block.matrix[1, i] * pair[1]
            worst = max(worst, float(np.max(np.abs(conj - combo))))
    return worst


def check_momentum_ops(options: VerifyOptions) -> list[CheckResult]:
    return [
        _result(
            "momentum-ops-conjugation-1d",
            momentum_ops_residual(options.spec1d),
            options.tol,
        ),
        _result(
            "momentum-ops-conjugation-2d",
            momentum_ops_residual(options.spec2d),
            options.tol,
        ),
    ]


def intertwining_residual(spec: LatticeSpec, n_max: int) -> float:
    """Fock evolution vs factor-wise evolution through the bitstring map."""
    basis = fock.full_fock_basis(spec)
    evo = fock.evolution_diagonal(basis, spec).matrix
    worst = 0.0
    for bits in range(basis.dim):
        if bin(bits).count("1") > n_max:
            continue
        mapped = fock.fock_to_firstquantized(basis, bits, spec, n_max)
        evolved = multiparticle.total_evolution_apply(spec, n_max, mapped)
        phase = evo[bits, bits]
        worst = max(
            worst,
            float(np.linalg.norm(evolved.amplitudes - phase * mapped.amplitudes)),
        )
    return worst


def check_intertwine(options: VerifyOptions) -> list[CheckResult]:
    # Not N=2: on two sites a +1 roll equals a -1 roll, so a direction error passes.
    spec1 = LatticeSpec(1, 4, options.spec1d.dx, options.spec1d.dt, options.spec1d.theta)
    return [
        _result(
            "fock-firstquantized-intertwining",
            intertwining_residual(spec1, min(options.n_max, 3)),
            options.tol,
        )
    ]


def check_qca_number(options: VerifyOptions) -> list[CheckResult]:
    lattice = qca.CellLattice(n_sites=options.qca_sites, n_types=1)
    coin = _qca_coin(options, options.spec1d.theta)
    rng = np.random.default_rng(options.seed)
    worst = 0.0
    for _ in range(5):
        state = rng.standard_normal(lattice.dim) + 1j * rng.standard_normal(lattice.dim)
        state /= np.linalg.norm(state)
        before = qca.type_number_expectations(lattice, state)
        after = qca.type_number_expectations(lattice, qca.qca_step(lattice, coin, state))
        worst = max(worst, float(np.max(np.abs(after - before))))
    return [_result("qca-number-conservation", worst, options.tol)]


def check_isomorphism(options: VerifyOptions) -> list[CheckResult]:
    theta = options.spec1d.theta
    coin = _qca_coin(options, theta)
    res = [
        _result(
            "qca-one-particle-sector",
            qca.one_particle_sector_isomorphism(options.qca_sites, 1, theta, coin=coin),
            options.tol,
        )
    ]
    if options.qca_types >= 2:
        res.append(
            _result(
                "qca-multi-type-sector",
                qca.one_particle_sector_isomorphism(
                    options.qca_sites, options.qca_types, theta, coin=coin
                ),
                options.tol,
            )
        )
    return res


def check_locality(options: VerifyOptions) -> list[CheckResult]:
    report = qca.locality_check(options.qca_sites, 1, options.spec1d.theta)
    return [
        _bool_result("qca-shift-nearest-neighbor", report.shift_nearest_neighbor),
        _result("qca-coin-site-support", report.coin_conjugation_residual, options.tol),
        _bool_result(
            "qca-light-cone",
            report.light_cone_radius_per_step == 1 and report.spread_within_cone,
        ),
    ]


def check_dispersion(options: VerifyOptions) -> list[CheckResult]:
    # In 2D the dispersion relative error is quadratic only when one of
    # (k_x*dx, k_y*dx, theta) vanishes; on generic rays the k_x*k_y*theta
    # anisotropy makes it linear, so only the generator deviation is held
    # to second order there.
    def order_dev(study, orders):
        if study.exact:
            return 0.0
        return max(abs(o - 2.0) for o in orders if o is not None)

    study_1d = dirac.convergence_study(options.spec1d, halvings=3)
    study_axis = dirac.convergence_study(options.spec2d, halvings=3, base_k_dx=(0.1, 0.0))
    study_generic = dirac.convergence_study(options.spec2d, halvings=3)
    results = [
        (
            "dispersion-order-1d",
            order_dev(study_1d, (study_1d.dispersion_order, study_1d.generator_order)),
        ),
        (
            "dispersion-order-2d-axis",
            order_dev(study_axis, (study_axis.dispersion_order, study_axis.generator_order)),
        ),
        ("generator-order-2d", order_dev(study_generic, (study_generic.generator_order,))),
    ]
    return [CheckResult(name, dev, 0.2, dev <= 0.2) for name, dev in results]


SUITES = {
    "unitarity": check_unitarity,
    "blocks": check_blocks,
    "car": check_car,
    "preservation": check_preservation,
    "eigenphase": check_eigenphase,
    "momentum-ops": check_momentum_ops,
    "intertwine": check_intertwine,
    "qca-number": check_qca_number,
    "isomorphism": check_isomorphism,
    "locality": check_locality,
    "dispersion": check_dispersion,
}


def run_verification(options: VerifyOptions, only=None) -> list[CheckResult]:
    names = list(SUITES)
    if only:
        unknown = [n for n in only if n not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; available: {names}")
        names = [n for n in names if n in set(only)]
    results = []
    for name in names:
        results.extend(SUITES[name](options))
    return results
