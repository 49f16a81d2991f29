"""Named invariant suites with a uniform pass/fail report schema.

Each check yields {check, max_residual, tolerance, pass}; the CLI turns a
list of these into JSON and an exit status.  Boolean facts are encoded as
residual 0 or 1 against tolerance 0.5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import comb, isfinite

import numpy as np

from . import blocks, dirac, fock, multiparticle, qca, walk
from .lattice import EnergyModeLabel, LatticeSpec, energy_labels, momentum_mode

DEFAULT_TOL = 1e-12

# Largest particle number of the 1D preservation and intertwining checks.
N_MAX_CAP = 3
# What the blocks and momentum-ops suites would leave untested on check lattices whose every block is degenerate.
NO_VECTOR, NO_MODE = "the eigenvector-residual check has no vector to test", "the momentum-ops check has no mode to test"


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
    tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)  # live_tables' memo of block tables

    def __post_init__(self):
        # Zero samples, or only the vacuum (n_max 0), would let the
        # preservation and intertwining checks pass untested, and fewer
        # than one type would skip the multi-type sector without a word.
        for name in ("n_max", "n_random", "qca_types"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # A larger n_max would be capped by every check that reads it.
        if self.n_max > N_MAX_CAP:
            raise ValueError(f"verify.n_max must be at most {N_MAX_CAP}, got {self.n_max}")
        # An infinite tolerance passes every residual check; 0, -1 or nan fails them all.
        if not (isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        # A negative seed and the automaton size are refused here, before any suite has run.
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        try:
            qca.CellLattice(self.qca_sites, self.qca_types)
        except ValueError as exc:
            raise ValueError(f"qca_sites {self.qca_sites}, qca_types {self.qca_types}: {exc}") from None


def _unitarity_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _qca_coin(options: VerifyOptions, theta: float) -> np.ndarray:
    if options.inject_fault:
        return qca.faulty_local_coin(options.inject_fault, theta)
    return qca.build_local_coin(theta)


def _cap_lattices(options: VerifyOptions, what: str, attribute: str, cap: int) -> None:
    for spec in (options.spec1d, options.spec2d):
        if (size := getattr(spec, attribute)) > cap:
            raise ValueError(f"verify.n_{spec.dimension}d {spec.N}: the {spec.dimension}D {what} is {size}, over the cap of {cap}")


def check_unitarity(options: VerifyOptions) -> list[CheckResult]:
    specs = (options.spec1d, options.spec2d)
    res = [_result(f"walk-{s.dimension}d-unitarity", _unitarity_residual(walk.build_walk_unitary(s)), options.tol) for s in specs]
    lattice = qca.CellLattice(n_sites=3, n_types=1)
    coin = _qca_coin(options, options.spec1d.theta)
    step = qca.qca_step_operator(lattice, coin)
    res.append(_result("qca-step-unitarity", _unitarity_residual(step), options.tol))
    return res


def vector_norms(vectors: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a 2D complex array, bit for bit as np.linalg.norm takes it.

    It takes the same two dots, real parts and imaginary parts, for every
    row in one batched matmul; a norm along an axis rounds differently.
    """
    re, im = vectors.real, vectors.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).reshape(-1)


def live_tables(specs, untested: str, memo: dict | None = None) -> list[dict]:
    """walk.block_table of each spec, read from or built into `memo` by lattice; refused if every block is degenerate: untested."""
    memo = {} if memo is None else memo
    tables = [memo[spec] if spec in memo else memo.setdefault(spec, walk.block_table(spec)) for spec in specs]
    if not any((table["degenerate"] == 0).any() for table in tables):
        lattices = " and ".join(f"{spec.dimension}D N={spec.N}" for spec in specs) + " lattice" + "s" * (len(specs) > 1)
        raise ValueError(f"every momentum block of the {lattices} at theta={specs[0].theta} is degenerate; {untested}")
    return tables


def check_blocks(options: VerifyOptions) -> list[CheckResult]:
    specs = (options.spec1d, options.spec2d)
    tables = live_tables(specs, NO_VECTOR, options.tables)
    res = [
        _result(f"block-consistency-{spec.dimension}d", walk.verify_block_consistency(spec, table), options.tol)
        for spec, table in zip(specs, tables)
    ]
    column = lambda name: np.concatenate([table[name] for table in tables])
    r = np.stack([column(f"r{i}") for i in range(4)])
    phi, live = column("phi"), column("degenerate") == 0
    mats = blocks.matrix_from_r(r)
    eig = np.sort(np.angle(np.linalg.eigvals(mats)))
    # M v - lam v for v_plus with exp(i*phi) and v_minus with exp(-i*phi), where defined
    vecs = np.stack(blocks.eigenvector_pair(r[:, live]), axis=1)[..., None]
    lam = np.exp(1j * phi[live])
    dev = mats[live, None] @ vecs - np.stack([lam, lam.conj()], axis=-1)[..., None, None] * vecs
    norm_dev = np.max(np.abs(sum(c * c for c in r) - 1.0))
    gap = np.abs(eig - np.stack([-phi, phi], axis=-1))
    phase_dev = np.max(np.minimum(gap, 2 * np.pi - gap))  # phases agree modulo 2*pi
    vec_dev = np.max(vector_norms(dev.reshape(-1, 2)))
    res.append(_result("pauli-normalization", norm_dev, options.tol))
    res.append(_result("eigenphase-law", phase_dev, options.tol))
    res.append(_result("eigenvector-residual", vec_dev, options.tol))
    return res


def check_car(options: VerifyOptions) -> list[CheckResult]:
    labels = energy_labels(options.spec1d)[:6]
    basis = fock.fock_basis(labels)
    eye = fock.diagonal_op(np.ones(basis.dim))
    create = {lab: fock.creation_op(basis, lab) for lab in basis.modes}
    annih = {lab: op.adjoint() for lab, op in create.items()}
    worst = 0.0
    for la, lb in itertools.product(basis.modes, repeat=2):
        mixed = fock.anticommutator(annih[la], create[lb])
        worst = max(
            worst,
            fock.anticommutator(create[la], create[lb]).max_abs(),
            fock.anticommutator(annih[la], annih[lb]).max_abs(),
            (mixed - eye if la == lb else mixed).max_abs(),
        )
    sq = max((op @ op).max_abs() for op in create.values())
    # a |vacuum>: each map's weight at the vacuum column
    vac = max(float(np.linalg.norm(op.weight[:, 0])) for op in annih.values())
    return [
        _result("car-anticommutators", worst, options.tol),
        _result("car-creation-squared", sq, options.tol),
        _result("car-vacuum-annihilation", vac, options.tol),
    ]


# The eigenphase suite builds a dense state per label set: `--only eigenphase` took 0.5-0.6, 2.9-3.3, 14-16 s, 37-42 MB
# at n_2d 6, 8, 10: 1.4e7, 1.4e8, 8.1e8 states x amplitudes (3 fresh processes each, 2-vCPU Xeon); n_2d 12 is 3.5e9.
EIGENPHASE_WORK_CAP = 10**9


def _admit_states(suite: str, states, work_cap: float = float("inf")) -> None:
    """Refuse a dense state over the amplitude cap, or label sets times amplitudes over `work_cap`, naming its lattice."""
    for spec, n in states:
        try:
            size = multiparticle.dense_size(spec.walk_dim, n)
            sets = sum(comb(spec.walk_dim, k) for k in range(n + 1))  # _labels_up_to: up to n of the walk_dim labels
            if sets * size > work_cap:
                raise ValueError(f"{sets} label sets of {size} amplitudes, over the cap of {work_cap} in all")
        except ValueError as exc:
            # only a check lattice can be that large: 1D N=2 with 3 particles is 125 amplitudes
            raise ValueError(f"verify.n_{spec.dimension}d {spec.N}: {n} particles in the {suite} suite: {exc}") from None


def preservation_states(options: VerifyOptions):  # the (lattice, particle count) of each dense state the suite steps
    return ((options.spec1d, options.n_max), (options.spec2d, min(options.n_max, 2)))


def check_preservation(options: VerifyOptions) -> list[CheckResult]:
    rng = np.random.default_rng(options.seed)
    out = []
    for spec, n_max in preservation_states(options):
        residuals = []
        for _ in range(options.n_random):
            # Each drawn state is let go once stepped, and each stepped state once the next draw is made.
            # Let go before the draw, its pages went back to the system and the draw faulted them in again.
            state = multiparticle.random_physical_state(spec.walk_dim, n_max, rng)
            state = multiparticle.total_evolution_apply(spec, n_max, state)
            residuals.append(multiparticle.physical_subspace_projector_residual(state))
        out.append(_result(f"physical-preservation-{spec.dimension}d", max(residuals), options.tol))
    return out


def _labels_up_to(spec: LatticeSpec, n: int):
    labels = energy_labels(spec)
    for size in range(n + 1):
        yield from itertools.combinations(labels, size)


def eigenphase_states(options: VerifyOptions):  # the (lattice, particle count) of each label-set sweep of the suite
    return ((replace(options.spec1d, N=2), 3), (options.spec2d, 2))


def check_eigenphase(options: VerifyOptions) -> list[CheckResult]:
    res = []
    for spec, n in eigenphase_states(options):
        residual = multiparticle.eigenphase_check(spec, _labels_up_to(spec, n), n)
        res.append(_result(f"multiparticle-eigenphase-{spec.dimension}d", residual, options.tol))
    return res


def momentum_ops_residual(spec: LatticeSpec, tables: dict | None = None) -> float:
    """Max entrywise deviation of the conjugated pair from the block action.

    Checks the first two non-degenerate modes of :func:`walk.block_table`, their blocks
    formed from its r, over the Fock basis of their four branches.  The column (a_R+, a_L+)
    conjugates by the transpose of the block, so each conjugated operator is matched
    against the corresponding column combination.  `tables` is :func:`live_tables`' memo.
    """
    (table,) = live_tables([spec], NO_MODE, tables)
    live = np.flatnonzero(table["degenerate"] == 0)[:2]
    ells = np.stack([table[name][live] for name in walk.MODE_COLUMNS[spec.dimension][: spec.dimension]], axis=-1)
    modes = [momentum_mode(spec, ell) for ell in ells.tolist()]
    basis = fock.fock_basis(EnergyModeLabel(mode, branch) for mode in modes for branch in (-1, 1))
    evo = fock.evolution_diagonal(basis, spec)
    worst = 0.0
    for mode, matrix in zip(modes, blocks.matrix_from_r([table[f"r{i}"][live] for i in range(4)])):
        pair = fock.momentum_mode_ops(basis, spec, mode)
        for i in range(2):
            # a product with a diagonal map multiplies each weight by a phase
            conj = evo @ pair[i] @ evo.adjoint()
            combo = matrix[0, i] * pair[0] + matrix[1, i] * pair[1]
            worst = max(worst, (conj - combo).max_abs())
    return worst


def check_momentum_ops(options: VerifyOptions) -> list[CheckResult]:
    residuals = {spec.dimension: momentum_ops_residual(spec, options.tables) for spec in (options.spec1d, options.spec2d)}
    return [_result(f"momentum-ops-conjugation-{dimension}d", residual, options.tol) for dimension, residual in residuals.items()]


def intertwining_residual(spec: LatticeSpec, n_max: int) -> float:
    """Fock evolution vs factor-wise evolution through the bitstring map."""
    basis = fock.full_fock_basis(spec)
    phases = fock.evolution_diagonal(basis, spec).weight[0]
    occupied = (bits for bits in range(basis.dim) if bin(bits).count("1") <= n_max)
    pairs = ((fock.created_labels(basis, bits), phases[bits]) for bits in occupied)
    return multiparticle.eigenstate_residual(spec, n_max, pairs)


def check_intertwine(options: VerifyOptions) -> list[CheckResult]:
    # Not N=2: on two sites a +1 roll equals a -1 roll, so a direction error passes.
    residual = intertwining_residual(replace(options.spec1d, N=4), options.n_max)
    return [_result("fock-firstquantized-intertwining", residual, options.tol)]


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
    sectors = {"one-particle": 1, "multi-type": options.qca_types}
    if options.qca_types < 2:  # one type is the one-particle sector again
        del sectors["multi-type"]
    return [
        _result(
            f"qca-{name}-sector",
            qca.one_particle_sector_isomorphism(options.qca_sites, n_types, theta, coin=coin),
            options.tol,
        )
        for name, n_types in sectors.items()
    ]


def check_locality(options: VerifyOptions) -> list[CheckResult]:
    # Not 3 sites: on a 3-site ring a +2 hop equals a -1 hop, so a shift that hops twice passes.
    report = qca.locality_check(max(options.qca_sites, 4), 1, options.spec1d.theta)
    return [
        _bool_result("qca-shift-nearest-neighbor", report.shift_nearest_neighbor),
        _result("qca-coin-site-support", report.coin_conjugation_residual, options.tol),
        _bool_result(
            "qca-light-cone",
            report.light_cone_radius_per_step == 1 and report.spread_within_cone,
        ),
    ]


# The (check, lattice, base k*dx) of each convergence study of the dispersion suite.
# The generic 2D ray holds the generator alone to second order (dirac.held_orders).
def dispersion_studies(options: VerifyOptions):
    return (
        ("dispersion-order-1d", options.spec1d, dirac.DEFAULT_BASE_K_DX[1]),
        ("dispersion-order-2d-axis", options.spec2d, (0.1, 0.0)),
        ("generator-order-2d", options.spec2d, dirac.DEFAULT_BASE_K_DX[2]),
    )


def check_dispersion(options: VerifyOptions) -> list[CheckResult]:
    res = []
    for name, spec, base_k_dx in dispersion_studies(options):
        study = dirac.convergence_study(spec, halvings=3, base_k_dx=base_k_dx)
        first = study.rows[0]
        orders = [getattr(study, key) for key in dirac.held_orders(first.k_dx, first.theta)]
        if not study.exact and all(o is None for o in orders):
            raise ValueError(f"{name}: the convergence study fits none of the orders it holds")
        dev = 0.0 if study.exact else max(abs(o - 2.0) for o in orders if o is not None)
        res.append(_result(name, dev, 0.2))
    return res


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
# Suites that refuse inputs: each entry raises ValueError naming the key before any suite runs; its result is unused.
ADMIT = {
    "unitarity": lambda o: _cap_lattices(o, "dense walk dimension (unitarity suite)", "walk_dim", qca.DENSE_OPERATOR_CAP),
    "blocks": lambda o: live_tables((o.spec1d, o.spec2d), NO_VECTOR, o.tables),
    "preservation": lambda o: _admit_states("preservation", preservation_states(o)),
    "eigenphase": lambda o: _admit_states("eigenphase", eigenphase_states(o), EIGENPHASE_WORK_CAP),
    "momentum-ops": lambda o: [live_tables([spec], NO_MODE, o.tables) for spec in (o.spec1d, o.spec2d)],
    # a study's largest scale is its base k*dx, at the lattice's own theta
    "dispersion": lambda o: [dirac.momentum_squares(spec, k_dx) for _, spec, k_dx in dispersion_studies(o)],
}


def run_verification(options: VerifyOptions, only=None) -> list[CheckResult]:
    """The named suites' results, in SUITES order; a lattice over GRID_CAP, then each ADMIT entry, refuses before any runs."""
    names = list(SUITES)
    if only:
        unknown = [n for n in only if n not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; available: {names}")
        names = [n for n in names if n in set(only)]
    _cap_lattices(options, "momentum mode count", "n_sites", walk.GRID_CAP)
    for name in names:
        if name in ADMIT:
            ADMIT[name](options)
    return [row for name in names for row in SUITES[name](options)]
