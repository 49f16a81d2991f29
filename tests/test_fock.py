import cmath
import itertools

import numpy as np
import pytest
import scipy.linalg

import faults
from walkqca import fock, walk
from walkqca.fock import (
    DegenerateModeError,
    FockBasis,
    annihilation_op,
    anticommutator,
    creation_op,
    evolution_diagonal,
    fock_basis,
    fock_to_firstquantized,
    full_fock_basis,
    momentum_mode_coefficients,
    momentum_mode_ops,
    number_op,
)
from walkqca.lattice import (
    EnergyModeLabel,
    energy_labels,
    make_lattice,
    mode_ordering_key,
    momentum_grid,
    momentum_mode,
)
from walkqca.multiparticle import total_evolution_apply
from walkqca.verify import intertwining_residual
from walkqca.walk import momentum_block
from walkqca.walk1d import momentum_block_1d
from walkqca.walk2d import momentum_block_2d

TOL = 1e-12

SPEC = make_lattice(1, 4, 1.0, 1.0, 0.3)
SPEC2 = make_lattice(1, 2, 1.0, 1.0, 0.3)
SPEC2D = make_lattice(2, 2, 1.0, 1.0, 0.3)

REVERSED_KEY = lambda lab: tuple(-x for x in mode_ordering_key(lab))


def sorted_basis(labels, key):
    """A basis over `labels` in the order `key` gives, canonical or not."""
    return FockBasis(tuple(sorted(labels, key=key)))


def six_mode_basis():
    return fock_basis(energy_labels(SPEC)[:6])


def test_car_suite_all_pairs():
    basis = six_mode_basis()
    eye = np.eye(basis.dim)
    cre = {lab: creation_op(basis, lab).matrix for lab in basis.modes}
    ann = {lab: annihilation_op(basis, lab).matrix for lab in basis.modes}
    for la, lb in itertools.product(basis.modes, repeat=2):
        delta = eye if la == lb else np.zeros_like(eye)
        assert np.max(np.abs(anticommutator(cre[la], cre[lb]))) < TOL
        assert np.max(np.abs(anticommutator(ann[la], ann[lb]))) < TOL
        assert np.max(np.abs(anticommutator(ann[la], cre[lb]) - delta)) < TOL


def test_creation_squared_is_zero():
    basis = six_mode_basis()
    for lab in basis.modes:
        c = creation_op(basis, lab).matrix
        assert np.max(np.abs(c @ c)) == 0.0


def test_vacuum_annihilated_and_created():
    basis = six_mode_basis()
    vacuum = np.zeros(basis.dim, dtype=complex)
    vacuum[0] = 1.0
    for i, lab in enumerate(basis.modes):
        assert np.linalg.norm(annihilation_op(basis, lab).matrix @ vacuum) == 0.0
        created = creation_op(basis, lab).matrix @ vacuum
        expected = np.zeros(basis.dim, dtype=complex)
        expected[1 << i] = 1.0  # plus sign: nothing precedes it in the vacuum
        np.testing.assert_array_equal(created, expected)


def test_unknown_label_rejected():
    basis = fock_basis(energy_labels(SPEC2))
    stranger = EnergyModeLabel(momentum_mode(SPEC, 1), 1)
    with pytest.raises(ValueError):
        creation_op(basis, stranger)


def test_duplicate_labels_rejected():
    labels = energy_labels(SPEC2)
    with pytest.raises(ValueError):
        fock_basis([labels[0], labels[0]])


def test_evolution_diagonal_phases():
    basis = full_fock_basis(SPEC2)
    evo = evolution_diagonal(basis, SPEC2).matrix
    assert evo[0, 0] == pytest.approx(1.0, abs=TOL)  # vacuum bitstring
    for i, lab in enumerate(basis.modes):
        phi = momentum_block_1d(SPEC2, lab.mode).phi
        expected = np.exp(1j * lab.branch * phi)
        assert evo[1 << i, 1 << i] == pytest.approx(expected, abs=TOL)
    # diagonal and unitary
    assert np.max(np.abs(evo - np.diag(np.diag(evo)))) == 0.0
    assert np.max(np.abs(evo.conj().T @ evo - np.eye(basis.dim))) < TOL


def test_evolution_equals_exponential_of_number_generator():
    # oracle: exponentiate (with scipy) the generator built from number
    # operators, sum over k of phi_k * (n_{k,+} - n_{-k,-}); equality with
    # the per-bitstring phase rule relies on phi(-k) = phi(k)
    spec = make_lattice(1, 4, 1.0, 1.0, 0.45)
    labels = [
        EnergyModeLabel(momentum_mode(spec, 1), 1),
        EnergyModeLabel(momentum_mode(spec, 1), -1),
        EnergyModeLabel(momentum_mode(spec, -1), 1),
        EnergyModeLabel(momentum_mode(spec, -1), -1),
    ]
    basis = fock_basis(labels)
    generator = np.zeros((basis.dim, basis.dim), dtype=complex)
    for mode in (momentum_mode(spec, 1), momentum_mode(spec, -1)):
        phi = momentum_block_1d(spec, mode).phi
        n_plus = number_op(basis, EnergyModeLabel(mode, 1)).matrix
        negated = momentum_mode(spec, tuple(-e for e in mode.ell))
        n_minus_neg = number_op(basis, EnergyModeLabel(negated, -1)).matrix
        generator += phi * (n_plus - n_minus_neg)
    oracle = scipy.linalg.expm(1j * generator)
    evo = evolution_diagonal(basis, spec).matrix
    np.testing.assert_allclose(evo, oracle, atol=TOL)


def test_conjugation_scales_each_creation_operator():
    basis = full_fock_basis(SPEC2)
    evo = evolution_diagonal(basis, SPEC2).matrix
    for lab in basis.modes:
        phi = momentum_block_1d(SPEC2, lab.mode).phi
        c = creation_op(basis, lab).matrix
        conj = evo @ c @ evo.conj().T
        np.testing.assert_allclose(conj, np.exp(1j * lab.branch * phi) * c, atol=TOL)


def test_number_operator_commutes_with_evolution():
    basis = full_fock_basis(SPEC2)
    evo = evolution_diagonal(basis, SPEC2).matrix
    total = sum(number_op(basis, lab).matrix for lab in basis.modes)
    assert np.max(np.abs(evo @ total - total @ evo)) == 0.0


@pytest.mark.parametrize("spec", [make_lattice(1, 10, 1.0, 1.0, 0.3),
                                  make_lattice(1, 60, 1.0, 1.0, 0.05)])
def test_coefficients_reconstruct_coin_axes_1d(spec):
    # oracle: solve the 2x2 linear system numerically
    for ell in (1, 2, spec.N // 2 - 1):
        mode = momentum_mode(spec, ell)
        block = momentum_block_1d(spec, mode)
        a_r, b_r, a_l, b_l = momentum_mode_coefficients(spec, mode)
        basis = np.column_stack([block.v_plus, block.v_minus])
        sol_r = np.linalg.solve(basis, np.array([1.0, 0.0]))
        sol_l = np.linalg.solve(basis, np.array([0.0, 1.0]))
        assert abs(a_r - sol_r[0]) < TOL and abs(b_r - sol_r[1]) < TOL
        assert abs(a_l - sol_l[0]) < TOL and abs(b_l - sol_l[1]) < TOL
        np.testing.assert_allclose(
            a_r * block.v_plus + b_r * block.v_minus, [1.0, 0.0], atol=TOL
        )
        np.testing.assert_allclose(
            a_l * block.v_plus + b_l * block.v_minus, [0.0, 1.0], atol=TOL
        )
        assert abs(a_r) ** 2 + abs(b_r) ** 2 == pytest.approx(1.0, abs=TOL)
        assert abs(a_l) ** 2 + abs(b_l) ** 2 == pytest.approx(1.0, abs=TOL)


def test_coefficients_reconstruct_coin_axes_2d():
    spec = make_lattice(2, 6, 1.0, 1.0, 0.4)
    for ell in ((1, 0), (1, 2), (2, -1), (0, 1)):
        mode = momentum_mode(spec, ell)
        block = momentum_block_2d(spec, mode)
        a_r, b_r, a_l, b_l = momentum_mode_coefficients(spec, mode)
        np.testing.assert_allclose(
            a_r * block.v_plus + b_r * block.v_minus, [1.0, 0.0], atol=TOL
        )
        np.testing.assert_allclose(
            a_l * block.v_plus + b_l * block.v_minus, [0.0, 1.0], atol=TOL
        )


def test_degenerate_coefficient_requests_rejected():
    flat = make_lattice(1, 4, 1.0, 1.0, 0.0)
    with pytest.raises(DegenerateModeError):
        momentum_mode_coefficients(flat, momentum_mode(flat, 0))  # identity block


@pytest.mark.parametrize("dimension, ell", [(1, 1), (2, (1, 0))])
def test_coefficients_and_mode_ops_hold_at_eigenvector_poles(dimension, ell):
    # theta = 0 puts these blocks at a pole (s = |r3|), where the eigenpair
    # comes from the companion form; the expansion must stay exact there
    spec = make_lattice(dimension, 4, 1.0, 1.0, 0.0)
    mode = momentum_mode(spec, ell)
    block = (momentum_block_1d if dimension == 1 else momentum_block_2d)(spec, mode)
    _, r1, r2, r3 = block.r
    assert np.hypot(r1, r2) < TOL and abs(r3) > 0.5
    a_r, b_r, a_l, b_l = momentum_mode_coefficients(spec, mode)
    np.testing.assert_allclose(a_r * block.v_plus + b_r * block.v_minus, [1.0, 0.0], atol=TOL)
    np.testing.assert_allclose(a_l * block.v_plus + b_l * block.v_minus, [0.0, 1.0], atol=TOL)
    basis = fock_basis([EnergyModeLabel(mode, -1), EnergyModeLabel(mode, 1)])
    evo = evolution_diagonal(basis, spec).matrix
    pair = [op.matrix for op in momentum_mode_ops(basis, spec, mode)]
    for i in range(2):
        conj = evo @ pair[i] @ evo.conj().T
        combo = block.matrix[0, i] * pair[0] + block.matrix[1, i] * pair[1]
        assert np.max(np.abs(conj - combo)) < TOL


def test_momentum_mode_ops_conjugate_by_block_transpose():
    # oracle: dense conjugation; the pair (a_R+, a_L+) picks up the block
    # matrix acting column-wise (its transpose on the operator column)
    for spec, block_of in ((SPEC2, momentum_block_1d), (SPEC2D, momentum_block_2d)):
        basis = full_fock_basis(spec)
        evo = evolution_diagonal(basis, spec).matrix
        for mode in momentum_grid(spec):
            m = block_of(spec, mode).matrix
            a_r, a_l = momentum_mode_ops(basis, spec, mode)
            pair = (a_r.matrix, a_l.matrix)
            for i in range(2):
                conj = evo @ pair[i] @ evo.conj().T
                combo = m[0, i] * pair[0] + m[1, i] * pair[1]
                assert np.max(np.abs(conj - combo)) < TOL


def test_momentum_mode_ops_preserve_car():
    basis = full_fock_basis(SPEC2)
    eye = np.eye(basis.dim)
    for mode in momentum_grid(SPEC2):
        a_r, a_l = momentum_mode_ops(basis, SPEC2, mode)
        assert np.max(np.abs(anticommutator(a_r.matrix.conj().T, a_r.matrix) - eye)) < TOL
        assert np.max(np.abs(anticommutator(a_r.matrix, a_l.matrix))) < TOL
        assert np.max(np.abs(anticommutator(a_l.matrix.conj().T, a_l.matrix) - eye)) < TOL


def test_fock_to_firstquantized_special_cases():
    basis = full_fock_basis(SPEC2)
    vac = fock_to_firstquantized(basis, 0, SPEC2, 3)
    expected = np.zeros((SPEC2.walk_dim + 1) ** 3, dtype=complex)
    expected[-1] = 1.0
    np.testing.assert_array_equal(vac.amplitudes, expected)
    with pytest.raises(ValueError):
        fock_to_firstquantized(basis, 0b0111, SPEC2, 2)
    with pytest.raises(ValueError):
        fock_to_firstquantized(basis, basis.dim, SPEC2, 4)


def test_fock_to_firstquantized_intertwines_evolutions():
    basis = full_fock_basis(SPEC2)
    evo = evolution_diagonal(basis, SPEC2).matrix
    images = []
    for bits in range(basis.dim):
        if bin(bits).count("1") > 3:
            continue
        mapped = fock_to_firstquantized(basis, bits, SPEC2, 3)
        evolved = total_evolution_apply(SPEC2, 3, mapped)
        np.testing.assert_allclose(
            evolved.amplitudes, evo[bits, bits] * mapped.amplitudes, atol=TOL
        )
        images.append(mapped.amplitudes)
    gram = np.array([[np.vdot(a, b) for b in images] for a in images])
    np.testing.assert_allclose(gram, np.eye(len(images)), atol=TOL)


def test_physics_is_ordering_independent():
    # the same three modes under the canonical and a reversed ordering:
    # individual matrices differ, but anticommutators, number spectra and
    # the conjugation phases agree
    labels = energy_labels(SPEC2)[:3]
    canonical = fock_basis(labels)
    reversed_basis = sorted_basis(labels, REVERSED_KEY)
    assert canonical.modes != reversed_basis.modes

    eye = np.eye(canonical.dim)
    for basis in (canonical, reversed_basis):
        cre = [creation_op(basis, lab).matrix for lab in basis.modes]
        for a, b in itertools.product(cre, repeat=2):
            assert np.max(np.abs(anticommutator(a, b))) < TOL
        for a in cre:
            assert np.max(np.abs(anticommutator(a.conj().T, a) - eye)) < TOL

    for lab in labels:
        spec_a = np.sort(np.linalg.eigvalsh(number_op(canonical, lab).matrix))
        spec_b = np.sort(np.linalg.eigvalsh(number_op(reversed_basis, lab).matrix))
        np.testing.assert_allclose(spec_a, spec_b, atol=TOL)

    evo_a = np.sort_complex(np.diag(evolution_diagonal(canonical, SPEC2).matrix))
    evo_b = np.sort_complex(np.diag(evolution_diagonal(reversed_basis, SPEC2).matrix))
    np.testing.assert_allclose(evo_a, evo_b, atol=TOL)


def test_intertwining_is_ordering_independent():
    labels = energy_labels(SPEC2)
    reversed_basis = sorted_basis(labels, REVERSED_KEY)
    evo = evolution_diagonal(reversed_basis, SPEC2).matrix
    for bits in range(reversed_basis.dim):
        if bin(bits).count("1") > 2:
            continue
        mapped = fock_to_firstquantized(reversed_basis, bits, SPEC2, 2)
        evolved = total_evolution_apply(SPEC2, 2, mapped)
        np.testing.assert_allclose(
            evolved.amplitudes, evo[bits, bits] * mapped.amplitudes, atol=TOL
        )


def test_intertwining_near_quarter_phase():
    # At k*dx = pi/2 and theta = 0.25 the eigenphase sits close to pi/2,
    # where an arcsin evaluation of it loses half its digits.
    from walkqca.verify import intertwining_residual

    assert intertwining_residual(make_lattice(1, 4, 1.0, 1.0, 0.25), 3) < TOL


def test_intertwining_check_catches_swapped_rolls_only_beyond_two_sites(monkeypatch):
    # negative control: rolling R by -1 and L by +1 breaks the walk, but on
    # two sites a -1 roll equals a +1 roll, which is why the verify check
    # runs on four
    from walkqca.verify import VerifyOptions, check_intertwine, intertwining_residual

    options = VerifyOptions(spec1d=make_lattice(1, 8, 1.0, 1.0, 0.05), spec2d=SPEC2D)
    assert check_intertwine(options)[0].passed
    faults.reverse_roll(monkeypatch)
    (row,) = check_intertwine(options)
    assert not row.passed and row.max_residual > 1.0
    assert intertwining_residual(make_lattice(1, 2, 1.0, 1.0, 0.05), 3) < TOL


def test_mode_cap():
    labels = energy_labels(make_lattice(1, 32, 1.0, 1.0, 0.3))
    with pytest.raises(ValueError):
        fock_basis(labels)  # 64 modes > cap


# Per-bitstring loops: the plain forms of the Fock builders, kept as oracles.


def _parity_below(bits, position):
    return bin(bits & ((1 << position) - 1)).count("1") & 1


def _creation_oracle(basis, label):
    pos = basis.index(label)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for bits in range(basis.dim):
        if not (bits >> pos) & 1:
            mat[bits | (1 << pos), bits] = -1.0 if _parity_below(bits, pos) else 1.0
    return mat


def _annihilation_oracle(basis, label):
    pos = basis.index(label)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for bits in range(basis.dim):
        if (bits >> pos) & 1:
            mat[bits ^ (1 << pos), bits] = -1.0 if _parity_below(bits, pos) else 1.0
    return mat


def _momentum_pair_oracle(basis, spec, mode):
    alpha_r, beta_r, alpha_l, beta_l = momentum_mode_coefficients(spec, mode)
    plus, minus = (basis.index(EnergyModeLabel(mode, branch)) for branch in (1, -1))
    pair = np.zeros((2, basis.dim, basis.dim), dtype=complex)
    for bits in range(basis.dim):
        for pos, coefficients in ((plus, (alpha_r, alpha_l)), (minus, (beta_r, beta_l))):
            if not (bits >> pos) & 1:
                sign = -1.0 if _parity_below(bits, pos) else 1.0
                for mat, coefficient in zip(pair, coefficients):
                    mat[bits | (1 << pos), bits] += coefficient * sign
    return pair


def _number_oracle(basis, label):
    pos = basis.index(label)
    diag = np.array([(bits >> pos) & 1 for bits in range(basis.dim)], dtype=float)
    return np.diag(diag).astype(complex)


def _evolution_oracle(basis, spec):
    phases = [label.branch * momentum_block(spec, label.mode).phi for label in basis.modes]
    diag = np.empty(basis.dim, dtype=complex)
    for bits in range(basis.dim):
        total = sum(phases[i] for i in range(len(basis.modes)) if (bits >> i) & 1)
        diag[bits] = cmath.exp(1j * total)
    return np.diag(diag)


def _fresh_matrix(op):
    """op.matrix, checking that each call builds a new writable array."""
    first, second = op.matrix, op.matrix
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    return first


# 1D N=6 has 12 labels; its first 10 are 5 whole modes, an M=10 basis.
@pytest.mark.parametrize("key", [mode_ordering_key, REVERSED_KEY], ids=["canonical", "reversed"])
@pytest.mark.parametrize(
    "spec",
    [SPEC2, SPEC, SPEC2D, make_lattice(1, 6, 1.0, 1.0, 0.3)],
    ids=["1d-N2", "1d-N4", "2d-N2", "1d-N6-M10"],
)
def test_fock_builders_equal_the_per_bitstring_loops(spec, key):
    basis = sorted_basis(energy_labels(spec)[:10], key)
    for label in basis.modes:
        for build, oracle in (
            (creation_op, _creation_oracle),
            (annihilation_op, _annihilation_oracle),
            (number_op, _number_oracle),
        ):
            mat = _fresh_matrix(build(basis, label))
            assert mat.dtype == np.float64 and np.array_equal(mat, oracle(basis, label))
    assert np.array_equal(_fresh_matrix(evolution_diagonal(basis, spec)), _evolution_oracle(basis, spec))
    for mode in sorted({label.mode for label in basis.modes}, key=lambda mode: mode.ell):
        pair = [_fresh_matrix(op) for op in momentum_mode_ops(basis, spec, mode)]
        assert np.array_equal(pair, _momentum_pair_oracle(basis, spec, mode))


# The per-bitstring loop that intertwining_residual replaced, kept as its oracle.


def _intertwining_oracle(spec, n_max):
    basis = full_fock_basis(spec)
    evo = evolution_diagonal(basis, spec).matrix
    worst = 0.0
    for bits in range(basis.dim):
        if bin(bits).count("1") > n_max:
            continue
        mapped = fock.fock_to_firstquantized(basis, bits, spec, n_max)
        evolved = total_evolution_apply(spec, n_max, mapped)
        worst = max(worst, float(np.linalg.norm(evolved.amplitudes - evo[bits, bits] * mapped.amplitudes)))
    return worst


# 2D N=4 has 32 modes, past MODE_CAP, so the 2D case is N=2.
@pytest.mark.parametrize("theta", [0.05, 0.3, -2.0])
@pytest.mark.parametrize("dimension,n_sites", [(1, 2), (1, 4), (2, 2)], ids=["1d-N2", "1d-N4", "2d-N2"])
def test_intertwining_residual_agrees_with_the_per_bitstring_loop(dimension, n_sites, theta):
    spec = make_lattice(dimension, n_sites, 1.0, 1.0, theta)
    got, expected = intertwining_residual(spec, 3), _intertwining_oracle(spec, 3)
    assert got < TOL and expected < TOL and abs(got - expected) <= TOL


def _shift_first_phase(monkeypatch):
    # one momentum mode's eigenphase off by 1e-9, its eigenvectors kept
    faults.shift_phase(monkeypatch, energy_labels(SPEC)[0].mode, 1e-9)


def _swap_created_modes(monkeypatch):
    # bits 0 and 1 create each other's mode; reversing only the creation
    # order of a state flips its sign, which no eigenvalue check can see
    created = fock.created_labels

    def swapped(basis, bits):
        return created(FockBasis((basis.modes[1], basis.modes[0], *basis.modes[2:])), bits)

    monkeypatch.setattr(fock, "created_labels", swapped)


@pytest.mark.parametrize(
    "fault",
    [faults.reverse_roll, _shift_first_phase, _swap_created_modes],
    ids=["x-roll-reversed", "phase-1e-9", "created-modes-swapped"],
)
def test_intertwining_residual_reads_faults_at_least_as_strongly_as_the_loop(monkeypatch, fault):
    fault(monkeypatch)
    got, expected = intertwining_residual(SPEC, 3), _intertwining_oracle(SPEC, 3)
    assert got > TOL and got >= expected


def test_intertwining_residual_builds_each_walk_eigenstate_once(monkeypatch):
    # 8 labels of 1D N=4; a build per bitstring made 232 calls
    calls = []
    eigenstate = walk.walk_eigenstate
    monkeypatch.setattr(walk, "walk_eigenstate", lambda spec, label: calls.append((spec, label)) or eigenstate(spec, label))
    assert intertwining_residual(SPEC, 3) < TOL
    assert len(calls) == len(set(calls)) == len(energy_labels(SPEC)) == 8
