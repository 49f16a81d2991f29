import sys
import threading
import tracemalloc
from functools import reduce
from math import cos, sin

import numpy as np
import pytest

from kron_walk import extended_unitary
from walkqca import qca
from walkqca.qca import (
    CellLattice,
    apply_coin,
    apply_shift,
    build_local_coin,
    embedding_indices,
    faulty_local_coin,
    locality_check,
    localized_particle_state,
    occupation_expectations,
    one_particle_sector_isomorphism,
    qca_shift_permutation,
    qca_step,
    qca_step_operator,
    shift_slot_map,
    type_number_expectations,
)
from walkqca.walk import walk_matrix
from walkqca.walk1d import walk_matrix_1d

TOL = 1e-12

CELL_NUMBER = np.diag([0.0, 1.0, 1.0, 2.0])


def _pair_phase_coin(theta, phase):
    """The cell coin with `phase` on the doubly occupied cell."""
    coin = build_local_coin(theta)
    coin[3, 3] = phase
    return coin


def test_local_coin_action():
    theta = 0.3
    coin = build_local_coin(theta)
    np.testing.assert_array_equal(coin[:, 0], [1, 0, 0, 0])  # empty cell untouched
    # one particle in the R slot mixes into the L slot with the walk phases
    np.testing.assert_allclose(coin[:, 1], [0, cos(theta), 1j * sin(theta), 0], atol=TOL)
    np.testing.assert_array_equal(coin[:, 3], [0, 0, 0, 1])  # doubly occupied fixed


def test_local_coin_is_unitary_and_number_conserving():
    for theta in (0.0, 0.3, 1.4):
        coin = build_local_coin(theta)
        assert np.max(np.abs(coin.conj().T @ coin - np.eye(4))) < TOL
        assert np.max(np.abs(coin @ CELL_NUMBER - CELL_NUMBER @ coin)) < TOL


def test_local_coin_one_particle_block_matches_walk_coin():
    theta = 0.77
    coin = build_local_coin(theta)
    walk_coin = np.array([[cos(theta), 1j * sin(theta)], [1j * sin(theta), cos(theta)]])
    np.testing.assert_allclose(coin[1:3, 1:3], walk_coin, atol=TOL)


def test_shift_moves_single_occupations():
    lattice = CellLattice(n_sites=4, n_types=1)
    state = localized_particle_state(lattice, 0, 0)
    shifted = apply_shift(lattice, state)
    expected = localized_particle_state(lattice, 1, 0)
    np.testing.assert_array_equal(shifted, expected)

    left = localized_particle_state(lattice, 0, 1)
    shifted_left = apply_shift(lattice, left)
    np.testing.assert_array_equal(shifted_left, localized_particle_state(lattice, 3, 1))


def test_shift_fixes_vacuum_and_moves_pairs_independently():
    lattice = CellLattice(n_sites=4, n_types=1)
    vac = np.zeros(lattice.dim, dtype=complex)
    vac[0] = 1.0
    np.testing.assert_array_equal(apply_shift(lattice, vac), vac)

    two = np.zeros(lattice.dim, dtype=complex)
    two[(1 << lattice.slot(0, 0, 0)) | (1 << lattice.slot(0, 1, 1))] = 1.0
    out = apply_shift(lattice, two)
    expected = np.zeros(lattice.dim, dtype=complex)
    expected[(1 << lattice.slot(0, 1, 0)) | (1 << lattice.slot(0, 0, 1))] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_shift_permutation_is_bijective():
    lattice = CellLattice(n_sites=3, n_types=2)
    perm = qca_shift_permutation(lattice)
    assert sorted(perm.tolist()) == list(range(lattice.dim))


def test_qca_step_unitary_and_vacuum_invariant():
    lattice = CellLattice(n_sites=3, n_types=1)
    coin = build_local_coin(0.3)
    op = qca_step_operator(lattice, coin)
    assert np.max(np.abs(op.conj().T @ op - np.eye(lattice.dim))) < TOL
    vac = np.zeros(lattice.dim, dtype=complex)
    vac[0] = 1.0
    np.testing.assert_array_equal(qca_step(lattice, coin, vac), vac)


def test_qca_step_conserves_type_numbers():
    lattice = CellLattice(n_sites=3, n_types=2)
    coin = build_local_coin(0.3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = rng.standard_normal(lattice.dim) + 1j * rng.standard_normal(lattice.dim)
        state /= np.linalg.norm(state)
        before = type_number_expectations(lattice, state)
        after = type_number_expectations(lattice, qca_step(lattice, coin, state))
        np.testing.assert_allclose(before, after, atol=TOL)


@pytest.mark.parametrize("n_sites,n_types", [(3, 1), (2, 2), (3, 2), (4, 1)])
def test_sector_isomorphism(n_sites, n_types):
    assert one_particle_sector_isomorphism(n_sites, n_types, 0.3) < TOL


def test_sector_isomorphism_insensitive_to_pair_phase():
    # the doubly occupied cell state is outside the <=1-per-type sector,
    # so any phase on it leaves the isomorphism exact
    for phase in (1.0, np.exp(0.7j), -1.0):
        coin = _pair_phase_coin(0.3, phase)
        assert one_particle_sector_isomorphism(3, 2, 0.3, coin=coin) < TOL


def test_one_particle_matches_walk_directly():
    # single type, single particle: step the embedded walk basis states
    n, theta = 4, 0.45
    lattice = CellLattice(n_sites=n, n_types=1)
    coin = build_local_coin(theta)
    walk = walk_matrix_1d(n, theta)
    for v in range(2 * n):
        state = localized_particle_state(lattice, v // 2, v % 2)
        stepped = qca_step(lattice, coin, state)
        expected = np.zeros(lattice.dim, dtype=complex)
        for w in range(2 * n):
            expected[1 << lattice.slot(0, w // 2, w % 2)] = walk[w, v]
        np.testing.assert_allclose(stepped, expected, atol=TOL)


def test_locality_report():
    report = locality_check(6, 1, 0.3)
    assert report.shift_nearest_neighbor
    assert report.coin_conjugation_residual < TOL
    assert report.light_cone_radius_per_step == 1
    assert report.spread_within_cone


def test_locality_check_catches_a_coin_layer_that_moves_a_cell(monkeypatch):
    # negative control: a coin layer that swaps cells 0 and 1 after the
    # sweep carries the site-1 observable to site 0, which the one-cell
    # embedding must not mistake for the cell coin
    sweep = qca.apply_coin

    def sweep_then_swap(lattice, coin, state):
        cells = lattice.n_sites * lattice.n_types
        out = sweep(lattice, coin, state).reshape(-1, *(4,) * cells)
        return out.swapaxes(-1, -2).reshape(state.shape)

    monkeypatch.setattr(qca, "apply_coin", sweep_then_swap)
    assert locality_check(4, 1, 0.3).coin_conjugation_residual > 1e-3


@pytest.mark.parametrize(
    "fault",
    [
        lambda dest: dest[dest],  # two shifts: every slot hops two sites
        lambda dest: (dest + dest.size // 2) % dest.size,  # and into the other type
    ],
    ids=["two-sites", "next-type"],
)
def test_locality_check_catches_a_shift_that_is_not_nearest_neighbor(monkeypatch, fault):
    original = qca.shift_slot_map
    monkeypatch.setattr(qca, "shift_slot_map", lambda lattice: fault(original(lattice)))
    assert not locality_check(5, 2, 0.3).shift_nearest_neighbor


def test_two_steps_spread_at_most_two_sites():
    lattice = CellLattice(n_sites=8, n_types=1)
    coin = build_local_coin(0.9)
    state = localized_particle_state(lattice, 4, 0)
    for _ in range(2):
        state = qca_step(lattice, coin, state)
    occ = occupation_expectations(lattice, state).sum(axis=(0, 2))
    support = {x for x in range(8) if occ[x] > 1e-12}
    assert support <= {2, 3, 4, 5, 6}
    assert max(abs(x - 4) for x in support) == 2


def test_faulty_coins_break_the_right_invariants():
    bad_number = faulty_local_coin("coin-nonconserving", 0.3)
    assert np.max(np.abs(bad_number.conj().T @ bad_number - np.eye(4))) < TOL  # still unitary
    assert np.max(np.abs(bad_number @ CELL_NUMBER - CELL_NUMBER @ bad_number)) > 0.5

    bad_unitary = faulty_local_coin("coin-nonunitary", 0.3)
    assert np.max(np.abs(bad_unitary.conj().T @ bad_unitary - np.eye(4))) > 0.5
    with pytest.raises(ValueError):
        faulty_local_coin("unknown", 0.3)


def test_cell_lattice_caps():
    with pytest.raises(ValueError):
        CellLattice(n_sites=12, n_types=1)  # 24 qubits over the cap
    with pytest.raises(ValueError):
        CellLattice(n_sites=1, n_types=1)
    lattice = CellLattice(n_sites=3, n_types=2)
    with pytest.raises(ValueError):
        qca_step_operator(lattice, build_local_coin(0.3))  # 4096 > dense cap
    with pytest.raises(ValueError):
        qca_step(lattice, build_local_coin(0.3), np.zeros(7, dtype=complex))


def test_occupations_reject_a_state_of_the_wrong_shape():
    lattice = CellLattice(n_sites=3, n_types=1)
    with pytest.raises(ValueError, match=r"state has shape \(7,\), expected \(64,\)"):
        occupation_expectations(lattice, np.zeros(7, dtype=complex))


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"site": 4, "direction": 0}, "site"),  # would address type 1, site 0
        ({"site": 9, "direction": 0}, "site"),  # past the last slot
        ({"site": -1, "direction": 0}, "site"),  # a negative bit shift
        ({"site": 0, "direction": 2}, "direction"),
        ({"site": 0, "direction": 0, "type_idx": 2}, "type"),
        ({"site": 1.0, "direction": 0}, "site"),
    ],
)
def test_localized_particle_state_rejects_out_of_range_slots(kwargs, name):
    lattice = CellLattice(n_sites=4, n_types=2)
    with pytest.raises(ValueError, match=name):
        localized_particle_state(lattice, **kwargs)


# Kernel oracles: the scatter, per-cell and bitmask forms of the automaton
# kernels, written for plainness rather than speed.

KERNEL_LATTICES = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]


def _random_state(lattice, seed):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(lattice.dim) + 1j * rng.standard_normal(lattice.dim)
    return state / np.linalg.norm(state)


def _shift_permutation_oracle(lattice):
    """Destination basis index of every basis index, moved bit by bit."""
    dest = shift_slot_map(lattice)
    basis = np.arange(lattice.dim, dtype=np.int64)
    perm = np.zeros(lattice.dim, dtype=np.int64)
    for s in range(lattice.n_qubits):
        perm |= ((basis >> s) & 1) << dest[s]
    return perm


def _shift_oracle(lattice, state):
    out = np.empty_like(state)
    out[_shift_permutation_oracle(lattice)] = state
    return out


def _apply_cell_gate(state, n_qubits, gate, slot_r, slot_l):
    """Apply a 4x4 gate (cell order c = bit_R + 2*bit_L) to two slots."""
    ax_r = n_qubits - 1 - slot_r
    ax_l = n_qubits - 1 - slot_l
    arr = state.reshape((2,) * n_qubits)
    gt = gate.reshape(2, 2, 2, 2)  # [bL_out, bR_out, bL_in, bR_in]
    res = np.tensordot(gt, arr, axes=([2, 3], [ax_l, ax_r]))
    res = np.moveaxis(res, [0, 1], [ax_l, ax_r])
    return np.ascontiguousarray(res).reshape(-1)


def _coin_oracle(lattice, gate, state):
    out = state.astype(complex)
    for t in range(lattice.n_types):
        for x in range(lattice.n_sites):
            r, l = lattice.slot(t, x, 0), lattice.slot(t, x, 1)
            out = _apply_cell_gate(out, lattice.n_qubits, gate, r, l)
    return out


def _occupation_oracle(lattice, state):
    probs = np.abs(state) ** 2
    basis = np.arange(lattice.dim, dtype=np.int64)
    masks = [(basis >> s) & 1 for s in range(lattice.n_qubits)]
    return np.array([probs @ m for m in masks]).reshape(lattice.n_types, lattice.n_sites, 2)


KERNEL_GATES = {
    "fermionic": build_local_coin(0.3),
    "pair-phase": _pair_phase_coin(0.3, np.exp(0.7j)),
    "coin-nonconserving": faulty_local_coin("coin-nonconserving", 0.3),
    "coin-nonunitary": faulty_local_coin("coin-nonunitary", 0.3),
    # the coins above are all symmetric under R <-> L; this one is not
    "random": np.random.default_rng(5).standard_normal((4, 8)).view(complex),
}


@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES)
def test_shift_matches_the_scatter_oracle(n_sites, n_types):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    state = _random_state(lattice, 1)
    np.testing.assert_allclose(apply_shift(lattice, state), _shift_oracle(lattice, state), atol=TOL)


@pytest.mark.parametrize("gate_name", list(KERNEL_GATES))
@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES)
def test_coin_matches_the_per_cell_oracle(n_sites, n_types, gate_name):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    gate = KERNEL_GATES[gate_name]
    state = _random_state(lattice, 2)
    got = apply_coin(lattice, gate, state)
    np.testing.assert_allclose(got, _coin_oracle(lattice, gate, state), atol=TOL)


def _sweep_oracle(lattice, coin, state):
    """The earlier coin kernel: batched matmuls over the (4,)*cells view, from the back."""
    cells = lattice.n_sites * lattice.n_types
    g = coin.astype(complex)
    pair = np.kron(g, g)
    out = (pair @ state.reshape(-1, 16).T).T
    for end in range(cells - 2, 0, -2):
        a = max(end - 2, 0)  # an odd first cell goes alone
        gate = pair if end - a == 2 else g
        out = np.matmul(gate, out.reshape(-1, 4 ** (end - a), 4 ** (cells - end)))
    return out.reshape(state.shape)


@pytest.mark.parametrize("gate_name", list(KERNEL_GATES))
@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES + [(3, 3), (7, 1), (9, 1)])
def test_coin_is_bit_identical_to_the_sweep_oracle(n_sites, n_types, gate_name):
    # odd cell counts (3, 5, 7, 9) end on a one-cell pass; stacks end with their axis at the bottom
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    gate = KERNEL_GATES[gate_name]
    rng = np.random.default_rng(n_sites * 10 + n_types)
    for shape in [(lattice.dim,), (1, lattice.dim), (3, lattice.dim)]:
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = apply_coin(lattice, gate, state)
        assert got.shape == shape
        assert np.array_equal(got, _sweep_oracle(lattice, gate, state))


@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES)
def test_coin_oracle_comparison_catches_swapped_r_and_l(n_sites, n_types):
    # negative control: a sweep that read a cell as (empty, L, R, LR)
    # would apply this swapped gate, and the comparison must see it
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    gate = KERNEL_GATES["random"]
    swapped = gate[[0, 2, 1, 3]][:, [0, 2, 1, 3]]
    state = _random_state(lattice, 2)
    got = apply_coin(lattice, swapped, state)
    assert np.max(np.abs(got - _coin_oracle(lattice, gate, state))) > 1e-3


@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES + [(3, 3)])
def test_batched_kernels_match_row_by_row_calls(n_sites, n_types):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    coin = KERNEL_GATES["random"]
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((5, lattice.dim)) + 1j * rng.standard_normal((5, lattice.dim))
    stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    for kernel in (apply_shift, lambda lat, st: apply_coin(lat, coin, st)):
        got = kernel(lattice, stack)
        assert got.shape == stack.shape
        for row, state in zip(got, stack):
            np.testing.assert_allclose(row, kernel(lattice, state), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_sites,n_types", [(2, 1), (3, 1), (2, 2)])
def test_step_operator_matches_a_column_loop(n_sites, n_types):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    coin = KERNEL_GATES["random"]
    columns = [qca_step(lattice, coin, e) for e in np.eye(lattice.dim, dtype=complex)]
    np.testing.assert_allclose(
        qca_step_operator(lattice, coin), np.column_stack(columns), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES)
def test_occupations_match_the_bitmask_oracle(n_sites, n_types):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    state = _random_state(lattice, 3)
    got = occupation_expectations(lattice, state)
    np.testing.assert_allclose(got, _occupation_oracle(lattice, state), atol=TOL)


# Slot-by-slot loops: the plain forms of the automaton's slot bookkeeping.

MAP_LATTICES = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (3, 3), (2, 3)]


def _shift_slot_oracle(lattice):
    dest = np.empty(lattice.n_qubits, dtype=np.int64)
    for t in range(lattice.n_types):
        for x in range(lattice.n_sites):
            dest[lattice.slot(t, x, 0)] = lattice.slot(t, (x + 1) % lattice.n_sites, 0)
            dest[lattice.slot(t, x, 1)] = lattice.slot(t, (x - 1) % lattice.n_sites, 1)
    return dest


def _embedding_oracle(lattice, walk_dim):
    f = walk_dim + 1
    out = np.zeros(f**lattice.n_types, dtype=np.int64)
    for j in range(out.size):
        bits, rem = 0, j
        for t in reversed(range(lattice.n_types)):
            v = rem % f
            rem //= f
            if v < walk_dim:
                bits |= 1 << lattice.slot(t, v // 2, v % 2)
        out[j] = bits
    return out


@pytest.mark.parametrize("n_sites,n_types", MAP_LATTICES)
def test_slot_maps_equal_the_slot_loops(n_sites, n_types):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    dest = shift_slot_map(lattice)
    assert dest.dtype == np.int64
    np.testing.assert_array_equal(dest, _shift_slot_oracle(lattice))
    emb = embedding_indices(lattice, 2 * n_sites)
    np.testing.assert_array_equal(emb, _embedding_oracle(lattice, 2 * n_sites))


@pytest.mark.parametrize("n_sites,n_types", KERNEL_LATTICES)
def test_shift_permutation_equals_the_bit_loop(n_sites, n_types):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    np.testing.assert_array_equal(qca_shift_permutation(lattice), _shift_permutation_oracle(lattice))


# The per-basis-vector loop: step each embedded basis vector and compare it
# with its column of the T-fold Kronecker product of the extended walk.


def _sector_isomorphism_oracle(n_sites, n_types, theta, coin=None):
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    if coin is None:
        coin = build_local_coin(theta)
    ext = extended_unitary(walk_matrix(n_sites, 1, theta))
    u_total = reduce(np.kron, [ext] * n_types)
    emb = embedding_indices(lattice, ext.shape[0] - 1)
    worst = 0.0
    for j in range(u_total.shape[0]):
        e = np.zeros(lattice.dim, dtype=complex)
        e[emb[j]] = 1.0
        stepped = qca_step(lattice, coin, e)
        expected = np.zeros(lattice.dim, dtype=complex)
        expected[emb] = u_total[:, j]
        worst = max(worst, float(np.linalg.norm(stepped - expected)))
    return worst


SECTOR_THETAS = [0.0, 0.3, -2.0]


@pytest.mark.parametrize("theta", SECTOR_THETAS)
@pytest.mark.parametrize("n_sites,n_types", [(2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_sector_isomorphism_and_its_oracle_hold(n_sites, n_types, theta):
    assert one_particle_sector_isomorphism(n_sites, n_types, theta) < TOL
    assert _sector_isomorphism_oracle(n_sites, n_types, theta) < TOL


@pytest.mark.parametrize("theta", SECTOR_THETAS)
@pytest.mark.parametrize("n_sites,n_types", [(3, 3), (2, 5)])  # 343 and 3,125 sector states
def test_sector_isomorphism_holds_where_the_oracle_is_not_run(n_sites, n_types, theta):
    assert one_particle_sector_isomorphism(n_sites, n_types, theta) < TOL


COIN_FAULTS = {
    "coin-nonconserving": lambda theta: faulty_local_coin("coin-nonconserving", theta),
    "coin-angle": lambda theta: build_local_coin(theta + 1e-9),
}
# Each maps (lattice, true destination slots) to faulty ones; the inverse
# permutation moves R slots down a site and L slots up.
SHIFT_FAULTS = {
    "shift-reversed": lambda lattice, dest: np.argsort(dest),
    "shift-two-sites": lambda lattice, dest: dest[dest],
    "shift-reversed-type-1": lambda lattice, dest: np.where(
        np.arange(dest.size) < 2 * lattice.n_sites, dest, np.argsort(dest)
    ),
}
SECTOR_FAULTS = list(COIN_FAULTS) + list(SHIFT_FAULTS)


@pytest.mark.parametrize(
    "n_sites,n_types,fault",
    [(4, 2, fault) for fault in SECTOR_FAULTS] + [(4, 1, fault) for fault in SECTOR_FAULTS[:4]],
)
def test_sector_isomorphism_reads_faults_at_least_as_strongly_as_the_oracle(
    monkeypatch, n_sites, n_types, fault
):
    theta, coin = 0.3, None
    if fault in COIN_FAULTS:
        coin = COIN_FAULTS[fault](theta)
    else:
        original = qca.shift_slot_map
        monkeypatch.setattr(
            qca, "shift_slot_map", lambda lattice: SHIFT_FAULTS[fault](lattice, original(lattice))
        )
    got = one_particle_sector_isomorphism(n_sites, n_types, theta, coin=coin)
    assert got > TOL
    assert got >= _sector_isomorphism_oracle(n_sites, n_types, theta, coin=coin)


def test_sector_isomorphism_steps_once_and_builds_no_product_over_types(monkeypatch):
    calls = []
    step, kron = qca.qca_step, np.kron

    def counted_step(*args):
        calls.append(args)
        return step(*args)

    def cell_kron_only(a, b):  # the coin sweep pairs two 4x4 cell gates, nothing else
        assert np.shape(a) == np.shape(b) == (4, 4), "Kronecker product over types built"
        return kron(a, b)

    monkeypatch.setattr(qca, "qca_step", counted_step)
    monkeypatch.setattr(np, "kron", cell_kron_only)
    for n_sites, n_types in ((3, 1), (4, 2), (3, 3)):
        calls.clear()
        assert one_particle_sector_isomorphism(n_sites, n_types, 0.3) < TOL
        assert len(calls) == 1


# qca_step alternates between the array it returns and one scratch state kept per thread.
# Cell counts 3 and 4 take two coin passes, 5 and 9 (3 sites x 3 types) take three and five.
SCRATCH_LATTICES = [(3, 1), (4, 1), (5, 1), (3, 3)]


def _kept_scratch_faults(lattice, coin):
    """What goes wrong when two qca_step results are kept alive through a third step."""
    faults = []
    first = qca_step(lattice, coin, _random_state(lattice, 6))
    second = qca_step(lattice, coin, first)
    kept = first.copy(), second.copy()
    third = qca_step(lattice, coin, second)
    if not (np.array_equal(first, kept[0]) and np.array_equal(second, kept[1])):
        faults.append("a kept result changed")
    if not np.array_equal(third, apply_coin(lattice, coin, apply_shift(lattice, kept[1]))):
        faults.append("the step is not the shift and the coin bit for bit")
    results = [first, second, third]
    for i, result in enumerate(results):
        if np.shares_memory(result, qca._kept.scratch):
            faults.append(f"result {i} is the scratch")
        if any(np.shares_memory(result, other) for other in results[:i]):
            faults.append(f"result {i} shares memory with its input or an earlier result")
    return faults


@pytest.mark.parametrize("n_sites,n_types", SCRATCH_LATTICES)
def test_kept_results_survive_later_steps(n_sites, n_types):
    assert _kept_scratch_faults(CellLattice(n_sites=n_sites, n_types=n_types), KERNEL_GATES["random"]) == []


@pytest.mark.parametrize("n_sites,n_types", SCRATCH_LATTICES)
def test_kept_results_catch_a_step_that_returns_the_scratch(monkeypatch, n_sites, n_types):
    # negative control: with the pass parity flipped the last pass lands in the scratch, which is returned
    monkeypatch.setattr(qca, "_shift_into_result", lambda passes: passes % 2 == 1)
    faults = _kept_scratch_faults(CellLattice(n_sites=n_sites, n_types=n_types), KERNEL_GATES["random"])
    assert "result 0 is the scratch" in faults and "a kept result changed" in faults


def _traced(fn):
    """fn's result, and the bytes it allocated at its peak and still held on return besides that result."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak, held - result.nbytes
    finally:
        tracemalloc.stop()


def test_a_second_step_allocates_one_state():
    # q=16: a 1 MiB state; the first step allocates the scratch, the second only its result
    lattice = CellLattice(n_sites=8, n_types=1)
    coin, state = build_local_coin(0.3), _random_state(lattice, 7)
    qca_step(lattice, coin, state)
    bound = state.nbytes + 64 * 1024
    assert _traced(lambda: qca_step(lattice, coin, state))[1] <= bound
    # the shift and the coin, each allocating its passes, hold three states at their peak
    assert _traced(lambda: apply_coin(lattice, coin, apply_shift(lattice, state)))[1] > bound


def test_threads_step_with_their_own_scratch():
    # three lattices of one size (q=16), so that a scratch shared between threads would be reused, not replaced,
    # stepped at once by three threads that switch often
    lattices = [CellLattice(n_sites=8, n_types=1), CellLattice(n_sites=4, n_types=2), CellLattice(n_sites=2, n_types=4)]
    coin = KERNEL_GATES["random"]

    def steps_of(lattice, steps=16):
        states = [_random_state(lattice, lattice.n_sites)]
        for _ in range(steps):
            states.append(qca_step(lattice, coin, states[-1]))
        return states

    serial = [steps_of(lattice) for lattice in lattices]
    threaded = [None] * len(lattices)
    start = threading.Barrier(len(lattices))

    def run(i):
        start.wait(timeout=30)
        threaded[i] = steps_of(lattices[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(lattices))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(threaded, serial):
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stacked_kernels_pin_no_scratch():
    # the dense operator's identity stack is 16 MiB at the largest lattice under DENSE_OPERATOR_CAP
    lattice = CellLattice(n_sites=5, n_types=1)
    assert lattice.dim <= qca.DENSE_OPERATOR_CAP < 4 * lattice.dim
    coin, before = build_local_coin(0.3), getattr(qca._kept, "scratch", None)
    stack = np.random.default_rng(8).standard_normal((4, lattice.dim)) + 0j
    for kernel in (lambda: qca_step_operator(lattice, coin), lambda: apply_coin(lattice, coin, stack)):
        assert _traced(kernel)[2] <= 64 * 1024
        assert getattr(qca._kept, "scratch", None) is before


def _coin_pass_outputs(lattice, coin):
    """The step of one state, the coin on a (3, dim) stack and the dense step operator: each runs the coin passes."""
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, lattice.dim)) + 1j * rng.standard_normal((3, lattice.dim))
    return qca_step(lattice, coin, stack[0]), apply_coin(lattice, coin, stack), qca_step_operator(lattice, coin)


def test_every_coin_pass_runs_through_one_routine(monkeypatch):
    # negative control: a pass routine that skips its last gate changes all three outputs, so none has a loop of its own
    lattice, coin = CellLattice(n_sites=5, n_types=1), KERNEL_GATES["random"]
    expected, passes = _coin_pass_outputs(lattice, coin), qca._coin_passes
    monkeypatch.setattr(qca, "_coin_passes", lambda gates, *arrays: passes(gates[:-1], *arrays))
    for name, want, got in zip(("step", "stack", "operator"), expected, _coin_pass_outputs(lattice, coin)):
        assert np.max(np.abs(got - want)) > 1e-3, name
