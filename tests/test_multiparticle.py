import dataclasses
import itertools
import json
import tracemalloc
import weakref
from math import ceil, comb, factorial, sqrt

import numpy as np
import pytest

import faults
from kron_walk import extended_unitary, kron_walk
from state_dump import load_state
from walkqca import cli, multiparticle, verify, walk
from walkqca.lattice import EnergyModeLabel, energy_labels, make_lattice, momentum_mode
from walkqca.multiparticle import (
    MultiState,
    _antisymmetrize_tensor,
    antisymmetrize,
    eigenphase_check,
    ordered_product_state,
    physical_basis_state,
    physical_subspace_projector_residual,
    product_state,
    random_physical_state,
    save_state,
    total_evolution_apply,
    vacuum_state,
)
from walkqca.verify import VerifyOptions
from walkqca.walk1d import build_walk_unitary_1d, walk_eigenstate_1d

TOL = 1e-12

SPEC = make_lattice(1, 2, 1.0, 1.0, 0.3)
SPEC2D = make_lattice(2, 2, 1.0, 1.0, 0.3)


def random_walk_vector(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_vacuum_is_invariant():
    vac = vacuum_state(SPEC.walk_dim, 3)
    out = total_evolution_apply(SPEC, 3, vac)
    np.testing.assert_array_equal(out.amplitudes, vac.amplitudes)


def test_single_particle_factor_evolves_by_walk():
    rng = np.random.default_rng(1)
    psi = random_walk_vector(rng, SPEC.walk_dim)
    state = product_state([psi, None, None], SPEC.walk_dim)
    out = total_evolution_apply(SPEC, 3, state)
    u = build_walk_unitary_1d(SPEC)
    expected = product_state([u @ psi, None, None], SPEC.walk_dim)
    np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=TOL)


def test_norm_preserved_on_random_states():
    rng = np.random.default_rng(2)
    for spec, n_max in ((SPEC, 2), (SPEC2D, 2)):
        dim = (spec.walk_dim + 1) ** n_max
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        raw /= np.linalg.norm(raw)
        state = MultiState(raw, spec.walk_dim, n_max)
        out = total_evolution_apply(spec, n_max, state)
        assert out.norm() == pytest.approx(1.0, abs=TOL)


def test_dimension_mismatch_rejected():
    state = vacuum_state(SPEC.walk_dim, 2)
    with pytest.raises(ValueError):
        total_evolution_apply(SPEC, 3, state)
    with pytest.raises(ValueError):
        total_evolution_apply(SPEC2D, 2, state)


def test_antisymmetrize_two_factors():
    rng = np.random.default_rng(3)
    d = SPEC.walk_dim
    psi, chi = random_walk_vector(rng, d), random_walk_vector(rng, d)
    state = product_state([psi, chi, None], d)
    out = antisymmetrize(state, 2)
    expected = 0.5 * (
        product_state([psi, chi, None], d).amplitudes
        - product_state([chi, psi, None], d).amplitudes
    )
    np.testing.assert_allclose(out.amplitudes, expected, atol=TOL)

    # idempotence
    again = antisymmetrize(out, 2)
    np.testing.assert_allclose(again.amplitudes, out.amplitudes, atol=TOL)

    # equal factors annihilate
    zero = antisymmetrize(product_state([psi, psi, None], d), 2)
    assert zero.norm() < TOL


def test_antisymmetrize_accepts_normalized_in_block_states():
    # Unit product states on a 48-dimensional walk space have no weight
    # outside the occupied block; a difference of squared norms would put
    # about 1e-8 there and reject some of them.
    rng = np.random.default_rng(1)
    d = make_lattice(1, 24, 1.0, 1.0, 0.3).walk_dim
    for _ in range(5):
        state = product_state([random_walk_vector(rng, d) for _ in range(3)], d)
        out = antisymmetrize(state, 3)
        assert physical_subspace_projector_residual(out) < TOL


def test_antisymmetrize_rejects_wrong_support():
    rng = np.random.default_rng(4)
    d = SPEC.walk_dim
    psi = random_walk_vector(rng, d)
    state = product_state([psi, None, psi], d)  # occupied factors are 0 and 2
    with pytest.raises(ValueError):
        antisymmetrize(state, 2)


def test_physical_basis_state_vacuum_and_single():
    vac = physical_basis_state(SPEC, [], 3)
    np.testing.assert_array_equal(vac.amplitudes, vacuum_state(SPEC.walk_dim, 3).amplitudes)

    label = EnergyModeLabel(momentum_mode(SPEC, 1), 1)
    single = physical_basis_state(SPEC, [label], 3)
    expected = product_state([walk_eigenstate_1d(SPEC, label), None, None], SPEC.walk_dim)
    np.testing.assert_allclose(single.amplitudes, expected.amplitudes, atol=TOL)


def test_swapped_labels_flip_sign():
    labels = energy_labels(SPEC)
    a, b = labels[0], labels[2]
    ordered = ordered_product_state(SPEC, [a, b], 2)
    swapped = ordered_product_state(SPEC, [b, a], 2)
    np.testing.assert_allclose(swapped.amplitudes, -ordered.amplitudes, atol=TOL)


def test_physical_basis_state_requires_canonical_order():
    labels = energy_labels(SPEC)
    with pytest.raises(ValueError):
        physical_basis_state(SPEC, [labels[2], labels[0]], 2)
    with pytest.raises(ValueError):
        physical_basis_state(SPEC, [labels[0], labels[0]], 2)
    with pytest.raises(ValueError):
        physical_basis_state(SPEC, labels[:3], 2)  # more labels than factors


def test_physical_basis_label_validates_on_construction():
    labels = energy_labels(SPEC)
    with pytest.raises(ValueError, match="labels must be strictly increasing in the canonical order"):
        physical_basis_state(SPEC, (labels[2], labels[0]), 2)
    state = physical_basis_state(SPEC, iter([labels[0], labels[2]]), 2)
    direct = physical_basis_state(SPEC, [labels[0], labels[2]], 2)
    np.testing.assert_array_equal(state.amplitudes, direct.amplitudes)


def test_energy_basis_is_orthonormal():
    labels = energy_labels(SPEC)
    states = []
    for n in range(3):
        for combo in itertools.combinations(labels, n):
            states.append(physical_basis_state(SPEC, combo, 2).amplitudes)
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    np.testing.assert_allclose(gram, np.eye(len(states)), atol=TOL)


def test_eigenphase_examples():
    assert eigenphase_check(SPEC, [[]], 3) < TOL
    labels4 = energy_labels(make_lattice(1, 4, 1.0, 1.0, 0.3))
    spec4 = make_lattice(1, 4, 1.0, 1.0, 0.3)
    assert eigenphase_check(spec4, [[labels4[0]]], 1) < TOL
    pair = [labels4[1], labels4[4]]
    assert eigenphase_check(spec4, [pair], 2) < TOL


def test_eigenphase_all_small_labels():
    labels = energy_labels(SPEC)
    worst = 0.0
    for n in range(4):
        for combo in itertools.combinations(labels, n):
            worst = max(worst, eigenphase_check(SPEC, [combo], 3))
    assert worst < TOL


def test_projector_keeps_basis_states():
    labels = energy_labels(SPEC)
    for combo in ([], [labels[0]], [labels[0], labels[3]]):
        state = physical_basis_state(SPEC, combo, 2)
        assert physical_subspace_projector_residual(state) < TOL


def test_projector_residual_of_unsymmetrized_product():
    # two-factor decomposition: the residual of psi (x) chi is the norm of
    # its symmetric part, sqrt((1 + |<psi|chi>|^2) / 2)
    rng = np.random.default_rng(5)
    d = SPEC.walk_dim
    psi, chi = random_walk_vector(rng, d), random_walk_vector(rng, d)
    state = product_state([psi, chi], d)
    overlap = np.vdot(psi, chi)
    expected = sqrt((1.0 + abs(overlap) ** 2) / 2.0)
    assert physical_subspace_projector_residual(state) == pytest.approx(expected, abs=1e-10)


def test_projector_rejects_wrong_factor_pattern():
    # a particle in factor 1 with factor 0 empty is outside the physical
    # subspace by construction
    rng = np.random.default_rng(6)
    psi = random_walk_vector(rng, SPEC.walk_dim)
    state = product_state([None, psi], SPEC.walk_dim)
    assert physical_subspace_projector_residual(state) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("spec,n_max", [(SPEC, 3), (SPEC2D, 2)])
def test_evolution_preserves_physical_subspace(spec, n_max):
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = random_physical_state(spec.walk_dim, n_max, rng)
        evolved = total_evolution_apply(spec, n_max, state)
        assert physical_subspace_projector_residual(evolved) < TOL


def occupied_weight(state, factor):
    tensor = state.tensor()
    axes = tuple(a for a in range(state.n_factors) if a != factor)
    weights = np.sum(np.abs(tensor) ** 2, axis=axes)
    return float(np.sum(weights[: state.walk_dim]))


def test_type_number_conservation():
    # the evolution never moves weight between a factor's occupied and
    # vacuum components
    rng = np.random.default_rng(8)
    d = SPEC.walk_dim
    dim = (d + 1) ** 2
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw /= np.linalg.norm(raw)
    state = MultiState(raw, d, 2)
    evolved = total_evolution_apply(SPEC, 2, state)
    for factor in range(2):
        assert occupied_weight(state, factor) == pytest.approx(
            occupied_weight(evolved, factor), abs=TOL
        )


def test_sector_equivalence_across_type_choices():
    # a two-particle block evolves identically whether it occupies factors
    # (0, 1) or factors (0, 2)
    rng = np.random.default_rng(9)
    d = SPEC.walk_dim
    psi, chi = random_walk_vector(rng, d), random_walk_vector(rng, d)
    in_01 = product_state([psi, chi, None], d)
    in_02 = product_state([psi, None, chi], d)
    out_01 = total_evolution_apply(SPEC, 3, in_01).tensor()[:d, :d, d]
    out_02 = total_evolution_apply(SPEC, 3, in_02).tensor()[:d, d, :d]
    np.testing.assert_allclose(out_01, out_02, atol=TOL)


def test_amplitude_cap_enforced():
    with pytest.raises(ValueError):
        vacuum_state(128, 4)  # 129**4 > 2e6
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        random_physical_state(128, 4, np.random.default_rng(0))


def test_the_amplitude_cap_is_checked_before_the_state_is_allocated():
    # 17**10 amplitudes would take 29 TiB: each constructor refuses the size, the allocator is never asked
    spec = make_lattice(1, 8, 1.0, 1.0, 0.3)
    label = energy_labels(spec)[0]
    rng = np.random.default_rng(0)
    for build in (
        lambda: vacuum_state(16, 10),
        lambda: product_state([None] * 10, 16),
        lambda: random_physical_state(16, 10, rng),
        lambda: physical_basis_state(spec, [], 10),
        lambda: physical_basis_state(spec, [label], 10),
        lambda: multiparticle.eigenstate_residual(spec, 10, []),
    ):
        with pytest.raises(ValueError, match="state with 2015993900449 amplitudes exceeds the dense cap 2000000"):
            build()


def test_state_dump_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    state = random_physical_state(SPEC.walk_dim, 2, rng)
    path = tmp_path / "state.txt"
    save_state(path, state)
    loaded = load_state(path)
    assert loaded.walk_dim == state.walk_dim
    assert loaded.n_factors == state.n_factors
    np.testing.assert_allclose(loaded.amplitudes, state.amplitudes, atol=0)


@pytest.mark.parametrize(
    "spec,n_max",
    [(make_lattice(1, 4, 1.0, 1.0, 0.7), n) for n in (0, 1, 2, 3)]
    + [(make_lattice(2, 2, 1.0, 1.0, -1.1), n) for n in (1, 2)],
)
def test_total_evolution_equals_the_dense_per_factor_product(spec, n_max):
    """Random states, off the physical subspace and with vacuum weight, against tensordot."""
    rng = np.random.default_rng(n_max)
    f = spec.walk_dim + 1
    raw = rng.standard_normal(f**n_max) + 1j * rng.standard_normal(f**n_max)
    state = MultiState(raw.copy(), spec.walk_dim, n_max)
    u_ext = extended_unitary(kron_walk(spec.N, spec.dimension, spec.theta))
    expected = state.tensor()
    for axis in range(n_max):
        expected = np.moveaxis(np.tensordot(u_ext, expected, axes=(1, axis)), 0, axis)
    out = total_evolution_apply(spec, n_max, state)
    np.testing.assert_allclose(out.amplitudes, expected.reshape(-1), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(state.amplitudes, raw)
    assert not np.shares_memory(out.amplitudes, state.amplitudes)


def _permutation_parity(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]) % 2


def _antisymmetrize_oracle(block, n):
    """The signed sum over all n! permutations, in itertools order."""
    if n <= 1:
        return block.copy()
    out = np.zeros_like(block)
    for perm in itertools.permutations(range(n)):
        sign = -1.0 if _permutation_parity(perm) else 1.0
        out += sign * block.transpose(perm)
    out /= factorial(n)
    return out


@pytest.mark.parametrize("n", range(6))
def test_antisymmetrizer_equals_the_permutation_sum(n):
    # the block is the strided first-n-occupied view of an (n+1)-factor
    # state, as antisymmetrize passes it
    rng = np.random.default_rng(20 + n)
    d = 6
    arr = np.zeros((d + 1,) * (n + 1), dtype=complex)
    idx = (slice(0, d),) * n + (d,)
    arr[idx] = rng.standard_normal((d,) * n) + 1j * rng.standard_normal((d,) * n)
    block = arr[idx]
    expected = _antisymmetrize_oracle(block, n)
    got = _antisymmetrize_tensor(block, n)
    via_state = antisymmetrize(MultiState(arr.reshape(-1), d, n + 1), n).tensor()[idx]
    for out in (got, via_state):
        if n <= 2:
            assert np.array_equal(out, expected)
        else:
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)
    assert np.max(np.abs(expected)) > 0.1  # d >= n, so the antisymmetric part is not zero


# The per-state loop that eigenphase_check replaced, kept as its oracle.


def _eigenphase_oracle(spec, label_sets, n_max):
    worst = 0.0
    for labels in label_sets:
        labels = list(labels)
        state = physical_basis_state(spec, labels, n_max)
        phase = sum(walk.label_phase(spec, label) for label in labels)
        evolved = total_evolution_apply(spec, n_max, state)
        worst = max(worst, float(np.linalg.norm(evolved.amplitudes - np.exp(1j * phase) * state.amplitudes)))
    return worst


def _label_sets(spec, n):
    labels = energy_labels(spec)
    return [combo for size in range(n + 1) for combo in itertools.combinations(labels, size)]


def _count_steps(monkeypatch):
    calls = []
    step = multiparticle.total_evolution_apply

    def counted(spec, n_max, state):
        calls.append(state)
        return step(spec, n_max, state)

    monkeypatch.setattr(multiparticle, "total_evolution_apply", counted)
    return calls


# (dimension, N, particles): 3 particles in 1D and 2 in 2D, as the verify suite runs them
EIGENPHASE_LATTICES = [(1, 2, 3), (1, 4, 3), (2, 2, 3), (2, 4, 2)]


@pytest.mark.parametrize("theta", [0.05, 0.3, -2.0])
@pytest.mark.parametrize("dimension,n_sites,n", EIGENPHASE_LATTICES, ids=["1d-N2", "1d-N4", "2d-N2", "2d-N4"])
def test_eigenphase_check_agrees_with_the_per_state_loop(dimension, n_sites, n, theta):
    spec = make_lattice(dimension, n_sites, 1.0, 1.0, theta)
    sets = _label_sets(spec, n)
    got, expected = eigenphase_check(spec, sets, n), _eigenphase_oracle(spec, sets, n)
    assert got < TOL and expected < TOL and abs(got - expected) <= TOL


@pytest.mark.parametrize(
    "dimension,n,fault",
    [
        (2, 2, lambda mp, spec: faults.reverse_roll(mp, 2)),
        (1, 3, lambda mp, spec: faults.reverse_roll(mp, 1)),
        (1, 3, lambda mp, spec: faults.shift_phase(mp, energy_labels(spec)[0].mode, 1e-9)),
        (2, 2, lambda mp, spec: faults.shift_phase(mp, energy_labels(spec)[5].mode, 1e-9)),
    ],
    ids=["y-roll-reversed-2d", "x-roll-reversed-1d", "phase-1e-9-1d", "phase-1e-9-2d"],
)
def test_eigenphase_check_reads_faults_at_least_as_strongly_as_the_loop(monkeypatch, dimension, n, fault):
    spec = make_lattice(dimension, 4, 1.0, 1.0, 0.3)
    sets = _label_sets(spec, n)
    fault(monkeypatch, spec)
    got, expected = eigenphase_check(spec, sets, n), _eigenphase_oracle(spec, sets, n)
    assert got > TOL and got >= expected


@pytest.mark.parametrize("count", [1, 1024, 1025])
def test_eigenphase_check_steps_once_per_run_of_1024_states(monkeypatch, count):
    spec = make_lattice(2, 6, 1.0, 1.0, 0.05)
    sets = _label_sets(spec, 2)[:count]
    calls = _count_steps(monkeypatch)
    assert eigenphase_check(spec, sets, 2) < TOL
    assert len(calls) == ceil(count / multiparticle.RUN_STATES) and multiparticle.RUN_STATES == 1024


def test_eigenphase_check_at_2d_n6_takes_three_steps_and_stays_near_rounding(monkeypatch):
    spec = make_lattice(2, 6, 1.0, 1.0, 0.05)
    sets = _label_sets(spec, 2)
    assert len(sets) == 2629
    calls = _count_steps(monkeypatch)
    assert eigenphase_check(spec, sets, 2) <= 1e-13
    assert len(calls) == 3


def test_eigenstate_residual_holds_one_state_at_a_time(monkeypatch):
    # The pairs are read as the run fills and each state is built as its
    # labels are read: when the next labels are asked for, every state but
    # the last one built has been freed, whatever the run length (the
    # bound below allows one more).
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    refs, alive = [], []
    build = multiparticle._antisymmetrized_product

    def tracked(spec, vectors, n_max):
        state = build(spec, vectors, n_max)
        refs.append(weakref.ref(state))
        return state

    def pairs():
        for labels in _label_sets(spec, 2):
            alive.append(sum(ref() is not None for ref in refs))
            yield labels, 1.0

    monkeypatch.setattr(multiparticle, "_antisymmetrized_product", tracked)
    assert multiparticle.eigenstate_residual(spec, 2, pairs()) > 0.1  # eigenvalue 1 is wrong
    assert len(refs) == 37 and max(alive) <= 2
    calls = _count_steps(monkeypatch)
    assert multiparticle.eigenstate_residual(spec, 2, iter(())) == 0.0 and not calls


def _state_residual(spec, n_max, pairs):
    """The run-batched residual over built (state, eigenvalue) pairs, as it read before it built its own states."""
    pairs, amps = iter(pairs), walk.unit_phases(multiparticle.RUN_STATES)
    runs = np.empty((2, multiparticle.dense_size(spec.walk_dim, n_max)), dtype=complex)
    superposed, expected = runs
    weighted = np.empty_like(superposed)
    worst = 0.0
    while True:
        runs.fill(0.0)
        count = 0
        for count, (amp, (state, eigenvalue)) in enumerate(zip(amps, pairs), 1):
            superposed += np.multiply(amp, state.amplitudes, out=weighted)
            expected += np.multiply(amp * eigenvalue, state.amplitudes, out=weighted)
        if not count:
            return worst
        stepped = total_evolution_apply(spec, n_max, MultiState(superposed, spec.walk_dim, n_max)).amplitudes
        stepped -= expected
        worst = max(worst, float(np.linalg.norm(stepped)))


def _parent_eigenphase_residual(spec, n):
    """The eigenphase residual as built before each walk eigenstate was looked up once per call."""
    phase = lambda label: label.branch * walk.momentum_block(spec, label.mode).phi
    pairs = (
        (physical_basis_state(spec, labels, n), np.exp(1j * sum(map(phase, labels))))
        for labels in _label_sets(spec, n)
    )
    return _state_residual(spec, n, pairs)


def test_eigenphase_suite_builds_each_walk_eigenstate_once(monkeypatch):
    # 4 labels of 1D N=2 and 32 of 2D N=4; the per-state build made 1,052 calls
    calls = []
    eigenstate = walk.walk_eigenstate
    monkeypatch.setattr(walk, "walk_eigenstate", lambda spec, label: calls.append((spec, label)) or eigenstate(spec, label))
    options = VerifyOptions(make_lattice(1, 4, 1.0, 1.0, 0.05), make_lattice(2, 4, 1.0, 1.0, 0.05))
    assert all(row.passed for row in verify.check_eigenphase(options))
    assert len(calls) == len(set(calls)) == 4 + 32


@pytest.mark.parametrize(
    "config,seed",
    [({}, 0), ({"n_1d": 32, "n_2d": 4, "n_max": 3, "n_random": 10, "qca_sites": 4, "qca_types": 2}, 1)],
    ids=["default", "n_1d-32"],
)
def test_eigenphase_rows_are_bit_identical_to_the_per_state_build(tmp_path, config, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"verify": config}))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path), "--seed", str(seed), "--only", "eigenphase"]) == 0
    rows = json.loads((tmp_path / "verification.json").read_text())
    theta = cli.DEFAULT_CONFIG["lattice"]["theta"]
    lattices = [(make_lattice(1, 2, 1.0, 1.0, theta), 3), (make_lattice(2, config.get("n_2d", 4), 1.0, 1.0, theta), 2)]
    assert [row["max_residual"] for row in rows] == [_parent_eigenphase_residual(spec, n) for spec, n in lattices]


# The projected draw that random_physical_state replaced, kept as its oracle.


def _projected_random_state_oracle(walk_dim, n_factors, rng):
    dim = (walk_dim + 1) ** n_factors
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    projected = multiparticle.project_physical(MultiState(raw, walk_dim, n_factors))
    return MultiState(projected.amplitudes / projected.norm(), walk_dim, n_factors)


def _sector_weights(state):
    tensor = state.tensor()
    blocks = (multiparticle._occupied_block_index(n, state.n_factors, state.walk_dim) for n in range(state.n_factors + 1))
    return np.array([np.sum(np.abs(tensor[idx]) ** 2) for idx in blocks])


@pytest.mark.parametrize("d,n", [(4, 3), (6, 2), (32, 2), (64, 3)])
def test_random_physical_state_is_a_seeded_unit_physical_vector_in_every_sector(d, n):
    state = random_physical_state(d, n, np.random.default_rng(3))
    assert abs(state.norm() - 1.0) <= 1e-15
    assert physical_subspace_projector_residual(state) <= 1e-15
    assert np.all(_sector_weights(state) > 0)
    assert np.array_equal(state.amplitudes, random_physical_state(d, n, np.random.default_rng(3)).amplitudes)


@pytest.mark.parametrize("draw", [random_physical_state, _projected_random_state_oracle], ids=["draw", "oracle"])
def test_random_physical_state_sector_weights_follow_the_sector_dimensions(draw):
    # The weights of an isotropic draw are Dirichlet(C(d, n)): at (4, 3) the
    # means are (1, 4, 6, 4)/15 and the mean of 200 has a spread of at most 0.009.
    d, n, rng = 4, 3, np.random.default_rng(11)
    mean = np.mean([_sector_weights(draw(d, n, rng)) for _ in range(200)], axis=0)
    dims = np.array([comb(d, k) for k in range(n + 1)])
    np.testing.assert_allclose(mean, dims / dims.sum(), rtol=0, atol=0.04)


def _step_last_factor_off_angle(monkeypatch, error):
    """Step the last factor at a coin angle off by `error`, the others as the walk does."""

    def faulty(spec, n_max, state):
        tensor = state.tensor()
        for axis in range(n_max):
            angle = spec.theta + (error if axis == n_max - 1 else 0.0)
            u = extended_unitary(walk.build_walk_unitary(dataclasses.replace(spec, theta=angle)))
            tensor = np.moveaxis(np.tensordot(u, tensor, axes=(1, axis)), 0, axis)
        return MultiState(tensor.reshape(-1), state.walk_dim, n_max)

    monkeypatch.setattr(multiparticle, "total_evolution_apply", faulty)


def test_preservation_suite_fails_when_the_last_factor_steps_at_another_angle(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"verify": {"n_random": 5}}))
    _step_last_factor_off_angle(monkeypatch, 1e-9)
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path), "--only", "preservation"]) == 1
    rows = json.loads((tmp_path / "verification.json").read_text())
    assert [row["check"] for row in rows if not row["pass"]] == ["physical-preservation-1d", "physical-preservation-2d"]
    # the same fault read through the projected draw: about 7e-10 for both
    monkeypatch.setattr(multiparticle, "random_physical_state", _projected_random_state_oracle)
    options = VerifyOptions(make_lattice(1, 4, 1.0, 1.0, 0.05), make_lattice(2, 4, 1.0, 1.0, 0.05), n_random=5)
    for row, expected in zip(rows, verify.check_preservation(options)):
        assert row["max_residual"] > 1e-12 and row["max_residual"] >= expected.max_residual / 2


# The two-buffer step that total_evolution_apply replaced, kept as its oracle.


def _two_buffer_step_oracle(spec, n_max, state):
    f, d = state.factor_dim, state.walk_dim
    src = state.amplitudes
    buffers = [np.empty_like(src) for _ in range(min(n_max, 2))]
    for axis in range(n_max):
        dst = buffers[axis % 2]
        s, t = src.reshape(f**axis, f, -1), dst.reshape(f**axis, f, -1)
        walk.step_into(spec, s[:, :d], t[:, :d])
        t[:, d] = s[:, d]
        src = dst
    return MultiState(src.copy() if n_max == 0 else src, d, n_max)


@pytest.mark.parametrize(
    "spec,n_max",
    [(make_lattice(1, 4, 1.0, 1.0, 0.7), n) for n in (0, 1, 2, 3)]
    + [(make_lattice(1, 24, 1.0, 1.0, 0.05), 3), (make_lattice(2, 4, 1.0, 1.0, -1.1), 2)],
)
def test_total_evolution_equals_the_two_buffer_step_and_leaves_its_input(spec, n_max):
    rng = np.random.default_rng(30 + n_max)
    f = spec.walk_dim + 1
    raw = rng.standard_normal(f**n_max) + 1j * rng.standard_normal(f**n_max)
    for state in (random_physical_state(spec.walk_dim, n_max, rng), MultiState(raw, spec.walk_dim, n_max)):
        before = state.amplitudes.tobytes()
        out = total_evolution_apply(spec, n_max, state)
        assert state.amplitudes.tobytes() == before
        assert np.array_equal(out.amplitudes, _two_buffer_step_oracle(spec, n_max, state).amplitudes)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)


def _traced_peak(step, *args):
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_total_evolution_allocates_one_state_and_the_slab_scratch():
    # 3 particles on 1D N=32: 274,625 amplitudes, 4.4 MB.  The two-buffer
    # step read 9.4 MB against this bound of 6.0 MB.
    spec = make_lattice(1, 32, 1.0, 1.0, 0.05)
    state = random_physical_state(spec.walk_dim, 3, np.random.default_rng(2))
    bound = state.amplitudes.nbytes + 3 * walk.SLAB_AMPLITUDES * 16
    assert _traced_peak(total_evolution_apply, spec, 3, state) <= bound
    assert _traced_peak(_two_buffer_step_oracle, spec, 3, state) > bound


# The residual that built the whole projection, kept as its oracle.


def _projector_residual_oracle(state):
    projected = multiparticle.project_physical(state)
    return float(np.linalg.norm(state.amplitudes - projected.amplitudes))


def _residual_states(walk_dim, n_factors, rng):
    """A product, a physical, a 1e-9-perturbed physical and a random state."""
    f = walk_dim + 1
    physical = random_physical_state(walk_dim, n_factors, rng)
    noise = rng.standard_normal(f**n_factors) + 1j * rng.standard_normal(f**n_factors)
    return [
        product_state([random_walk_vector(rng, walk_dim) for _ in range(n_factors)], walk_dim),
        physical,
        MultiState(physical.amplitudes + 1e-9 * noise / np.linalg.norm(noise), walk_dim, n_factors),
        MultiState(noise, walk_dim, n_factors),
    ]


@pytest.mark.parametrize("d,n", [(4, 3), (8, 2), (48, 3), (32, 2)], ids=["1d-n2", "1d-n4", "1d-n24", "2d-n4"])
def test_projector_residual_agrees_with_the_projection(d, n):
    for state in _residual_states(d, n, np.random.default_rng(d + n)):
        expected = _projector_residual_oracle(state)
        assert abs(physical_subspace_projector_residual(state) - expected) <= 1e-15 * expected


@pytest.mark.parametrize("n_factors", [2, 3, 4])
def test_projector_residual_reads_weight_in_each_off_sector_view(n_factors):
    d, eps, rng = 4, 1e-9, np.random.default_rng(n_factors)
    views = multiparticle._off_sector_indices(n_factors, d)
    assert len(views) == n_factors * (n_factors - 1) // 2
    for idx in views:
        # a one-particle state, whose block residuals are exactly zero, plus eps in one view
        state = product_state([random_walk_vector(rng, d)] + [None] * (n_factors - 1), d)
        tensor = state.tensor()
        piece = rng.standard_normal(tensor[idx].shape) + 1j * rng.standard_normal(tensor[idx].shape)
        tensor[idx] = eps * piece / np.linalg.norm(piece)
        assert abs(physical_subspace_projector_residual(state) - eps) <= 1e-15 * eps
    assert physical_subspace_projector_residual(random_physical_state(d, n_factors, rng)) <= 1e-15


@pytest.mark.parametrize("n_factors", range(5))
def test_blocks_and_off_sector_views_cover_the_tensor_once(n_factors):
    d = 3
    count = np.zeros((d + 1,) * n_factors, dtype=int)
    blocks = [multiparticle._occupied_block_index(n, n_factors, d) for n in range(n_factors + 1)]
    for idx in blocks + multiparticle._off_sector_indices(n_factors, d):
        count[idx] += 1
    assert np.all(count == 1)


def _out_of_block_pieces(n_factors, n, d):
    """The other blocks and the off-sector views: everything antisymmetrize(_, n) refuses."""
    blocks = [multiparticle._occupied_block_index(m, n_factors, d) for m in range(n_factors + 1) if m != n]
    return blocks + multiparticle._off_sector_indices(n_factors, d)


@pytest.mark.parametrize("weight,refused", [(2e-12, True), (5e-13, False)])
def test_antisymmetrize_weighs_each_out_of_block_piece(weight, refused):
    d, rng = SPEC.walk_dim, np.random.default_rng(12)
    pieces = _out_of_block_pieces(3, 2, d)
    assert len(pieces) == 6
    for idx in pieces:
        state = product_state([random_walk_vector(rng, d), random_walk_vector(rng, d), None], d)
        tensor = state.tensor()
        shape = np.shape(tensor[idx])
        piece = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensor[idx] = weight * piece / np.linalg.norm(piece)
        if refused:
            with pytest.raises(ValueError, match="outside the first-2-occupied block"):
                antisymmetrize(state, 2)
        else:
            assert antisymmetrize(state, 2).norm() > 0.1


# The antisymmetrizer that copied its input first and returned a new array, and the product built around
# it with the dense output allocated first and the block copied in, kept as oracles for the forms that
# write into the output.


def _copying_antisymmetrizer_oracle(block, n):
    out = block.copy()
    for k in range(1, n):
        prev = out
        out = prev.copy()
        for i in range(k):
            out -= prev.swapaxes(i, k)
        out /= k + 1
    return out


def _antisymmetrized_product_oracle(spec, vectors, n_max):
    n, d = len(vectors), spec.walk_dim
    out = np.zeros((d + 1) ** n_max, dtype=complex)
    product = vectors[0]
    for vec in vectors[1:]:
        product = np.multiply.outer(product, vec)
    block = sqrt(factorial(n)) * _copying_antisymmetrizer_oracle(product, n)
    out.reshape((d + 1,) * n_max)[(slice(0, d),) * n + (d,) * (n_max - n)] = block
    return out


SIGNED_ZEROS = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j])


def _tied_tensor(rng, d, n):
    """A random complex (d,)*n tensor with signed zeros, and with t[i, j, ...] == t[j, i, ...] at random places."""
    t = np.asarray(rng.standard_normal((d,) * n) + 1j * rng.standard_normal((d,) * n))
    zeros = rng.random(t.shape) < 0.4
    t[zeros] = rng.choice(SIGNED_ZEROS, int(zeros.sum()))
    if n >= 2:
        tie = rng.random(t.shape) < 0.3
        tie |= tie.swapaxes(0, 1)
        t = np.where(tie, t + t.swapaxes(0, 1), t)
    return t


def _block_view(d, n):
    """The zeroed first-n-occupied block of an (n+1)-factor tensor: a strided view, 0-d at n = 0."""
    return np.zeros((d + 1,) * (n + 1), dtype=complex)[(slice(0, d),) * n + (d, ...)]


@pytest.mark.parametrize("into", ["new", "view", "itself"])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "state-view"])
@pytest.mark.parametrize("n", range(5))
def test_antisymmetrizer_equals_the_copying_one_bit_for_bit(n, strided, into):
    rng = np.random.default_rng(40 + n)
    d = 5
    tensor = _tied_tensor(rng, d, n)
    assert n == 0 or (np.signbit(tensor.real) & (tensor.real == 0)).any()
    block = _block_view(d, n) if strided else tensor.copy()
    block[...] = tensor
    expected = _copying_antisymmetrizer_oracle(block, n)
    out = {"new": None, "view": _block_view(d, n), "itself": block}[into]
    got = _antisymmetrize_tensor(block, n, out)
    assert got is out or (into == "new" and not np.shares_memory(got, block))
    # tobytes compares the values and the sign bit of every zero
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    if into != "itself":
        assert block.tobytes() == tensor.tobytes()
    if strided and into != "itself":  # the state whose block this is, as antisymmetrize reads it
        state = MultiState(block.base.reshape(-1), d, n + 1)
        out = antisymmetrize(state, n).tensor()
        assert out[(slice(0, d),) * n + (d, ...)].tobytes() == expected.tobytes()
        assert np.count_nonzero(out) == np.count_nonzero(expected)


@pytest.mark.parametrize("dimension,n_sites,n_max", [(1, 4, 3), (1, 6, 2), (2, 2, 3), (2, 4, 2)])
def test_physical_basis_states_equal_the_copying_build_bit_for_bit(dimension, n_sites, n_max):
    spec = make_lattice(dimension, n_sites, 1.0, 1.0, 0.3)
    labels = energy_labels(spec)
    for n in range(1, n_max + 1):
        for chosen in itertools.islice(itertools.combinations(labels, n), 0, None, 7):
            vectors = [walk.walk_eigenstate(spec, label) for label in chosen]
            expected = _antisymmetrized_product_oracle(spec, vectors, n_max)
            assert physical_basis_state(spec, chosen, n_max).amplitudes.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "name,bound", [("physical_basis_state", 2.1), ("antisymmetrize", 2.1), ("check_preservation", 3.1)]
)
def test_the_dense_layer_holds_no_more_states_than_it_needs(name, bound):
    # 3 particles on 1D N=32: 274,625 amplitudes, 4.4 MB a state.  The traced peak beyond the live inputs,
    # in states, read 3.89, 2.94 and 3.95 with the copying antisymmetrizer, its result copied into the
    # dense output, and every drawn and stepped state kept until the next was made.
    spec = make_lattice(1, 32, 1.0, 1.0, 0.3)
    state_bytes = 16 * (spec.walk_dim + 1) ** 3
    labels = energy_labels(spec)[::25]
    basis_state = physical_basis_state(spec, labels, 3)
    options = VerifyOptions(spec, make_lattice(2, 2, 1.0, 1.0, 0.3), n_random=3)
    calls = {
        "physical_basis_state": lambda: physical_basis_state(spec, labels, 3),
        "antisymmetrize": lambda: antisymmetrize(basis_state, 3),
        "check_preservation": lambda: verify.check_preservation(options),
    }
    calls[name]()  # a first call imports numpy submodules, which the trace would count
    assert _traced_peak(calls[name]) / state_bytes <= bound
