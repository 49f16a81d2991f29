from math import pi

import numpy as np
import pytest

import faults
from kron_walk import kron_walk
from walkqca import multiparticle, walk
from walkqca.lattice import make_lattice, momentum_grid, momentum_mode


@pytest.mark.parametrize("n", [2, 4, 10])
@pytest.mark.parametrize("theta", [0.0, 0.05, 0.3, 1.2, pi / 2, 3.0, pi])
def test_2d_block_at_zero_ky_equals_1d_block(n, theta):
    spec1 = make_lattice(1, n, 1.0, 1.0, theta)
    spec2 = make_lattice(2, n, 1.0, 1.0, theta)
    for ell in range(-n // 2 + 1, n // 2 + 1):
        block1 = walk.momentum_block(spec1, momentum_mode(spec1, ell))
        block2 = walk.momentum_block(spec2, momentum_mode(spec2, (ell, 0)))
        assert block2.r == block1.r
        assert block2.phi == block1.phi
        assert np.array_equal(block2.matrix, block1.matrix)


@pytest.mark.parametrize(
    "dimension,n", [(1, 2), (1, 4), (1, 6), (1, 64), (2, 2), (2, 4), (2, 6)]
)
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, -2.0])
def test_step_into_equals_the_dense_walk(dimension, n, theta):
    spec = make_lattice(dimension, n, 1.0, 1.0, theta)
    u = kron_walk(n, dimension, theta)
    rng = np.random.default_rng(n)
    shape = (3, spec.walk_dim, 4)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = psi.copy()
    out = np.empty_like(psi)
    walk.step_into(spec, psi, out)
    np.testing.assert_allclose(out, np.einsum("ij,ajb->aib", u, psi), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(psi, before)


@pytest.mark.parametrize("dimension,n", [(1, 6), (2, 4)])
@pytest.mark.parametrize("shape,slab_columns", [((3, 5), 1), ((3, 5), 2), ((7, 1), 3)])
def test_step_into_in_slabs_equals_one_slab(monkeypatch, dimension, n, shape, slab_columns):
    """Partial slabs along A and along B give the same bits as one slab."""
    spec = make_lattice(dimension, n, 1.0, 1.0, 0.7)
    a, b = shape
    rng = np.random.default_rng(9)
    psi = rng.standard_normal((a, spec.walk_dim, b)) + 1j * rng.standard_normal((a, spec.walk_dim, b))
    whole, slabbed = np.empty_like(psi), np.empty_like(psi)
    walk.step_into(spec, psi, whole)
    monkeypatch.setattr(walk, "SLAB_AMPLITUDES", slab_columns * spec.walk_dim)
    walk.step_into(spec, psi, slabbed)
    np.testing.assert_array_equal(slabbed, whole)


@pytest.mark.parametrize("dimension,n", [(1, 4), (1, 512), (2, 4), (2, 16)])
@pytest.mark.parametrize("a,b", [(1, 1), (3, 5), (1, 64)])
@pytest.mark.parametrize("slab_columns", [None, 2], ids=["one-slab", "split-slabs"])
def test_step_into_in_place_equals_a_separate_output(monkeypatch, dimension, n, a, b, slab_columns):
    """out is src gives the bits of a separate out, also where slabs split A and B."""
    spec = make_lattice(dimension, n, 1.0, 1.0, 0.7)
    if slab_columns:
        monkeypatch.setattr(walk, "SLAB_AMPLITUDES", slab_columns * spec.walk_dim)
    rng = np.random.default_rng(n + a + b)
    psi = rng.standard_normal((a, spec.walk_dim, b)) + 1j * rng.standard_normal((a, spec.walk_dim, b))
    separate, in_place = np.empty_like(psi), psi.copy()
    walk.step_into(spec, psi, separate)
    walk.step_into(spec, in_place, in_place)
    np.testing.assert_array_equal(in_place, separate)
    assert not np.array_equal(separate, psi)


def test_step_into_refuses_an_out_that_partly_overlaps_src():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    psi = np.zeros((1, spec.walk_dim, 6), dtype=complex)
    with pytest.raises(ValueError, match="share no memory"):
        walk.step_into(spec, psi[:, :, :5], psi[:, :, 1:])


def test_step_into_rejects_a_walk_axis_of_the_wrong_length():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    psi = np.zeros((1, spec.walk_dim + 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        walk.step_into(spec, psi, np.empty_like(psi))


@pytest.mark.parametrize("dimension,n", [(1, 8), (2, 4)])
def test_hot_paths_build_no_dense_walk(monkeypatch, dimension, n):
    spec = make_lattice(dimension, n, 1.0, 1.0, 0.3)
    psi = np.random.default_rng(5).standard_normal(spec.walk_dim).astype(complex)
    state = multiparticle.product_state([psi, None], spec.walk_dim)
    expected = kron_walk(n, dimension, 0.3) @ psi

    def refuse(*args, **kwargs):
        raise AssertionError("dense walk built")

    monkeypatch.setattr(walk, "walk_matrix", refuse)
    assert walk.verify_block_consistency(spec) < 1e-12
    out = multiparticle.total_evolution_apply(spec, 2, state)
    np.testing.assert_allclose(out.tensor()[:-1, -1], expected, rtol=0, atol=1e-14)


# Odd rings reach only the dense matrix: LatticeSpec refuses odd N.
ODD_RINGS = [(1, 3), (1, 5), (2, 3)]


@pytest.mark.parametrize("dimension,n", ODD_RINGS)
@pytest.mark.parametrize("theta", [0.0, 0.3, -2.0])
def test_walk_matrix_on_odd_rings_equals_the_kron_oracle(dimension, n, theta):
    np.testing.assert_allclose(
        walk.walk_matrix(n, dimension, theta), kron_walk(n, dimension, theta), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("dimension,n", ODD_RINGS + [(1, 4), (2, 4)])
def test_kron_oracle_comparison_catches_swapped_rolls(monkeypatch, dimension, n):
    # negative control: from three sites on, a +1 roll is not a -1 roll
    faults.reverse_roll(monkeypatch)
    swapped = walk.walk_matrix(n, dimension, 0.3)
    assert np.max(np.abs(swapped - kron_walk(n, dimension, 0.3))) > 0.5


def _block_consistency_oracle(spec):
    """The per-mode loop: step the plane-wave pair |k>|R>, |k>|L> and compare with the block."""
    stepped = np.empty((1, spec.walk_dim, 2), dtype=complex)
    worst = 0.0
    for mode in momentum_grid(spec):
        plane = walk.momentum_state(spec, mode)
        pair = np.column_stack([np.kron(plane, e) for e in np.eye(2)])
        walk.step_into(spec, pair[None], stepped)
        block = walk.momentum_block(spec, mode)
        worst = max(worst, float(np.max(np.abs(stepped[0] - pair @ block.matrix))))
    return worst


BLOCK_ANGLES = [0.0, 0.05, 0.3, -2.0]


@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 4), (1, 32), (1, 512), (2, 2), (2, 4), (2, 16)])
@pytest.mark.parametrize("theta", BLOCK_ANGLES)
def test_block_consistency_and_its_oracle_hold(dimension, n, theta):
    spec = make_lattice(dimension, n, 1.0, 1.0, theta)
    assert walk.verify_block_consistency(spec) <= 1e-12
    assert _block_consistency_oracle(spec) <= 1e-12


@pytest.mark.parametrize("theta", BLOCK_ANGLES)
def test_block_consistency_holds_on_2d_n64(theta):
    # one plane-wave pair per mode would step 4096 pairs here
    assert walk.verify_block_consistency(make_lattice(2, 64, 1.0, 1.0, theta)) <= 1e-12


def _perturb_one_amplitude(monkeypatch):
    step = walk.step_into

    def perturbed(spec, src, out):  # the walk plus 1e-6 at entry (0, 0)
        step(spec, src, out)
        out[:, 0] += 1e-6 * src[:, 0]

    monkeypatch.setattr(walk, "step_into", perturbed)


def _tilt_coin(monkeypatch):
    coin = walk.coin_matrix
    monkeypatch.setattr(walk, "coin_matrix", lambda theta: coin(theta + 1e-9))


BLOCK_FAULTS = {
    "y-roll-reversed": lambda monkeypatch: faults.reverse_roll(monkeypatch, 2),
    "one-amplitude": _perturb_one_amplitude,
    "coin-angle": _tilt_coin,
}


@pytest.mark.parametrize(
    "fault,dimension,n",
    [("y-roll-reversed", 2, 4), ("y-roll-reversed", 2, 16)]
    + [(fault, *lattice) for fault in ("one-amplitude", "coin-angle") for lattice in [(2, 4), (2, 16), (1, 32)]],
)
def test_block_consistency_reads_a_fault_at_least_as_strongly_as_the_oracle(monkeypatch, fault, dimension, n):
    # negative control: each fault touches the step and not the closed-form blocks
    spec = make_lattice(dimension, n, 1.0, 1.0, 0.3)
    BLOCK_FAULTS[fault](monkeypatch)
    reading = walk.verify_block_consistency(spec)
    assert reading > 1e-12
    assert reading >= _block_consistency_oracle(spec)
    if fault == "one-amplitude":  # unit-modulus input: a fault of size d reads about d
        assert reading >= 5e-7


@pytest.mark.parametrize("dimension,n", [(1, 8), (2, 4)])
def test_block_consistency_steps_once_and_builds_no_plane_wave(monkeypatch, dimension, n):
    calls = []
    step = walk.step_into

    def counted(*args):
        calls.append(args)
        step(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("plane wave built")

    monkeypatch.setattr(walk, "step_into", counted)
    monkeypatch.setattr(walk, "momentum_state", refuse)
    assert walk.verify_block_consistency(make_lattice(dimension, n, 1.0, 1.0, 0.3)) < 1e-12
    assert len(calls) == 1
