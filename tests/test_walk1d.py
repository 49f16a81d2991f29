from math import acos, cos, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walkqca.lattice import EnergyModeLabel, make_lattice, momentum_grid, momentum_mode
from walkqca.walk import momentum_state, pauli_coefficients
from walkqca.walk1d import (
    build_walk_unitary_1d,
    momentum_block_1d,
    spectrum_rows_1d,
    verify_block_consistency,
    walk_eigenstate_1d,
)

TOL = 1e-12


def basis_vector(spec, x, coin):
    e = np.zeros(spec.walk_dim, dtype=complex)
    e[2 * x + coin] = 1.0
    return e


def test_zero_angle_is_pure_conditional_shift():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.0)
    u = build_walk_unitary_1d(spec)
    out = u @ basis_vector(spec, 0, 0)
    np.testing.assert_allclose(out, basis_vector(spec, 1, 0), atol=TOL)
    out_l = u @ basis_vector(spec, 0, 1)
    np.testing.assert_allclose(out_l, basis_vector(spec, 3, 1), atol=TOL)


def test_quarter_turn_coin_swaps_and_phases():
    spec = make_lattice(1, 4, 1.0, 1.0, pi / 2)
    u = build_walk_unitary_1d(spec)
    out = u @ basis_vector(spec, 0, 0)
    np.testing.assert_allclose(out, 1j * basis_vector(spec, 1, 1), atol=TOL)


@pytest.mark.parametrize("n,theta", [(2, 0.3), (4, 0.3), (8, 1.1), (6, 0.0), (2, pi / 2)])
def test_unitarity(n, theta):
    u = build_walk_unitary_1d(make_lattice(1, n, 1.0, 1.0, theta))
    assert np.max(np.abs(u.conj().T @ u - np.eye(2 * n))) < TOL


def test_sparsity_at_most_two_entries_per_row_and_column():
    u = build_walk_unitary_1d(make_lattice(1, 8, 1.0, 1.0, 0.3))
    nz = np.abs(u) > 1e-14
    assert nz.sum(axis=0).max() <= 2
    assert nz.sum(axis=1).max() <= 2


def test_momentum_state_is_shift_eigenvector():
    spec = make_lattice(1, 6, 0.5, 1.0, 0.2)
    for mode in momentum_grid(spec):
        plane = momentum_state(spec, mode)
        shifted = np.roll(plane, 1)  # S|x> = |x+dx>
        np.testing.assert_allclose(shifted, np.exp(1j * mode.k[0] * spec.dx) * plane, atol=TOL)


def test_identity_block_at_zero_momentum_zero_angle():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.0)
    block = momentum_block_1d(spec, momentum_mode(spec, 0))
    assert block.degenerate
    assert block.phi == pytest.approx(0.0, abs=TOL)
    np.testing.assert_allclose(block.matrix, np.eye(2), atol=TOL)


def test_quarter_wave_eigenphase_forced():
    # cos(phi) = cos(k dx) cos(theta) vanishes whenever k dx = pi/2
    for n, theta in ((4, 0.3), (4, 0.9), (8, 0.1)):
        spec = make_lattice(1, n, 1.0, 1.0, theta)
        mode = momentum_mode(spec, n // 4)
        assert mode.k[0] * spec.dx == pytest.approx(pi / 2)
        assert momentum_block_1d(spec, mode).phi == pytest.approx(pi / 2, abs=TOL)


def test_spot_eigenphase_against_independent_diagonalization():
    # oracle: build the block directly from the factor matrices and
    # diagonalize numerically (no closed-form eigenphase involved)
    k_dx, theta = 0.1, 0.05
    coin = np.array([[cos(theta), 1j * sin(theta)], [1j * sin(theta), cos(theta)]])
    direct = coin @ np.diag([np.exp(1j * k_dx), np.exp(-1j * k_dx)])
    phases = np.sort(np.angle(np.linalg.eigvals(direct)))
    assert phases[1] == pytest.approx(0.11176609378183253, abs=1e-14)
    assert phases[1] == pytest.approx(acos(cos(k_dx) * cos(theta)), abs=1e-14)

    r = pauli_coefficients((k_dx,), theta)
    assert acos(r[0]) == pytest.approx(phases[1], abs=1e-13)


def test_blocks_match_factor_built_matrices_on_grid():
    spec = make_lattice(1, 8, 0.5, 1.0, 0.37)
    for mode in momentum_grid(spec):
        a = mode.k[0] * spec.dx
        coin = np.array(
            [[cos(spec.theta), 1j * sin(spec.theta)], [1j * sin(spec.theta), cos(spec.theta)]]
        )
        direct = coin @ np.diag([np.exp(1j * a), np.exp(-1j * a)])
        block = momentum_block_1d(spec, mode)
        np.testing.assert_allclose(block.matrix, direct, atol=TOL)
        assert sum(c * c for c in block.r) == pytest.approx(1.0, abs=TOL)


def test_eigenvectors_match_explicit_normalized_forms():
    # oracle: the explicit closed forms with their own normalizations
    spec = make_lattice(1, 8, 1.0, 1.0, 0.4)
    for mode in momentum_grid(spec):
        block = momentum_block_1d(spec, mode)
        if block.degenerate:
            continue
        a = mode.k[0] * spec.dx
        root = sqrt(1.0 - (cos(a) * cos(spec.theta)) ** 2)
        top_plus = sin(a) * cos(spec.theta) + root
        top_minus = sin(a) * cos(spec.theta) - root
        bottom = np.exp(1j * a) * sin(spec.theta)
        for top, vec in ((top_plus, block.v_plus), (top_minus, block.v_minus)):
            norm = sqrt(top**2 + sin(spec.theta) ** 2)
            if norm < 1e-9:
                continue  # the closed form itself degenerates here
            expected = np.array([top, bottom]) / norm
            np.testing.assert_allclose(vec, expected, atol=1e-12)


def test_eigenvalue_equation_residuals():
    for n, theta in ((4, 0.3), (6, 1.2), (10, 0.05)):
        spec = make_lattice(1, n, 1.0, 1.0, theta)
        for mode in momentum_grid(spec):
            block = momentum_block_1d(spec, mode)
            if block.degenerate:
                continue
            lam = np.exp(1j * block.phi)
            assert np.linalg.norm(block.matrix @ block.v_plus - lam * block.v_plus) < TOL
            assert np.linalg.norm(block.matrix @ block.v_minus - np.conj(lam) * block.v_minus) < TOL
            assert abs(np.vdot(block.v_plus, block.v_minus)) < TOL


def test_eigenphase_even_in_momentum():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.7)
    for ell in range(1, 4):
        plus = momentum_block_1d(spec, momentum_mode(spec, ell))
        minus = momentum_block_1d(spec, momentum_mode(spec, -ell))
        assert plus.phi == pytest.approx(minus.phi, abs=TOL)


def test_walk_eigenstate_coin_part_at_zero_momentum():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.6)
    state = walk_eigenstate_1d(spec, EnergyModeLabel(momentum_mode(spec, 0), 1))
    coin_part = state[:2] * sqrt(spec.N)  # |k=0> has constant 1/sqrt(N) amplitudes
    np.testing.assert_allclose(coin_part, np.array([1.0, 1.0]) / sqrt(2.0), atol=TOL)


def test_walk_eigenstates_satisfy_dense_eigen_equation():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    u = build_walk_unitary_1d(spec)
    for mode in momentum_grid(spec):
        block = momentum_block_1d(spec, mode)
        for branch in (-1, 1):
            state = walk_eigenstate_1d(spec, EnergyModeLabel(mode, branch))
            assert abs(np.linalg.norm(state) - 1.0) < TOL
            residual = np.linalg.norm(u @ state - np.exp(1j * branch * block.phi) * state)
            assert residual < TOL


def test_forced_quarter_phase_eigenstate():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    mode = momentum_mode(spec, 1)  # k dx = pi/2
    state = walk_eigenstate_1d(spec, EnergyModeLabel(mode, -1))
    u = build_walk_unitary_1d(spec)
    np.testing.assert_allclose(u @ state, np.exp(-1j * pi / 2) * state, atol=TOL)


@pytest.mark.parametrize("n,theta", [(4, 0.3), (2, pi / 2), (6, 0.0), (8, 1.0)])
def test_block_consistency(n, theta):
    assert verify_block_consistency(make_lattice(1, n, 1.0, 1.0, theta)) < TOL


def test_off_grid_mode_rejected():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    other = make_lattice(1, 6, 1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        momentum_block_1d(spec, momentum_mode(other, 1))
    with pytest.raises(ValueError):
        build_walk_unitary_1d(make_lattice(2, 4, 1.0, 1.0, 0.3))


def test_spectrum_rows_schema():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.1)
    rows = spectrum_rows_1d(spec)
    assert len(rows) == 8
    assert list(rows[0]) == ["ell", "k", "r0", "r1", "r2", "r3", "phi", "degenerate"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-10, 10),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
@example(ell=0, theta=1.5707900742010157)
def test_block_properties_random(ell, theta):
    spec = make_lattice(1, 10, 1.0, 1.0, theta)
    block = momentum_block_1d(spec, momentum_mode(spec, ell))
    assert sum(c * c for c in block.r) == pytest.approx(1.0, abs=TOL)
    m = block.matrix
    assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < TOL
    assert cos(block.phi) == pytest.approx(block.r[0], abs=TOL)
    if not block.degenerate:
        lam = np.exp(1j * block.phi)
        assert np.linalg.norm(m @ block.v_plus - lam * block.v_plus) < TOL
