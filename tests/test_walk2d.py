from math import cos, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkqca.blocks import SIGMA_X, SIGMA_Y, SIGMA_Z
from walkqca.lattice import EnergyModeLabel, make_lattice, momentum_grid, momentum_mode
from walkqca.walk import DIRECTION_BASES, coin_matrix, momentum_state, pauli_coefficients
from walkqca.walk2d import (
    build_walk_unitary_2d,
    momentum_block_2d,
    spectrum_rows_2d,
    verify_block_consistency_2d,
    walk_eigenstate_2d,
)

TOL = 1e-12

# The coin frame: the direction vectors are the columns of DIRECTION_BASES.
R, L = DIRECTION_BASES[0].T
U, D = DIRECTION_BASES[1].T
DIRECTIONS = {"R": R, "L": L, "U": U, "D": D}


def _direction_op(forward, backward):
    return np.outer(forward, forward.conj()) - np.outer(backward, backward.conj())


# The three direction operators: dpx = |R><R| - |L><L|, dpy = |U><U| - |D><D|
# and the swap q that the coin exponentiates.
FRAME_OPS = {"dpx": _direction_op(R, L), "dpy": _direction_op(U, D), "q": SIGMA_X}


def test_frame_directions_normalized_and_orthogonal():
    for vec in DIRECTIONS.values():
        assert abs(np.linalg.norm(vec) - 1.0) < TOL
    assert abs(np.vdot(R, L)) < TOL
    assert abs(np.vdot(U, D)) < TOL


def test_frame_direction_operators_in_storage_basis():
    np.testing.assert_array_equal(FRAME_OPS["dpx"], SIGMA_Z)
    np.testing.assert_array_equal(FRAME_OPS["dpy"], -SIGMA_Y)


def test_frame_pauli_algebra_exact():
    eye = np.eye(2)
    for op in FRAME_OPS.values():
        assert np.array_equal(op @ op.conj().T, eye)
        assert np.array_equal(op @ op, eye)
    for a, b in (("dpx", "dpy"), ("dpx", "q"), ("dpy", "q")):
        anti = FRAME_OPS[a] @ FRAME_OPS[b] + FRAME_OPS[b] @ FRAME_OPS[a]
        assert np.max(np.abs(anti)) == 0.0, (a, b)


def test_frame_unbiasedness():
    for a in (R, L):
        for b in (U, D):
            assert abs(np.vdot(a, b)) == pytest.approx(1 / sqrt(2), abs=TOL)


def test_frame_swap_is_exact():
    for src, dst in (("R", "L"), ("L", "R"), ("U", "D"), ("D", "U")):
        np.testing.assert_array_equal(FRAME_OPS["q"] @ DIRECTIONS[src], DIRECTIONS[dst])


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.1, 2.5])
def test_coin_is_the_exponentiated_swap(theta):
    coin = coin_matrix(theta)
    np.testing.assert_array_equal(coin, cos(theta) * np.eye(2) + 1j * sin(theta) * FRAME_OPS["q"])
    assert np.max(np.abs(coin.conj().T @ coin - np.eye(2))) < TOL


def site_coin_vector(spec, x, y, coin_vec):
    pos = np.zeros(spec.N * spec.N, dtype=complex)
    pos[x * spec.N + y] = 1.0
    return np.kron(pos, coin_vec)


def test_zero_angle_step_spreads_diagonally():
    # oracle: apply the three factor matrices one after another
    spec = make_lattice(2, 4, 1.0, 1.0, 0.0)
    u = build_walk_unitary_2d(spec)
    start = site_coin_vector(spec, 0, 0, R)
    out = u @ start
    # the R state is an equal-weight mix of U and D, so the particle lands
    # on (1, 1) and (1, -1) with half weight each
    weights = np.abs(out.reshape(spec.N * spec.N, 2)) ** 2
    per_site = weights.sum(axis=1)
    expected = np.zeros(spec.N * spec.N)
    expected[1 * spec.N + 1] = 0.5
    expected[1 * spec.N + 3] = 0.5  # y = -1 wraps to 3
    np.testing.assert_allclose(per_site, expected, atol=TOL)


@pytest.mark.parametrize("n,theta", [(2, 0.3), (4, 1.1), (2, 0.0)])
def test_unitarity(n, theta):
    u = build_walk_unitary_2d(make_lattice(2, n, 1.0, 1.0, theta))
    assert np.max(np.abs(u.conj().T @ u - np.eye(2 * n * n))) < TOL


def test_momentum_pair_invariant_under_step():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.4)
    u = build_walk_unitary_2d(spec)
    for ell in ((0, 0), (1, 0), (1, 2), (-1, 1)):
        mode = momentum_mode(spec, ell)
        plane = momentum_state(spec, mode)
        basis = [np.kron(plane, e) for e in (np.array([1.0, 0]), np.array([0, 1.0]))]
        span = np.column_stack(basis)
        for vec in basis:
            evolved = u @ vec
            inside = span @ (span.conj().T @ evolved)
            assert np.linalg.norm(evolved - inside) < TOL


def test_block_at_zero_momentum():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.25)
    block = momentum_block_2d(spec, momentum_mode(spec, (0, 0)))
    assert block.r == pytest.approx((cos(0.25), sin(0.25), 0.0, 0.0), abs=TOL)
    assert block.phi == pytest.approx(0.25, abs=TOL)


def test_block_zero_angle_axis_momentum():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.0)
    mode = momentum_mode(spec, (1, 0))
    a = mode.k[0] * spec.dx
    block = momentum_block_2d(spec, mode)
    assert block.r == pytest.approx((cos(a), 0.0, 0.0, sin(a)), abs=TOL)


def test_spot_eigenphase_against_factor_built_oracle():
    # oracle: multiply the coin and the two axis rotations as matrices and
    # diagonalize numerically
    a, b, theta = 0.1, 0.07, 0.05
    coin = cos(theta) * np.eye(2) + 1j * sin(theta) * FRAME_OPS["q"]
    leg_y = cos(b) * np.eye(2) + 1j * sin(b) * FRAME_OPS["dpy"]
    leg_x = cos(a) * np.eye(2) + 1j * sin(a) * FRAME_OPS["dpx"]
    direct = coin @ leg_y @ leg_x
    phases = np.sort(np.angle(np.linalg.eigvals(direct)))
    assert phases[1] == pytest.approx(0.13442942835353514, abs=1e-14)

    r = pauli_coefficients((a, b), theta)
    assert sum(c * c for c in r) == pytest.approx(1.0, abs=TOL)
    np.testing.assert_allclose(
        direct,
        r[0] * np.eye(2)
        + 1j * (r[1] * np.array([[0, 1], [1, 0]])
                + r[2] * np.array([[0, -1j], [1j, 0]])
                + r[3] * np.diag([1, -1])),
        atol=TOL,
    )


def test_eigenvectors_orthogonal_and_satisfy_eigen_equation():
    for theta in (0.3, 0.0, 1.2):
        spec = make_lattice(2, 4, 1.0, 1.0, theta)
        for mode in momentum_grid(spec):
            block = momentum_block_2d(spec, mode)
            assert abs(np.vdot(block.v_plus, block.v_minus)) < TOL
            if block.degenerate:
                continue
            lam = np.exp(1j * block.phi)
            assert np.linalg.norm(block.matrix @ block.v_plus - lam * block.v_plus) < TOL
            assert np.linalg.norm(block.matrix @ block.v_minus - np.conj(lam) * block.v_minus) < TOL


def test_eigenvector_formula_at_zero_momentum():
    # with r = (cos t, sin t, 0, 0) the plus eigenvector is (1, 1)/sqrt(2)
    spec = make_lattice(2, 2, 1.0, 1.0, 0.7)
    block = momentum_block_2d(spec, momentum_mode(spec, (0, 0)))
    np.testing.assert_allclose(block.v_plus, np.array([1.0, 1.0]) / sqrt(2), atol=TOL)


def test_walk_eigenstates_on_dense_unitary():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.3)
    u = build_walk_unitary_2d(spec)
    for ell in ((0, 0), (1, 1), (2, -1), (1, 0)):
        mode = momentum_mode(spec, ell)
        block = momentum_block_2d(spec, mode)
        for branch in (-1, 1):
            state = walk_eigenstate_2d(spec, EnergyModeLabel(mode, branch))
            assert abs(np.linalg.norm(state) - 1.0) < TOL
            residual = np.linalg.norm(u @ state - np.exp(1j * branch * block.phi) * state)
            assert residual < TOL


@pytest.mark.parametrize("n,theta", [(2, 0.3), (4, 0.3), (2, 0.0), (4, 1.4)])
def test_block_consistency(n, theta):
    assert verify_block_consistency_2d(make_lattice(2, n, 1.0, 1.0, theta)) < TOL


def test_degenerate_modes_are_exactly_the_small_sin_phi_set():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.0)
    for mode in momentum_grid(spec):
        block = momentum_block_2d(spec, mode)
        s = sqrt(sum(c * c for c in block.r[1:]))
        assert block.degenerate == (s < 1e-9)


def test_spectrum_rows_schema():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.1)
    rows = spectrum_rows_2d(spec)
    assert len(rows) == 16
    assert list(rows[0]) == [
        "ell_x", "ell_y", "k_x", "k_y", "r0", "r1", "r2", "r3", "phi", "degenerate",
    ]


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        build_walk_unitary_2d(make_lattice(1, 4, 1.0, 1.0, 0.3))
    spec = make_lattice(2, 4, 1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        momentum_block_2d(spec, momentum_mode(make_lattice(2, 6, 1.0, 1.0, 0.3), (1, 1)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
def test_block_properties_random(ell_x, ell_y, theta):
    spec = make_lattice(2, 6, 1.0, 1.0, theta)
    block = momentum_block_2d(spec, momentum_mode(spec, (ell_x, ell_y)))
    assert sum(c * c for c in block.r) == pytest.approx(1.0, abs=TOL)
    m = block.matrix
    assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < TOL
    assert cos(block.phi) == pytest.approx(block.r[0], abs=TOL)
    if not block.degenerate:
        lam = np.exp(1j * block.phi)
        assert np.linalg.norm(m @ block.v_plus - lam * block.v_plus) < TOL
        assert np.linalg.norm(m @ block.v_minus - np.conj(lam) * block.v_minus) < TOL
