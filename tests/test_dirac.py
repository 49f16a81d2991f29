from math import pi, sqrt

import numpy as np
import pytest

from walkqca.blocks import SIGMA_X, SIGMA_Z, matrix_from_r
from walkqca.dirac import (
    BranchCutError,
    convergence_study,
    dirac_generator,
    dispersion_table,
    effective_generator,
    generator_comparison,
    held_orders,
)
from walkqca.fock import evolution_diagonal, fock_basis, momentum_mode_ops
from walkqca.lattice import EnergyModeLabel, make_lattice, momentum_grid, momentum_mode
from walkqca.walk import pauli_coefficients
from walkqca.walk1d import momentum_block_1d

TOL = 1e-12


def dispersion_record(spec, mode):
    """The grid mode's row of the dispersion table."""
    return next(rec for rec in dispersion_table(spec) if rec.mode == mode)


def test_dispersion_at_zero_momentum_is_rest_energy():
    for spec in (make_lattice(1, 4, 1.0, 0.5, 0.3), make_lattice(2, 4, 2.0, 1.0, 0.2)):
        zero = momentum_mode(spec, (0,) * spec.dimension)
        rec = dispersion_record(spec, zero)
        assert rec.phi_over_dt == pytest.approx(spec.mc2, abs=TOL)
        assert rec.e_rel == pytest.approx(spec.mc2, abs=TOL)
        assert rec.abs_err < TOL


def test_dispersion_spot_value():
    # frozen from the independent diagonalization oracle (see test_walk1d)
    spec = make_lattice(1, 4, 1.0, 1.0, 0.05)
    phi = 0.11176609378183253
    target = sqrt(0.1**2 + 0.05**2)
    rel = abs(phi - target) / target
    assert rel == pytest.approx(3.3366689682378514e-4, rel=1e-9)
    # the same numbers through the library at a grid momentum
    r = pauli_coefficients((0.1,), 0.05)
    from walkqca.blocks import eigenphase_from_r

    assert eigenphase_from_r(r) == pytest.approx(phi, abs=1e-14)


def test_massless_1d_dispersion_is_exact():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.0)
    for rec in dispersion_table(spec):
        assert rec.rel_err < TOL
        assert rec.phi_over_dt >= 0.0


def test_dispersion_table_invariants_and_filter():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.3)
    records = dispersion_table(spec)
    assert len(records) == 16
    for rec in records:
        assert rec.phi_over_dt >= 0.0
        assert rec.e_rel >= spec.mc2 - TOL
    half = [rec for rec in records if rec.mode.ell[1] == 0]
    assert len(half) == 4


def test_generator_at_zero_momentum_is_mass_term():
    for spec in (make_lattice(1, 4, 1.0, 1.0, 0.3), make_lattice(2, 4, 1.0, 1.0, 0.3)):
        zero = momentum_mode(spec, (0,) * spec.dimension)
        comp = generator_comparison(spec, zero)
        np.testing.assert_allclose(comp.h_eff, -spec.mc2 * SIGMA_X, atol=TOL)
        assert comp.deviation < TOL


def test_generator_massless_1d_is_exact():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.0)
    mode = momentum_mode(spec, 1)
    comp = generator_comparison(spec, mode)
    p = mode.k[0]
    np.testing.assert_allclose(comp.h_eff, -p * spec.c * SIGMA_Z, atol=TOL)
    assert comp.deviation < TOL


def test_generator_hermitian_with_eigenphase_spectrum():
    spec = make_lattice(2, 6, 1.0, 1.0, 0.4)
    for ell in ((1, 1), (2, -1), (0, 2)):
        mode = momentum_mode(spec, ell)
        comp = generator_comparison(spec, mode)
        assert np.max(np.abs(comp.h_eff - comp.h_eff.conj().T)) < TOL
        from walkqca.walk2d import momentum_block_2d

        phi = momentum_block_2d(spec, mode).phi
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(comp.h_eff)),
            [-phi / spec.dt, phi / spec.dt],
            atol=TOL,
        )


def test_generator_exponentiates_back_to_block():
    # oracle: exp(-i H dt) must reproduce the block
    import scipy.linalg

    spec = make_lattice(1, 10, 1.0, 1.0, 0.7)
    for ell in (1, 3, -2):
        mode = momentum_mode(spec, ell)
        r = pauli_coefficients((mode.k[0] * spec.dx,), spec.theta)
        h = effective_generator(r, spec.dt)
        np.testing.assert_allclose(
            scipy.linalg.expm(-1j * h * spec.dt), matrix_from_r(r), atol=1e-12
        )


def test_branch_cut_rejected():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.0)
    edge = momentum_mode(spec, 2)  # k dx = pi, block is -identity
    with pytest.raises(BranchCutError):
        generator_comparison(spec, edge)


def test_generator_halving_ratio_is_quadratic():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.05)
    dev_base = generator_deviation_at(spec, 0.1, 0.05)
    dev_half = generator_deviation_at(spec, 0.05, 0.025)
    assert dev_base / dev_half == pytest.approx(4.0, rel=0.15)


def generator_deviation_at(spec, k_dx, theta):
    r = pauli_coefficients((k_dx,), theta)
    h_eff = effective_generator(r, spec.dt)
    probe = make_lattice(1, spec.N, spec.dx, spec.dt, theta)
    h_dirac = dirac_generator(probe, (k_dx / spec.dx,))
    return float(np.linalg.norm(h_eff - h_dirac, ord=2))


def test_convergence_study_1d():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.05)
    study = convergence_study(spec, 3)
    assert study.dispersion_order == pytest.approx(2.0, abs=0.2)
    assert study.generator_order == pytest.approx(2.0, abs=0.2)
    assert study.within_expected_order and not study.exact
    assert len(study.rows) == 4
    with pytest.raises(ValueError):
        convergence_study(spec, 1)
    with pytest.raises(ValueError):
        convergence_study(spec, 3, base_k_dx=(0.1, 0.2))


def test_convergence_study_2d_axis_and_generic():
    spec = make_lattice(2, 8, 1.0, 1.0, 0.05)
    axis = convergence_study(spec, 3, base_k_dx=(0.1, 0.0))
    assert axis.dispersion_order == pytest.approx(2.0, abs=0.2)
    assert axis.generator_order == pytest.approx(2.0, abs=0.2)

    generic = convergence_study(spec, 3)  # base (0.1, 0.07)
    assert generic.generator_order == pytest.approx(2.0, abs=0.2)
    # on generic rays the k_x*k_y*theta anisotropy of the exact eigenphase
    # is first order relative to the energy, so the dispersion error fits
    # slope 1, not 2
    assert generic.dispersion_order == pytest.approx(1.0, abs=0.2)
    leading = 0.1 * 0.07 * 0.05 / (0.1**2 + 0.07**2 + 0.05**2)
    assert generic.rows[0].dispersion_rel_err == pytest.approx(leading, rel=0.1)


BOTH = ("dispersion_order", "generator_order")


@pytest.mark.parametrize(
    "theta,base_k_dx,held,dispersion_order",
    [
        (0.05, (0.1, 0.0), BOTH, 2.0),
        (0.3, (0.0, 0.1), BOTH, 2.0),
        (0.0, (0.1, 0.07), BOTH, 2.0),
        (0.05, (0.1, 0.07), ("generator_order",), 0.98),
        (0.3, (0.1, 0.07), ("generator_order",), 0.95),
    ],
)
def test_convergence_study_2d_holds_the_dispersion_order_where_kx_ky_theta_vanishes(
    theta, base_k_dx, held, dispersion_order
):
    study = convergence_study(make_lattice(2, 8, 1.0, 1.0, theta), 3, base_k_dx=base_k_dx)
    assert held_orders(base_k_dx, theta) == held
    assert study.dispersion_order == pytest.approx(dispersion_order, abs=0.01)
    assert study.generator_order == pytest.approx(2.0, abs=0.01)
    assert study.within_expected_order and not study.exact


@pytest.mark.parametrize(
    "spec,ell",
    [
        (make_lattice(1, 8, 1.0, 1.0, 0.05), (1,)),
        (make_lattice(1, 8, 0.3, 0.7, 0.2), (-2,)),
        (make_lattice(2, 6, 0.5, 0.25, 1.1), (1, -1)),
    ],
)
def test_convergence_study_first_row_is_the_grid_evaluation(spec, ell):
    mode = momentum_mode(spec, ell)
    study = convergence_study(spec, 2, base_k_dx=tuple(kc * spec.dx for kc in mode.k))
    assert study.rows[0].dispersion_rel_err == dispersion_record(spec, mode).rel_err
    assert study.rows[0].generator_deviation == generator_comparison(spec, mode).deviation


@pytest.mark.parametrize("dimension", [1, 2])
def test_convergence_study_fits_the_generator_order_at_any_dt(dimension):
    # EXACT_LEVEL is absolute, so the deviation (units of 1/dt) is fit times dt
    unit = convergence_study(make_lattice(dimension, 8, 1.0, 1.0, 0.05), 3)
    for dt in (1e12, 1e-9, 2.5):
        study = convergence_study(make_lattice(dimension, 8, 1.0, dt, 0.05), 3)
        assert study.generator_order == pytest.approx(unit.generator_order, abs=1e-6)
        assert study.dispersion_order == pytest.approx(unit.dispersion_order, abs=1e-6)
        assert study.within_expected_order and not study.exact


def test_convergence_study_massless_is_exact():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.0)
    study = convergence_study(spec, 3)
    assert study.exact and study.within_expected_order
    assert study.dispersion_order is None and study.generator_order is None


def _fock_step_vs_first_order(spec, mode):
    labels = [EnergyModeLabel(mode, 1), EnergyModeLabel(mode, -1)]
    basis = fock_basis(labels)
    evo = evolution_diagonal(basis, spec).matrix
    a_r, a_l = momentum_mode_ops(basis, spec, mode)
    pair = (a_r.matrix, a_l.matrix)
    h_dirac = dirac_generator(spec, mode.k)
    worst = 0.0
    for i in range(2):
        conj = (evo @ pair[i] @ evo.conj().T - pair[i]) / spec.dt
        # the operator column evolves by the transposed block, so the
        # first-order generator acting on it is the transpose as well
        predicted = sum(-1j * h_dirac[j, i] * pair[j] for j in range(2))
        worst = max(worst, float(np.max(np.abs(conj - predicted))))
    return worst


@pytest.mark.parametrize("dimension", [1, 2])
def test_fock_conjugation_matches_first_order_prediction(dimension):
    # integration of the mode-operator algebra with the long-wavelength
    # limit: one conjugation step minus the first-order relativistic
    # prediction shrinks by ~4 when the lattice momentum and angle halve.
    # The 2D case is sensitive to the operator-vs-amplitude orientation
    # (the sigma_y term flips under transposition).
    residuals = []
    for n, theta in ((60, 0.05), (120, 0.025), (240, 0.0125)):
        spec = make_lattice(dimension, n, 1.0, 1.0, theta)
        mode = momentum_mode(spec, (1,) * dimension)  # each k dx = 2 pi / n
        residuals.append(_fock_step_vs_first_order(spec, mode))
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)
    assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.3)
