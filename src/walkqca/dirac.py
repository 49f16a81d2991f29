"""Long-wavelength limit: dispersion comparison and effective generators.

The exact one-step energy of a mode is hbar*phi/dt; the relativistic
target is sqrt(p^2 c^2 + m^2 c^4) with p = hbar*k, c = dx/dt and
mc^2 = hbar*theta/dt.  The effective generator is the Hermitian
(i*hbar/dt)*log M of the momentum block (principal branch), compared
against the free relativistic generator

    1D:  -p*c*sigma_z - mc^2*sigma_x
    2D:  -c*p_x*sigma_z + c*p_y*sigma_y - mc^2*sigma_x.

Both the dispersion error and the generator deviation vanish
quadratically as (k*dx, theta) -> 0, which the convergence study fits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import pi, sqrt

import numpy as np

from .blocks import SIGMA_X, SIGMA_Y, SIGMA_Z, eigenphase_from_r, matrix_from_r
from .lattice import HBAR, LatticeSpec, MomentumMode, momentum_grid
from .walk import pauli_coefficients

BRANCH_CUT_TOL = 1e-8
ORDER_WINDOW = (1.8, 2.2)
EXACT_LEVEL = 1e-13


class BranchCutError(ValueError):
    """The block sits at (or too close to) the eigenphase pi branch cut."""


def time_derivative_superop(u: np.ndarray, op: np.ndarray, dt: float) -> np.ndarray:
    """(U O U^dag - O) / dt for square operators of matching shape."""
    if u.shape != op.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"incompatible shapes {u.shape} and {op.shape}")
    return (u @ op @ u.conj().T - op) / dt


@dataclass(frozen=True)
class DispersionRecord:
    mode: MomentumMode
    phi_over_dt: float
    e_rel: float
    abs_err: float
    rel_err: float


def relativistic_energy(spec: LatticeSpec, k: tuple[float, ...]) -> float:
    p2 = sum((HBAR * kc) ** 2 for kc in k)
    return sqrt(p2 * spec.c**2 + spec.mc2**2)


def _dispersion_at(spec: LatticeSpec, k_dx: tuple[float, ...]) -> tuple[float, ...]:
    """phi/dt, E_rel, abs_err and rel_err at dimensionless momenta k_dx."""
    phi_over_dt = HBAR * eigenphase_from_r(pauli_coefficients(k_dx, spec.theta)) / spec.dt
    e_rel = relativistic_energy(spec, tuple(kd / spec.dx for kd in k_dx))
    abs_err = abs(phi_over_dt - e_rel)
    if e_rel < 1e-300:
        rel_err = 0.0 if abs_err < 1e-300 else float("inf")
    else:
        rel_err = abs_err / e_rel
    return phi_over_dt, e_rel, abs_err, rel_err


def _grid_k_dx(spec: LatticeSpec, mode: MomentumMode) -> tuple[float, ...]:
    return tuple(kc * spec.dx for kc in mode.k)


def dispersion_record(spec: LatticeSpec, mode: MomentumMode) -> DispersionRecord:
    return DispersionRecord(mode, *_dispersion_at(spec, _grid_k_dx(spec, mode)))


def dispersion_table(spec: LatticeSpec) -> list[DispersionRecord]:
    return [dispersion_record(spec, m) for m in momentum_grid(spec)]


def effective_generator(r, dt: float) -> np.ndarray:
    """Hermitian (i*hbar/dt)*log of the block with coefficient vector r.

    Stable closed form: log M = i*(phi/s)*(r1 sx + r2 sy + r3 sz) with
    s = sin(phi); rejects blocks within BRANCH_CUT_TOL of phi = pi where
    the principal branch is ill-defined.
    """
    r0, r1, r2, r3 = r
    s = sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    phi = eigenphase_from_r(r)
    if phi > pi - BRANCH_CUT_TOL:
        raise BranchCutError(f"eigenphase {phi:.6f} is too close to the branch cut at pi")
    factor = phi / s if s > 0.0 else 1.0
    return -(HBAR / dt) * factor * (r1 * SIGMA_X + r2 * SIGMA_Y + r3 * SIGMA_Z)


# The Pauli operator each momentum axis couples to in the target generator.
AXIS_GENERATORS = (-SIGMA_Z, SIGMA_Y)


def dirac_generator(spec: LatticeSpec, k: tuple[float, ...]) -> np.ndarray:
    """The free relativistic generator targeted in the long-wavelength limit."""
    momentum = sum(HBAR * kc * spec.c * op for kc, op in zip(k, AXIS_GENERATORS))
    return momentum - spec.mc2 * SIGMA_X


@dataclass(frozen=True)
class GeneratorComparison:
    mode: MomentumMode
    h_eff: np.ndarray
    h_dirac: np.ndarray
    deviation: float


def _generator_at(spec: LatticeSpec, k_dx: tuple[float, ...]) -> tuple:
    """H_eff, H_dirac and the spectral-norm deviation at dimensionless momenta k_dx."""
    h_eff = effective_generator(pauli_coefficients(k_dx, spec.theta), spec.dt)
    h_dirac = dirac_generator(spec, tuple(kd / spec.dx for kd in k_dx))
    return h_eff, h_dirac, float(np.linalg.norm(h_eff - h_dirac, ord=2))


def generator_comparison(spec: LatticeSpec, mode: MomentumMode) -> GeneratorComparison:
    return GeneratorComparison(mode, *_generator_at(spec, _grid_k_dx(spec, mode)))


def first_order_step_deviation(
    spec: LatticeSpec, k_dx: tuple[float, ...], theta: float
) -> float:
    """|| M - (I - i*H_dirac*dt/hbar) || at the given dimensionless parameters.

    The one-step block minus its first-order relativistic prediction;
    shrinks quadratically under joint scaling of (k*dx, theta).
    """
    m = matrix_from_r(pauli_coefficients(k_dx, theta))
    k = tuple(kd / spec.dx for kd in k_dx)
    h_dirac = dirac_generator(replace(spec, theta=theta), k)
    predicted = np.eye(2, dtype=complex) - 1j * h_dirac * spec.dt / HBAR
    return float(np.linalg.norm(m - predicted, ord=2))


@dataclass(frozen=True)
class ConvergenceRow:
    scale: float
    k_dx: tuple[float, ...]
    theta: float
    dispersion_rel_err: float
    generator_deviation: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    dispersion_order: float | None
    generator_order: float | None
    exact: bool
    within_expected_order: bool

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_BASE_K_DX = {1: (0.1,), 2: (0.1, 0.07)}


def _fit_order(scales, errors) -> float | None:
    pairs = [(s, e) for s, e in zip(scales, errors) if e > EXACT_LEVEL]
    if len(pairs) < 2:
        return None
    logs = np.log([p[0] for p in pairs])
    loge = np.log([p[1] for p in pairs])
    return float(np.polyfit(logs, loge, 1)[0])


def convergence_study(
    spec: LatticeSpec, halvings: int, base_k_dx: tuple[float, ...] | None = None
) -> ConvergenceStudy:
    """Dispersion and generator errors under repeated halving of (k*dx, theta).

    Fits the log-log slope of both error series; `exact` flags runs whose
    errors sit at rounding level throughout (massless 1D), where no order
    can be fit.
    """
    if halvings < 2:
        raise ValueError(f"need at least 2 halvings for a fit, got {halvings}")
    if base_k_dx is None:
        base_k_dx = DEFAULT_BASE_K_DX[spec.dimension]
    if len(base_k_dx) != spec.dimension:
        raise ValueError(
            f"base_k_dx has {len(base_k_dx)} components, expected {spec.dimension}"
        )
    rows = []
    for level in range(halvings + 1):
        scale = 0.5**level
        k_dx = tuple(scale * kd for kd in base_k_dx)
        scaled = replace(spec, theta=scale * spec.theta)
        rel_err = _dispersion_at(scaled, k_dx)[3]
        deviation = _generator_at(scaled, k_dx)[2]
        rows.append(ConvergenceRow(scale, k_dx, scaled.theta, rel_err, deviation))
    scales = [row.scale for row in rows]
    disp_order = _fit_order(scales, [row.dispersion_rel_err for row in rows])
    gen_order = _fit_order(scales, [row.generator_deviation for row in rows])
    exact = disp_order is None and gen_order is None
    lo, hi = ORDER_WINDOW
    within = exact or all(
        lo <= order <= hi for order in (disp_order, gen_order) if order is not None
    )
    return ConvergenceStudy(tuple(rows), disp_order, gen_order, exact, within)
