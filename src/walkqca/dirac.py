"""Long-wavelength limit: dispersion comparison and effective generators.

The exact one-step energy of a mode is hbar*phi/dt; the relativistic
target is sqrt(p^2 c^2 + m^2 c^4) with p = hbar*k, c = dx/dt and
mc^2 = hbar*theta/dt.  The effective generator is the Hermitian
(i*hbar/dt)*log M of the momentum block (principal branch), compared
against the free relativistic generator

    1D:  -p*c*sigma_z - mc^2*sigma_x
    2D:  -c*p_x*sigma_z + c*p_y*sigma_y - mc^2*sigma_x.

The generator deviation vanishes quadratically as (k*dx, theta) -> 0, and
so does the relative dispersion error where k_x*k_y*theta = 0 (always in
1D); elsewhere that anisotropy makes it first order (:func:`held_orders`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import pi

import numpy as np

from . import walk
from .blocks import SIGMA_X, SIGMA_Y, SIGMA_Z, eigenphase_from_r, splitting
from .lattice import HBAR, LatticeSpec, MomentumMode
from .walk import pauli_coefficients

BRANCH_CUT_TOL = 1e-8
ORDER_WINDOW = (1.8, 2.2)
EXACT_LEVEL = 1e-13  # on dimensionless errors: the generator deviation is fit times dt


class BranchCutError(ValueError):
    """The block sits at (or too close to) the eigenphase pi branch cut."""


@dataclass(frozen=True)
class DispersionRecord:
    mode: MomentumMode
    phi_over_dt: float
    e_rel: float
    abs_err: float
    rel_err: float


def momentum_squares(spec: LatticeSpec, k_dx) -> list[float]:
    """(hbar*k)**2 at each k*dx, one scalar pow per value; refused where c**2, (mc^2)**2, p**2 or E_rel**2 overflow."""
    with np.errstate(all="ignore"):  # p**2 summed over the axes at the largest |k*dx|
        c2, mc4 = np.float64(spec.c) ** 2, np.float64(spec.mc2) ** 2
        p2 = spec.dimension * (HBAR * np.max(np.abs(k_dx)) / spec.dx) ** 2
        if not np.isfinite([c2, mc4, p2, p2 * c2 + mc4]).all():
            raise ValueError(f"lattice.dx {spec.dx}, lattice.dt {spec.dt}, lattice.theta {spec.theta}: energies overflow a float")
    return [(HBAR * (kd / spec.dx)) ** 2 for kd in k_dx]


def _dispersion(spec: LatticeSpec, phi, p2) -> tuple[np.ndarray, ...]:
    """phi/dt, E_rel, abs_err and rel_err, elementwise over eigenphases phi and squared momenta p2."""
    phi_over_dt = HBAR * phi / spec.dt
    e_rel = np.sqrt(p2 * spec.c**2 + spec.mc2**2)
    abs_err = np.abs(phi_over_dt - e_rel)
    rel_err = np.where(abs_err < 1e-300, 0.0, np.inf)  # kept where E_rel < 1e-300
    np.divide(abs_err, e_rel, out=rel_err, where=~(e_rel < 1e-300))
    return phi_over_dt, e_rel, abs_err, rel_err


def dispersion_columns(spec: LatticeSpec) -> dict[str, np.ndarray]:
    """The dispersion CSV's columns: :func:`walk.block_table`'s momentum columns, then phi/dt and the errors."""
    table = walk.block_table(spec)
    ell, k = walk.axis_momenta(spec)
    squares = np.array(momentum_squares(spec, (k * spec.dx).tolist()))
    names = walk.MODE_COLUMNS[spec.dimension]
    p2 = sum(squares[table[name] - ell[0]] for name in names[: spec.dimension])
    values = _dispersion(spec, table["phi"], p2)
    errors = dict(zip(("phi_over_dt", "e_rel", "abs_err", "rel_err"), values))
    return {**{name: table[name] for name in names}, **errors}


def dispersion_table(spec: LatticeSpec) -> list[DispersionRecord]:
    """One record per grid mode: :func:`dispersion_columns` by rows."""
    d = spec.dimension
    rows = zip(*(column.tolist() for column in dispersion_columns(spec).values()))
    return [DispersionRecord(MomentumMode(row[:d], row[d : 2 * d]), *row[2 * d :]) for row in rows]


def effective_generator(r, dt: float) -> np.ndarray:
    """Hermitian (i*hbar/dt)*log of the block with coefficient vector r.

    Stable closed form: log M = i*(phi/s)*(r1 sx + r2 sy + r3 sz) with
    s = sin(phi); rejects blocks within BRANCH_CUT_TOL of phi = pi where
    the principal branch is ill-defined.
    """
    _, r1, r2, r3 = r
    s, phi = splitting(r), eigenphase_from_r(r)
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
    return GeneratorComparison(mode, *_generator_at(spec, tuple(kc * spec.dx for kc in mode.k)))


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


def held_orders(k_dx: tuple[float, ...], theta: float) -> tuple[str, ...]:
    """The fitted orders a study from (k_dx, theta) holds to 2: both unless k_x*k_y*theta != 0."""
    if len(k_dx) == 1 or 0 in (*k_dx, theta):
        return ("dispersion_order", "generator_order")
    return ("generator_order",)


def convergence_study(
    spec: LatticeSpec, halvings: int, base_k_dx: tuple[float, ...] | None = None
) -> ConvergenceStudy:
    """Dispersion and generator errors under repeated halving of (k*dx, theta).

    Fits the log-log slope of both error series; `exact` flags runs whose
    errors sit at rounding level throughout (massless 1D), where no order
    can be fit; `within_expected_order` checks the :func:`held_orders`.
    """
    if halvings < 2:
        raise ValueError(f"need at least 2 halvings for a fit, got {halvings}")
    if halvings > 1074:  # 0.5**1074 is the last nonzero scale: 5e-324, the least subnormal float
        raise ValueError(f"at most 1074 halvings keep the scale nonzero, got {halvings}")
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
        phi = eigenphase_from_r(pauli_coefficients(k_dx, scaled.theta))
        rel_err = float(_dispersion(scaled, phi, sum(momentum_squares(scaled, k_dx)))[3])
        deviation = _generator_at(scaled, k_dx)[2]
        rows.append(ConvergenceRow(scale, k_dx, scaled.theta, rel_err, deviation))
    scales = [row.scale for row in rows]
    disp_order = _fit_order(scales, [row.dispersion_rel_err for row in rows])
    gen_order = _fit_order(scales, [row.generator_deviation * spec.dt for row in rows])
    exact = disp_order is None and gen_order is None
    orders = {"dispersion_order": disp_order, "generator_order": gen_order}
    held = [orders[key] for key in held_orders(base_k_dx, spec.theta) if orders[key] is not None]
    within = exact or all(ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1] for order in held)
    return ConvergenceStudy(tuple(rows), disp_order, gen_order, exact, within)
