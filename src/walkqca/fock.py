"""Fermionic mode algebra over an ordered list of energy labels.

Basis states are occupation bitstrings: bit i of the basis index is the
occupation of the i-th mode in the basis order.  Creation operators carry
the parity sign over the occupied modes that precede them; the one-step
evolution is diagonal, multiplying each bitstring by the accumulated
branch-signed eigenphases of its occupied modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import walk
from .lattice import (
    EnergyModeLabel,
    LatticeSpec,
    MomentumMode,
    mode_ordering_key,
)
from .multiparticle import MultiState, ordered_product_state

MODE_CAP = 20


class DegenerateModeError(ValueError):
    """The momentum-mode decomposition is undefined at this mode."""


@dataclass(frozen=True)
class FockBasis:
    """Ordered energy modes; the state space is the 2**M occupation strings."""

    modes: tuple[EnergyModeLabel, ...]

    def __post_init__(self):
        if len(self.modes) > MODE_CAP:
            raise ValueError(f"{len(self.modes)} modes exceed the cap {MODE_CAP}")

    @property
    def dim(self) -> int:
        return 1 << len(self.modes)

    def index(self, label: EnergyModeLabel) -> int:
        try:
            return self.modes.index(label)
        except ValueError:
            raise ValueError(f"label {label} is not in this basis") from None


def fock_basis(labels) -> FockBasis:
    """Basis over the given labels in the canonical order."""
    modes = sorted(labels, key=mode_ordering_key)
    keys = [mode_ordering_key(m) for m in modes]
    if any(a == b for a, b in zip(keys, keys[1:])):
        raise ValueError("duplicate energy labels in basis")
    return FockBasis(tuple(modes))


def full_fock_basis(spec: LatticeSpec) -> FockBasis:
    from .lattice import energy_labels

    return fock_basis(energy_labels(spec))


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the occupation space."""

    matrix: np.ndarray


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def _occupations(basis: FockBasis) -> np.ndarray:
    """(dim, M) table: entry [bits, i] is the occupation of mode i in `bits`."""
    return (np.arange(basis.dim)[:, None] >> np.arange(len(basis.modes))) & 1


def creation_op(basis: FockBasis, label: EnergyModeLabel) -> FockOperator:
    """Fermionic creation matrix with the parity-string sign convention."""
    pos = basis.index(label)
    occ = _occupations(basis)
    empty = np.flatnonzero(occ[:, pos] == 0)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[empty | (1 << pos), empty] = 1.0 - 2.0 * (occ[empty, :pos].sum(axis=1) & 1)
    return FockOperator(mat)


def annihilation_op(basis: FockBasis, label: EnergyModeLabel) -> FockOperator:
    return FockOperator(creation_op(basis, label).matrix.conj().T)


def number_op(basis: FockBasis, label: EnergyModeLabel) -> FockOperator:
    diag = _occupations(basis)[:, basis.index(label)].astype(float)
    return FockOperator(np.diag(diag).astype(complex))


def evolution_diagonal(basis: FockBasis, spec: LatticeSpec) -> FockOperator:
    """One-step evolution: each bitstring gains exp(i * sum of occupied branch-phases)."""
    occ = _occupations(basis)
    total = np.zeros(basis.dim)  # summed in mode order, as a per-bitstring sum would
    for i, label in enumerate(basis.modes):
        total += occ[:, i] * (label.branch * walk.momentum_block(spec, label.mode).phi)
    return FockOperator(np.diag(np.exp(1j * total)))


def momentum_mode_coefficients(spec: LatticeSpec, mode: MomentumMode):
    """(alpha_R, beta_R, alpha_L, beta_L) expanding the coin axes over v_plus, v_minus.

    The eigenpair is orthonormal, so (alpha_R, alpha_L) = conj(v_plus) and
    (beta_R, beta_L) = conj(v_minus).  Undefined (raises) on degenerate
    blocks, where the two branches share one phase and carry no labels.
    """
    block = walk.momentum_block(spec, mode)
    if block.degenerate:
        raise DegenerateModeError(f"mode {mode.ell} is degenerate; decomposition is arbitrary")
    (alpha_r, alpha_l), (beta_r, beta_l) = block.v_plus.conj(), block.v_minus.conj()
    return alpha_r, beta_r, alpha_l, beta_l


def momentum_mode_ops(
    basis: FockBasis, spec: LatticeSpec, mode: MomentumMode
) -> tuple[FockOperator, FockOperator]:
    """Creation operators for the coin-axis (R, L) states of one momentum.

    Conjugating the pair by the diagonal evolution mixes them with the
    transpose of the mode's block: the column (a_R+, a_L+) maps by M^T,
    equivalently the row vector maps by right-multiplication with M.
    """
    alpha_r, beta_r, alpha_l, beta_l = momentum_mode_coefficients(spec, mode)
    plus = creation_op(basis, EnergyModeLabel(mode, 1)).matrix
    minus = creation_op(basis, EnergyModeLabel(mode, -1)).matrix
    return (
        FockOperator(alpha_r * plus + beta_r * minus),
        FockOperator(alpha_l * plus + beta_l * minus),
    )


def fock_to_firstquantized(
    basis: FockBasis, bits: int, spec: LatticeSpec, n_max: int
) -> MultiState:
    """Map an occupation bitstring to its antisymmetrized tensor-space state.

    The creation order is the basis order, so the map intertwines the
    diagonal evolution with the factor-wise walk evolution.
    """
    if not 0 <= bits < basis.dim:
        raise ValueError(f"bitstring {bits} out of range for {len(basis.modes)} modes")
    labels = [label for i, label in enumerate(basis.modes) if (bits >> i) & 1]
    if len(labels) > n_max:
        raise ValueError(f"{len(labels)} occupied modes exceed n_max = {n_max}")
    return ordered_product_state(spec, labels, n_max)

