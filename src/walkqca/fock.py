"""Fermionic mode algebra over an ordered list of energy labels.

Basis states are occupation bitstrings: bit i of the basis index is the
occupation of the i-th mode in the basis order.  Creation operators carry
the parity sign over the occupied modes that precede them; the one-step
evolution is diagonal, multiplying each bitstring by the accumulated
branch-signed eigenphases of its occupied modes.  Operators are held as
signed index maps, and a dense matrix is built only on request.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from . import blocks, walk
from .lattice import (
    EnergyModeLabel,
    LatticeSpec,
    MomentumMode,
    energy_labels,
    mode_ordering_key,
)
from .multiparticle import MultiState, ordered_product_state

# At the cap an index map is 2**20 targets and 2**20 weights, 8 bytes
# each: 16 MiB, where the dense matrix would be 8 TiB.
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
    return fock_basis(energy_labels(spec))


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Sum of signed index maps on the occupation space.

    Row k of `target` and `weight` is one map: it sends basis state j to
    weight[k, j] |target[k, j]>, and a zero weight sends j to nothing.
    Each map is one-to-one on the states it keeps, so a product of two
    maps is a gather and the adjoint of a map is its inverse.
    """

    target: np.ndarray  # (maps, dim) integer
    weight: np.ndarray  # (maps, dim) float64 or complex

    __array_ufunc__ = None  # a numpy scalar times an operator goes to __rmul__

    def __matmul__(self, other: FockOperator) -> FockOperator:
        # (A B) sends j to A's image of B's image of j, for every pair of maps
        dim = other.target.shape[1]
        target = self.target[:, other.target].reshape(-1, dim)
        weight = (self.weight[:, other.target] * other.weight).reshape(-1, dim)
        return FockOperator(target, weight)

    def __add__(self, other: FockOperator) -> FockOperator:
        return FockOperator(np.concatenate([self.target, other.target]), np.concatenate([self.weight, other.weight]))

    def __rmul__(self, scalar) -> FockOperator:
        return FockOperator(self.target, scalar * self.weight)

    def __sub__(self, other: FockOperator) -> FockOperator:
        return self + -1.0 * other

    def adjoint(self) -> FockOperator:
        """Each map inverted, with conjugated weights."""
        target, weight = np.zeros_like(self.target), np.zeros_like(self.weight)
        for k, (tgt, wgt) in enumerate(zip(self.target, self.weight)):
            kept = np.flatnonzero(wgt)
            target[k, tgt[kept]] = kept
            weight[k, tgt[kept]] = wgt[kept].conj()
        return FockOperator(target, weight)

    def max_abs(self) -> float:
        """Largest |entry|: the maps that send a state to one target add up there."""
        same = self.target[:, None] == self.target[None]
        return float(np.max(np.abs((same * self.weight[None]).sum(axis=1))))

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix, built on each call; real where every weight is.

        It is written into fresh zeroed private anonymous pages, so only
        the pages its nonzeros write become resident: a shared mapping is
        backed by shared memory, where reading a page makes it resident.
        """
        dim = self.target.shape[1]
        buf = mmap.mmap(-1, dim * dim * self.weight.itemsize, flags=mmap.MAP_PRIVATE)
        mat = np.frombuffer(buf, dtype=self.weight.dtype).reshape(dim, dim)
        for k, (target, weight) in enumerate(zip(self.target, self.weight)):
            kept = np.flatnonzero(weight)
            if k == 0:  # an add would read each page before writing it: two faults, not one
                mat[target[kept], kept] = weight[kept]
            else:
                mat[target[kept], kept] += weight[kept]
        return mat


def diagonal_op(values: np.ndarray) -> FockOperator:
    """The operator that multiplies basis state j by values[j]."""
    return FockOperator(np.arange(values.size)[None], values[None])


def anticommutator(a, b):
    """{a, b} of two dense matrices or two FockOperators."""
    return a @ b + b @ a


def _occupations(basis: FockBasis) -> np.ndarray:
    """(dim, M) table: entry [bits, i] is the occupation of mode i in `bits`."""
    return (np.arange(basis.dim)[:, None] >> np.arange(len(basis.modes))) & 1


def creation_op(basis: FockBasis, label: EnergyModeLabel) -> FockOperator:
    """Fermionic creation map with the parity-string sign convention."""
    pos = basis.index(label)
    bits = np.arange(basis.dim)
    parity = np.zeros_like(bits)  # of the occupied modes before pos
    for i in range(pos):
        parity ^= (bits >> i) & 1
    weight = np.where((bits >> pos) & 1, 0.0, 1.0 - 2.0 * parity)
    return FockOperator((bits | (1 << pos))[None], weight[None])


def annihilation_op(basis: FockBasis, label: EnergyModeLabel) -> FockOperator:
    return creation_op(basis, label).adjoint()


def number_op(basis: FockBasis, label: EnergyModeLabel) -> FockOperator:
    return diagonal_op(_occupations(basis)[:, basis.index(label)].astype(float))


def evolution_diagonal(basis: FockBasis, spec: LatticeSpec) -> FockOperator:
    """One-step evolution: each bitstring gains exp(i * sum of occupied branch-phases).

    Its one map is the identity, so its weights are the phases.
    """
    occ = _occupations(basis)
    total = np.zeros(basis.dim)  # summed in mode order, as a per-bitstring sum would
    for i, label in enumerate(basis.modes):
        total += occ[:, i] * walk.label_phase(spec, label)
    return diagonal_op(np.exp(1j * total))


def momentum_mode_coefficients(spec: LatticeSpec, mode: MomentumMode):
    """(alpha_R, beta_R, alpha_L, beta_L) expanding the coin axes over v_plus, v_minus.

    The eigenpair is orthonormal, so (alpha_R, alpha_L) = conj(v_plus) and
    (beta_R, beta_L) = conj(v_minus).  Undefined (raises) on degenerate
    blocks, where the two branches share one phase and carry no labels.
    """
    r = walk.mode_coefficients(spec, mode)
    if blocks.is_degenerate(r):
        raise DegenerateModeError(f"mode {mode.ell} is degenerate; decomposition is arbitrary")
    (alpha_r, alpha_l), (beta_r, beta_l) = (v.conj() for v in blocks.eigenvector_pair(r))
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
    plus = creation_op(basis, EnergyModeLabel(mode, 1))
    minus = creation_op(basis, EnergyModeLabel(mode, -1))
    return alpha_r * plus + beta_r * minus, alpha_l * plus + beta_l * minus


def created_labels(basis: FockBasis, bits: int) -> list[EnergyModeLabel]:
    """The modes occupied in an occupation bitstring, in the basis (creation) order."""
    if not 0 <= bits < basis.dim:
        raise ValueError(f"bitstring {bits} out of range for {len(basis.modes)} modes")
    return [label for i, label in enumerate(basis.modes) if (bits >> i) & 1]


def fock_to_firstquantized(basis: FockBasis, bits: int, spec: LatticeSpec, n_max: int) -> MultiState:
    """Map an occupation bitstring to its antisymmetrized tensor-space state.

    The creation order is the basis order, so the map intertwines the
    diagonal evolution with the factor-wise walk evolution.
    """
    return ordered_product_state(spec, created_labels(basis, bits), n_max)
