"""Occupation-number automaton for the 1D walk.

Cells: one two-level system per (type, site, direction) slot, so a basis
state is a bitstring of length 2*N*n_types.  One step is the global
shift (R-slot contents move one site right, L-slot contents one site
left, per type) followed by an identical 4x4 coin on every site's (R, L)
slot pair.  Restricted to at most one particle per type this reproduces
the factor-wise walk evolution on the distinguishable-particle space.
A step keeps one scratch state per thread between calls: 64 MiB at q=22.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import walk
from .lattice import is_integer

QUBIT_CAP = 22
DENSE_OPERATOR_CAP = 2048
_kept = threading.local()  # qca_step's scratch state, one per thread, kept between calls so its pages stay faulted in


@dataclass(frozen=True)
class CellLattice:
    """Slot bookkeeping for the bitstring space.

    Slot index layout: ((type*n_sites + site)*2 + direction), direction
    0 = R, 1 = L.  Bit s of a basis index is the occupation of slot s.
    """

    n_sites: int
    n_types: int

    def __post_init__(self):
        for name in ("n_sites", "n_types"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if self.n_types < 1:
            raise ValueError(f"need at least 1 type, got {self.n_types}")
        if self.n_qubits > QUBIT_CAP:
            raise ValueError(
                f"{self.n_qubits} qubits exceed the desk-scale cap {QUBIT_CAP}"
            )

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_sites * self.n_types

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def slot(self, type_idx: int, site: int, direction: int) -> int:
        return ((type_idx * self.n_sites + site) * 2) + direction


def build_local_coin(theta: float) -> np.ndarray:
    """Number-conserving 4x4 cell coin on one cell's (R, L) slot pair.

    In the cell order (empty, R, L, RL): identity on the empty and the
    doubly occupied cell, :func:`walkqca.walk.coin_matrix` on one
    particle.  No requirement pins the doubly occupied phase down, and
    sectors with at most one particle per type never see it.
    """
    mat = np.eye(4, dtype=complex)
    mat[1:3, 1:3] = walk.coin_matrix(theta)
    return mat


def faulty_local_coin(kind: str, theta: float) -> np.ndarray:
    """Deliberately broken coins for negative-control verification runs."""
    mat = build_local_coin(theta)
    if kind == "coin-nonconserving":
        # unitary, but trades the empty cell for the doubly occupied one
        mat[0, 0] = mat[3, 3] = 0.0
        mat[0, 3] = mat[3, 0] = 1.0
    elif kind == "coin-nonunitary":
        mat[3, 3] = 0.5
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return mat


def shift_slot_map(lattice: CellLattice) -> np.ndarray:
    """Destination slot of each slot's content: R one site (two slots) up, L one down."""
    ring = 2 * lattice.n_sites
    s = np.arange(lattice.n_qubits, dtype=np.int64)
    return s - s % ring + (s % ring + 2 - 4 * (s % 2)) % ring


def qca_shift_permutation(lattice: CellLattice) -> np.ndarray:
    """Destination basis index for every basis index under the shift."""
    # The shifted index vector holds, at each destination, its source.
    return np.argsort(apply_shift(lattice, np.arange(lattice.dim, dtype=np.int64)))


def _shifted(lattice: CellLattice, state: np.ndarray) -> np.ndarray:
    """The shift as a (k, 2, ..., 2) view of `state`'s (2,)*q axes, permuted; tensor axis a is slot q-1-a."""
    q = lattice.n_qubits
    source = np.argsort(shift_slot_map(lattice))  # slot each slot's content comes from
    axes = q - source[::-1]  # q-1-source, past the leading stack axis
    return state.reshape(-1, *(2,) * q).transpose(0, *axes)


def apply_shift(lattice: CellLattice, state: np.ndarray) -> np.ndarray:
    """Permute the qubit axes of the (2,)*q view; `state` is one (dim,) vector or a (k, dim) stack of them."""
    return _shifted(lattice, state).reshape(state.shape)


def _coin_gates(lattice: CellLattice, coin: np.ndarray) -> list[np.ndarray]:
    """Each coin pass's gate: kron(g, g) on two cells, g alone on an odd last cell."""
    g = coin.astype(complex)
    cells, pair = lattice.n_sites * lattice.n_types, np.kron(g, g)
    return [pair if low + 1 < cells else g for low in range(0, cells, 2)]


def apply_coin(lattice: CellLattice, coin: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Coin every cell: each gemm gates the two lowest cells and writes them back as the highest.

    Base-4 digit c of a basis index is cell c in the coin's (empty, R, L,
    RL) order.  A pass is one gemm of kron(g, g) (g alone for an odd last
    cell); after ceil(cells/2) passes the cells are in place and a (k, dim)
    stack's axis is at the bottom.  The left-hand form keeps OpenBLAS's
    peak RSS down: `state.reshape(-1, 16) @ pair.T` peaks 4 MB higher at q=18.
    """
    out = state
    for gate in _coin_gates(lattice, coin):
        out = (gate @ out.reshape(-1, len(gate)).T).reshape(-1)
    return out.reshape(lattice.dim, -1).T.reshape(state.shape)


def _check_state(lattice: CellLattice, state: np.ndarray) -> None:
    if state.shape != (lattice.dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({lattice.dim},)")


def _shift_into_result(passes: int) -> bool:
    return passes % 2 == 0  # then the passes, alternating from the other array, end in the returned one too


def qca_step(lattice: CellLattice, coin: np.ndarray, state: np.ndarray) -> np.ndarray:
    """One automaton step: shift, then the coin on every cell, through the thread's kept scratch state (64 MiB at q=22)."""
    _check_state(lattice, state)
    gates, result = _coin_gates(lattice, coin), np.empty(lattice.dim, dtype=complex)
    if getattr(_kept, "scratch", result[:0]).size != lattice.dim:
        _kept.scratch = np.empty(lattice.dim, dtype=complex)
    src, dst = (result, _kept.scratch) if _shift_into_result(len(gates)) else (_kept.scratch, result)
    np.copyto(src.reshape(1, *(2,) * lattice.n_qubits), _shifted(lattice, state))
    for gate in gates:
        np.matmul(gate, src.reshape(-1, len(gate)).T, out=dst.reshape(len(gate), -1))
        src, dst = dst, src
    return src


def qca_step_operator(lattice: CellLattice, coin: np.ndarray) -> np.ndarray:
    """Dense matrix of one step; guarded to small instances."""
    if lattice.dim > DENSE_OPERATOR_CAP:
        raise ValueError(
            f"dense step operator would be {lattice.dim}x{lattice.dim}; "
            f"cap is {DENSE_OPERATOR_CAP}"
        )
    # Row b of the stepped identity is the step of basis vector b.
    return apply_coin(lattice, coin, apply_shift(lattice, np.eye(lattice.dim, dtype=complex))).T


def occupation_expectations(lattice: CellLattice, state: np.ndarray) -> np.ndarray:
    """<n> per (type, site, direction); shape (n_types, n_sites, 2)."""
    _check_state(lattice, state)
    probs = np.abs(state) ** 2
    marginals = []
    for _ in range(lattice.n_qubits):  # peel the top slot off, then fold it away
        top = probs.reshape(2, -1)
        marginals.append(top[1].sum())
        probs = top[0] + top[1]
    return np.array(marginals[::-1]).reshape(lattice.n_types, lattice.n_sites, 2)


def type_number_expectations(lattice: CellLattice, state: np.ndarray) -> np.ndarray:
    """Total particle number per type."""
    return occupation_expectations(lattice, state).sum(axis=(1, 2))


def localized_particle_state(
    lattice: CellLattice, site: int, direction: int, type_idx: int = 0
) -> np.ndarray:
    for name, value, bound in (
        ("type", type_idx, lattice.n_types),
        ("site", site, lattice.n_sites),
        ("direction", direction, 2),
    ):
        if not (is_integer(value) and 0 <= value < bound):
            raise ValueError(f"{name} {value!r} is outside 0..{bound - 1}")
    state = np.zeros(lattice.dim, dtype=complex)
    state[1 << lattice.slot(type_idx, site, direction)] = 1.0
    return state


def embedding_indices(lattice: CellLattice, walk_dim: int) -> np.ndarray:
    """QCA basis index for each <=1-particle-per-type tensor basis state.

    Tensor basis index J runs mixed-radix over per-type values in
    0..walk_dim (walk_dim = the factor vacuum), factor 0 major; value
    v < walk_dim is a particle at site v//2 with direction v%2.
    """
    if walk_dim != 2 * lattice.n_sites:
        raise ValueError(
            f"walk dimension {walk_dim} does not match {lattice.n_sites} sites"
        )
    # Row t holds type t's value; slot(t, v // 2, v % 2) = t * walk_dim + v.
    values = np.indices((walk_dim + 1,) * lattice.n_types).reshape(lattice.n_types, -1)
    slots = values + walk_dim * np.arange(lattice.n_types)[:, None]
    return np.where(values < walk_dim, 1 << slots, 0).sum(axis=0)


def one_particle_sector_isomorphism(
    n_sites: int, n_types: int, theta: float, coin: np.ndarray | None = None
) -> float:
    """2-norm of one qca step minus the factor-wise walk step, on a seeded sector state.

    Seeded unit-modulus amplitudes on every <=1-particle-per-type basis
    state go through one :func:`qca_step` and are matched with the walk
    applied to each type's occupied rows, not the vacuum row.  The norm
    runs over all 2**q amplitudes, so weight leaving the sector counts,
    and a fault confined to one basis vector reads that column's full norm.
    """
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    if coin is None:
        coin = build_local_coin(theta)
    u = walk.walk_matrix(n_sites, 1, theta)
    amps = walk.unit_phases((len(u) + 1,) * n_types)
    emb = embedding_indices(lattice, len(u))
    state = np.zeros(lattice.dim, dtype=complex)
    state[emb] = amps.ravel()
    stepped = qca_step(lattice, coin, state)
    for axis in range(n_types):
        occupied = np.moveaxis(amps, axis, 0)[: len(u)]  # the vacuum row stays as it is
        occupied[...] = np.tensordot(u, occupied, axes=1)
    stepped[emb] -= amps.ravel()  # the expected state is zero off the sector
    return float(np.linalg.norm(stepped))


@dataclass(frozen=True)
class LocalityReport:
    shift_nearest_neighbor: bool
    coin_conjugation_residual: float
    light_cone_radius_per_step: int
    spread_within_cone: bool


def locality_check(n_sites: int, n_types: int, theta: float) -> LocalityReport:
    """Structural locality: shift reach, coin site-support, a three-step light cone."""
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    coin = build_local_coin(theta)

    # Every slot keeps its direction and type and hops one site on the ring.
    dest, src = shift_slot_map(lattice), np.arange(lattice.n_qubits)
    hop = (dest // 2 - src // 2) % n_sites
    same = (dest % 2 == src % 2) & (dest // (2 * n_sites) == src // (2 * n_sites))
    nearest = bool(np.all(same & ((hop == 1) | (hop == n_sites - 1))))

    # Conjugating a single-site observable by the full coin layer must act
    # like the cell coin alone: build both on a small dense instance.
    probe = CellLattice(n_sites=min(n_sites, 3), n_types=1)
    rng = np.random.default_rng(7)
    herm = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = herm + herm.conj().T
    site = 1

    def on_site(op: np.ndarray) -> np.ndarray:
        return np.kron(np.kron(np.eye(4 ** (probe.n_sites - 1 - site)), op), np.eye(4**site))

    coin_full = apply_coin(probe, coin, np.eye(probe.dim, dtype=complex)).T
    conjugated = coin_full @ on_site(herm) @ coin_full.conj().T
    local_full = on_site(coin @ herm @ coin.conj().T)
    coin_residual = float(np.max(np.abs(conjugated - local_full)))

    start = n_sites // 2
    offset = np.abs(np.arange(n_sites) - start)
    distance = np.minimum(offset, n_sites - offset)  # ring distance to the start site
    state = localized_particle_state(lattice, start, 0)
    radii = []  # after steps 1, 2, 3
    for _ in range(3):
        state = qca_step(lattice, coin, state)
        occ = occupation_expectations(lattice, state).sum(axis=(0, 2))
        radii.append(int(distance[occ > 1e-12].max(initial=0)))
    return LocalityReport(
        shift_nearest_neighbor=nearest,
        coin_conjugation_residual=coin_residual,
        light_cone_radius_per_step=radii[0],
        spread_within_cone=all(radius <= step for step, radius in enumerate(radii, start=1)),
    )
