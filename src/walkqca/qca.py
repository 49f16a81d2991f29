"""Occupation-number automaton for the 1D walk.

Cells: one two-level system per (type, site, direction) slot, so a basis
state is a bitstring of length 2*N*n_types.  One step is the global
shift (R-slot contents move one site right, L-slot contents one site
left, per type) followed by an identical 4x4 coin on every site's (R, L)
slot pair.  Restricted to at most one particle per type this reproduces
the factor-wise walk evolution on the distinguishable-particle space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import walk
from .lattice import is_integer
from .multiparticle import extended_unitary

QUBIT_CAP = 22
DENSE_OPERATOR_CAP = 2048


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


def apply_shift(lattice: CellLattice, state: np.ndarray) -> np.ndarray:
    """Permute the qubit axes of the (2,)*q view; tensor axis a is slot q-1-a.

    `state` is one (dim,) vector or a (k, dim) stack of them.
    """
    q = lattice.n_qubits
    source = np.argsort(shift_slot_map(lattice))  # slot each slot's content comes from
    axes = q - source[::-1]  # q-1-source, past the leading stack axis
    return state.reshape(-1, *(2,) * q).transpose(0, *axes).reshape(state.shape)


def apply_coin(lattice: CellLattice, coin: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Sweep the gate over the (4,)*cells view, two cells per matmul, from the back.

    Cell slots are adjacent bits, R the low one, so each axis of that view
    indexes a cell in the coin's (empty, R, L, RL) order.  `state` is one
    (dim,) vector or a (k, dim) stack of them.
    """
    cells = lattice.n_sites * lattice.n_types
    g = coin.astype(complex)
    pair = np.kron(g, g)
    # The last two cells, as a gemm on the transposed view: at q=18 the
    # right-hand form `state.reshape(-1, 16) @ pair.T` peaks 4 MB higher
    # (OpenBLAS's threaded gemm buffers).
    out = (pair @ state.reshape(-1, 16).T).T
    for end in range(cells - 2, 0, -2):
        a = max(end - 2, 0)  # an odd first cell goes alone
        gate = pair if end - a == 2 else g
        out = np.matmul(gate, out.reshape(-1, 4 ** (end - a), 4 ** (cells - end)))
    return out.reshape(state.shape)


def _check_state(lattice: CellLattice, state: np.ndarray) -> None:
    if state.shape != (lattice.dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({lattice.dim},)")


def qca_step(lattice: CellLattice, coin: np.ndarray, state: np.ndarray) -> np.ndarray:
    """One automaton step: shift, then the coin on every cell."""
    _check_state(lattice, state)
    return apply_coin(lattice, coin, apply_shift(lattice, state))


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
    """Max residual between one qca step and the factor-wise walk step.

    Compares the automaton restricted to <=1 particle per type against
    the vacuum-extended walk applied to every tensor factor, over the
    whole embedded basis.
    """
    lattice = CellLattice(n_sites=n_sites, n_types=n_types)
    if coin is None:
        coin = build_local_coin(theta)
    ext = extended_unitary(walk.walk_matrix(n_sites, 1, theta))
    d = ext.shape[0] - 1
    u_total = np.array([[1.0]], dtype=complex)
    for _ in range(n_types):
        u_total = np.kron(u_total, ext)
    emb = embedding_indices(lattice, d)
    worst = 0.0
    for j in range(u_total.shape[0]):
        e = np.zeros(lattice.dim, dtype=complex)
        e[emb[j]] = 1.0
        stepped = qca_step(lattice, coin, e)
        expected = np.zeros(lattice.dim, dtype=complex)
        expected[emb] = u_total[:, j]
        worst = max(worst, float(np.linalg.norm(stepped - expected)))
    return worst


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
    radius_one = 0
    within = True
    for step in range(1, 4):
        state = qca_step(lattice, coin, state)
        occ = occupation_expectations(lattice, state).sum(axis=(0, 2))
        radius = int(distance[occ > 1e-12].max(initial=0))
        if step == 1:
            radius_one = radius
        if radius > step:
            within = False
    return LocalityReport(
        shift_nearest_neighbor=nearest,
        coin_conjugation_residual=coin_residual,
        light_cone_radius_per_step=radius_one,
        spread_within_cone=within,
    )
