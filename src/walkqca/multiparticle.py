"""Distinguishable-particle tensor space, antisymmetrizer, and physical states.

Each of the n_factors tensor factors is the one-particle walk space
extended by one extra "absent" basis element (the factor vacuum, indexed
last).  Physical states occupy the first n factors antisymmetrically and
leave the rest in the vacuum; the total evolution applies the
vacuum-extended walk step independently to every factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import combinations, permutations
from math import factorial, sqrt

import numpy as np

from . import walk
from .lattice import EnergyModeLabel, LatticeSpec, mode_ordering_key

# Hard cap on dense amplitude counts; larger configurations belong in the
# occupation-number (fock) representation.  Just under it, 3 particles on
# 1D N=62 (125**3 amplitudes, 31 MB a state), `verify --only preservation`
# with 3 random states takes about 1 s and peaks at 125 MB, and
# `evolve --steps 4` about 0.7 s and 121 MB, each in a fresh process on a
# 2-vCPU Xeon (`tools/cli_ladder.py`, BENCH_31.json).
AMPLITUDE_CAP = 2_000_000

SUPPORT_TOL = 1e-12

# States per step in eigenstate_residual.  Rounding grows with the run: one sum
# of all 8,385 2D N=8 states read 3.8e-13, runs of this size 6.1e-14.
RUN_STATES = 1024


def _canonical(labels) -> tuple[EnergyModeLabel, ...]:
    """The labels as a tuple, refused unless strictly increasing in the canonical order."""
    labels = tuple(labels)
    keys = [mode_ordering_key(m) for m in labels]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError("labels must be strictly increasing in the canonical order")
    return labels


@dataclass(frozen=True)
class MultiState:
    """Dense amplitudes over (walk_dim + 1)**n_factors basis states.

    Factor-local index walk_dim is the vacuum; factor 0 is the major axis
    of the flattened vector.
    """

    amplitudes: np.ndarray
    walk_dim: int
    n_factors: int

    def __post_init__(self):
        dim = dense_size(self.walk_dim, self.n_factors)
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, expected ({dim},)"
            )

    @property
    def factor_dim(self) -> int:
        return self.walk_dim + 1

    @property
    def vacuum_index(self) -> int:
        return self.walk_dim

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.factor_dim,) * self.n_factors)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def dense_size(walk_dim: int, n_factors: int) -> int:
    """(walk_dim + 1)**n_factors, refused over AMPLITUDE_CAP: every dense state is sized here before it is allocated."""
    dim = (walk_dim + 1) ** n_factors
    if dim > AMPLITUDE_CAP:
        raise ValueError(f"state with {dim} amplitudes exceeds the dense cap {AMPLITUDE_CAP}")
    return dim


def vacuum_state(walk_dim: int, n_factors: int) -> MultiState:
    amps = np.zeros(dense_size(walk_dim, n_factors), dtype=complex)
    amps[-1] = 1.0  # all factors at the vacuum index
    return MultiState(amps, walk_dim, n_factors)


def product_state(factors, walk_dim: int) -> MultiState:
    """Tensor product of per-factor walk vectors; None means the factor vacuum."""
    factors = list(factors)
    dense_size(walk_dim, len(factors))
    acc = np.array([1.0], dtype=complex)
    for vec in factors:
        ext = np.zeros(walk_dim + 1, dtype=complex)
        if vec is None:
            ext[-1] = 1.0
        else:
            if len(vec) != walk_dim:
                raise ValueError(f"factor vector has length {len(vec)}, expected {walk_dim}")
            ext[:walk_dim] = vec
        acc = np.kron(acc, ext)
    return MultiState(acc, walk_dim, len(factors))


def total_evolution_apply(spec: LatticeSpec, n_max: int, state: MultiState) -> MultiState:
    """One step of the n_max-fold vacuum-extended walk; the input state is not written.

    Each factor in turn is stepped with the matrix-free walk kernel through
    an (A, factor_dim, B) view of one output array: factor 0 from the input,
    with its vacuum row copied, and every later factor in place, where its
    vacuum row already is.
    """
    if state.n_factors != n_max:
        raise ValueError(f"state has {state.n_factors} factors, expected {n_max}")
    if state.walk_dim != spec.walk_dim:
        raise ValueError(
            f"state walk dimension {state.walk_dim} does not match lattice ({spec.walk_dim})"
        )
    f, d = state.factor_dim, state.walk_dim
    if n_max == 0:
        return MultiState(state.amplitudes.copy(), d, n_max)
    out = np.empty_like(state.amplitudes)
    src, head = state.amplitudes.reshape(1, f, -1), out.reshape(1, f, -1)
    walk.step_into(spec, src[:, :d], head[:, :d])
    head[:, d] = src[:, d]
    for axis in range(1, n_max):
        occupied = out.reshape(f**axis, f, -1)[:, :d]
        walk.step_into(spec, occupied, occupied)
    return MultiState(out, d, n_max)


def _antisymmetrize_tensor(block: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Write the totally antisymmetric part of a (d,)*n tensor into `out`, a new array by default.

    Factor k is antisymmetrized against the k before it by the
    transpositions (i k): A_{k+1} = (1 - sum_{i<k} (i k)) A_k / (k+1).
    Stage 1 reads `block` directly, and the stages alternate between `out`
    and one spare array, so that besides the input at most two
    block-sized arrays are alive.  The last stage lands in `out` unless
    `block` is `out` itself and n is even; then the spare is copied in.
    `block` is written only when it is `out`.
    """
    if out is None:
        out = np.empty(block.shape, dtype=block.dtype)
    if n < 2:
        out[...] = block
        return out
    spare = np.empty(block.shape, dtype=out.dtype) if n > 2 or block is out else None
    dest = out if n % 2 == 0 and block is not out else spare
    for k in range(1, n):
        np.copyto(dest, block)
        for i in range(k):
            dest -= block.swapaxes(i, k)
        dest /= k + 1
        block, dest = dest, (spare if dest is out else out)
    if block is not out:
        out[...] = block
    return out


def _occupied_block_index(n: int, n_factors: int, walk_dim: int):
    # the trailing Ellipsis makes even the vacuum's block, every factor indexed, a 0-d view
    return (slice(0, walk_dim),) * n + (walk_dim,) * (n_factors - n) + (Ellipsis,)


def _off_sector_indices(n_factors: int, walk_dim: int):
    """Index tuples of the configurations in no first-n-occupied block.

    One per first vacuum factor i and first occupied factor j > i.  The
    views are disjoint, and with the n_factors + 1 blocks they cover the
    whole tensor.
    """
    occupied, vacuum = slice(0, walk_dim), walk_dim
    return [
        (occupied,) * i + (vacuum,) * (j - i) + (occupied,)
        for i in range(n_factors)
        for j in range(i + 1, n_factors)
    ]


def _norm_of_pieces(pieces) -> float:
    """2-norm of disjoint pieces of one vector, without joining them.

    Each piece's norm is taken directly and the norms are combined by one
    more 2-norm; a difference of squared norms would lose half the digits.
    """
    return float(np.linalg.norm([np.linalg.norm(piece) for piece in pieces]))


def antisymmetrize(state: MultiState, n: int) -> MultiState:
    """Antisymmetrize over the first n factors (the remaining must be vacuum).

    Idempotent; raises if the state has weight outside the configurations
    where exactly the first n factors are occupied.
    """
    if not 0 <= n <= state.n_factors:
        raise ValueError(f"n must lie in 0..{state.n_factors}, got {n}")
    arr = state.tensor()
    nf, d = state.n_factors, state.walk_dim
    idx = _occupied_block_index(n, nf, d)
    others = [_occupied_block_index(m, nf, d) for m in range(nf + 1) if m != n]
    outside = _norm_of_pieces(arr[i] for i in others + _off_sector_indices(nf, d))
    if outside > SUPPORT_TOL:
        raise ValueError(
            f"state has weight {outside:.3e} outside the first-{n}-occupied block"
        )
    out = np.zeros_like(arr)
    _antisymmetrize_tensor(arr[idx], n, out[idx])
    return MultiState(out.reshape(-1), state.walk_dim, state.n_factors)


def ordered_product_state(spec: LatticeSpec, labels, n_max: int) -> MultiState:
    """Antisymmetrized product of walk eigenstates in the given creation order.

    The labels must be distinct but may be in any order; swapping two of
    them flips the overall sign.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct (a repeat antisymmetrizes to zero)")
    return _antisymmetrized_product(spec, [walk.walk_eigenstate(spec, label) for label in labels], n_max)


def _antisymmetrized_product(spec: LatticeSpec, vectors, n_max: int) -> MultiState:
    """sqrt(n!) times the antisymmetric part of the product of n walk vectors, over the first n factors.

    The product is formed in the output's block and antisymmetrized and
    scaled there, so the output and one spare block are all that is alive.
    The output comes first: allocated after the spare, it sat at the top
    of the heap, and the step that freed it handed those pages back to the
    system for the next step to fault in again.
    """
    n, d = len(vectors), spec.walk_dim
    if n > n_max:
        raise ValueError(f"{n} labels exceed n_max = {n_max}")
    if n == 0:
        return vacuum_state(d, n_max)
    out = np.zeros(dense_size(d, n_max), dtype=complex)
    block = out.reshape((d + 1,) * n_max)[_occupied_block_index(n, n_max, d)]
    if n == 1:
        block[...] = vectors[0]
    else:
        np.multiply.outer(reduce(np.multiply.outer, vectors[:-1]), vectors[-1], out=block)
    _antisymmetrize_tensor(block, n, block)
    block *= sqrt(factorial(n))
    return MultiState(out, d, n_max)


def physical_basis_state(spec: LatticeSpec, labels, n_max: int) -> MultiState:
    """Energy-basis state for any iterable of labels in strictly increasing (canonical) order."""
    return ordered_product_state(spec, _canonical(labels), n_max)


def eigenstate_residual(spec: LatticeSpec, n_max: int, pairs) -> float:
    """Largest 2-norm of U_total sum(a psi) - sum(a lam psi) over runs of (labels, lam) pairs.

    psi is the antisymmetrized product of the labels' walk eigenstates in
    the given (creation) order, each eigenstate built once per call.  Each
    run takes the next RUN_STATES pairs as they are read, weights them
    with :func:`walk.unit_phases` a, and is stepped once; no pairs read 0.
    """
    pairs, amps = iter(pairs), walk.unit_phases(RUN_STATES)
    eigenstate = cache(partial(walk.walk_eigenstate, spec))
    runs = np.empty((2, dense_size(spec.walk_dim, n_max)), dtype=complex)
    superposed, expected = runs
    weighted = np.empty_like(superposed)  # each weighted state, in one reused array
    worst = 0.0
    while True:
        runs.fill(0.0)
        count = 0
        for count, (amp, (labels, eigenvalue)) in enumerate(zip(amps, pairs), 1):
            state = _antisymmetrized_product(spec, list(map(eigenstate, labels)), n_max)
            superposed += np.multiply(amp, state.amplitudes, out=weighted)
            expected += np.multiply(amp * eigenvalue, state.amplitudes, out=weighted)
        if not count:
            return worst
        stepped = total_evolution_apply(spec, n_max, MultiState(superposed, spec.walk_dim, n_max)).amplitudes
        stepped -= expected
        worst = max(worst, float(np.linalg.norm(stepped)))


def eigenphase_check(spec: LatticeSpec, label_sets, n_max: int) -> float:
    """Residual of U_total psi = exp(i * sum(branch * phi)) psi over energy-basis states.

    Each label's phase is computed once per call.
    """
    phase = cache(partial(walk.label_phase, spec))
    pairs = ((modes, np.exp(1j * sum(map(phase, modes)))) for modes in map(_canonical, label_sets))
    return eigenstate_residual(spec, n_max, pairs)


def project_physical(state: MultiState) -> MultiState:
    """Orthogonal projection onto vacuum + antisymmetric first-n-occupied sectors."""
    arr = state.tensor()
    out = np.zeros_like(arr)
    for n in range(state.n_factors + 1):
        idx = _occupied_block_index(n, state.n_factors, state.walk_dim)
        _antisymmetrize_tensor(arr[idx], n, out[idx])
    return MultiState(out.reshape(-1), state.walk_dim, state.n_factors)


def physical_subspace_projector_residual(state: MultiState) -> float:
    """Norm of the component of `state` outside the physical subspace, ||psi - P psi||.

    Taken from pieces, with no projection built: each block's difference
    from its antisymmetric part (zero below two particles) and the weight
    in no block.
    """
    arr, nf, d = state.tensor(), state.n_factors, state.walk_dim

    def pieces():
        for n in range(2, nf + 1):
            block = arr[_occupied_block_index(n, nf, d)]
            diff = _antisymmetrize_tensor(block, n)
            diff -= block
            yield diff
        for idx in _off_sector_indices(nf, d):
            yield arr[idx]

    return _norm_of_pieces(pieces())


def _increasing_tuples(d: int, n: int) -> np.ndarray:
    """The C(d, n) strictly increasing n-tuples of 0..d-1 as rows, in lexicographic order."""
    mask = np.ones((d,) * n, dtype=bool)
    grid = np.ogrid[(slice(0, d),) * n]
    for a, b in zip(grid, grid[1:]):
        mask &= a < b
    return np.argwhere(mask)


def random_physical_state(walk_dim: int, n_factors: int, rng: np.random.Generator) -> MultiState:
    """Seeded random unit vector, isotropic inside the physical subspace.

    Sector n has one basis vector per strictly increasing n-tuple of walk
    indices: the tuple's n! orderings over the first n factors, each with
    its permutation's sign and weight 1/sqrt(n!), the other factors in the
    vacuum.  Each basis vector gets one complex normal, sector 0 first, so
    the state is physical by construction and has the distribution of an
    isotropic draw of the whole space projected onto the subspace; sector
    n carries weight in proportion to C(walk_dim, n).
    """
    f = walk_dim + 1
    strides = f ** np.arange(n_factors - 1, -1, -1)
    state = MultiState(np.zeros(dense_size(walk_dim, n_factors), dtype=complex), walk_dim, n_factors)
    amps = state.amplitudes
    for n in range(n_factors + 1):
        tuples = _increasing_tuples(walk_dim, n)
        coeffs = (rng.standard_normal(len(tuples)) + 1j * rng.standard_normal(len(tuples))) / sqrt(factorial(n))
        vacuum = f ** (n_factors - n) - 1  # flat offset of factors n.. at the vacuum index
        for perm in permutations(range(n)):
            sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
            amps[tuples[:, perm] @ strides[:n] + vacuum] = sign * coeffs
    nrm = float(np.linalg.norm(amps))
    if nrm < 1e-12:
        raise ValueError("random draw has (numerically) zero norm; reseed")
    amps /= nrm
    return state


def save_state(path, state: MultiState) -> None:
    """Textual dump: one JSON header line, then `index real imag` per amplitude."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "walk_dim": state.walk_dim,
            "n_factors": state.n_factors,
            "vacuum_index": state.vacuum_index,
        }
        fh.write(json.dumps(header) + "\n")
        for idx in np.flatnonzero(state.amplitudes):
            amp = state.amplitudes[idx]
            fh.write(f"{idx} {float(amp.real)!r} {float(amp.imag)!r}\n")

