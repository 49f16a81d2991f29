"""The coined walk on a periodic lattice of one or two dimensions.

State layout: index site*2 + c, where the site index runs row-major over
the axes (x in 1D, x*N + y in 2D) and c is the coin index in the {R, L}
storage basis (0 = R, 1 = L).  One step applies the conditional shift
along each axis in turn (axis 0 moves R right and L left, axis 1 moves U
and D), then the coin exp(i*theta*q) with q the swap.  The 1D walk is the
k_y = 0 slice of the 2D one: the same frame, the same block formula.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import reduce
from math import cos, pi, sin, sqrt

import numpy as np

from .blocks import IDENTITY_2, SIGMA_X, BlockDecomposition, decompose, eigenbasis, eigenphase_from_r, is_degenerate, matrix_from_r
from .lattice import (
    EnergyModeLabel,
    LatticeSpec,
    MomentumMode,
    require_on_grid,
)

# The coin frame in the {R, L} storage basis: each axis's direction basis
# V_a, columns (forward, backward).  V_x is the identity, R and L; V_y
# holds U and D at equal weight over R and L, unbiased to V_x, and the
# swap exchanges R with L and U with D.
DIRECTION_BASES = (
    np.eye(2, dtype=complex),
    np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]]),
)
# Each V_{a+1}^dag V_a by einsum: a BLAS matmul at import cost 2 MB of peak RSS (OpenBLAS, 2-vCPU Xeon).
_BASIS_CHANGES = [np.einsum("ji,jk->ik", nxt.conj(), cur) for cur, nxt in zip(DIRECTION_BASES, DIRECTION_BASES[1:])]


def coin_matrix(theta: float) -> np.ndarray:
    """exp(i*theta*q) with q the coin swap; unitary for every real theta."""
    return cos(theta) * IDENTITY_2 + 1j * sin(theta) * SIGMA_X


def _step_mixes(dimension: int, theta: float) -> list[np.ndarray]:
    """The 2x2 coin-axis mix after each axis's roll in :func:`step_into`.

    Axis a rolls in its own direction basis V_a; the mix after it changes
    to the next axis's basis, V_{a+1}^dag V_a, and the last one goes back
    to storage and applies the coin, coin @ V_last.  The state enters in
    storage coordinates, which are V_x's, so no mix precedes axis 0.
    """
    return _BASIS_CHANGES[: dimension - 1] + [coin_matrix(theta) @ DIRECTION_BASES[dimension - 1]]


def _roll_into(dst: np.ndarray, src: np.ndarray, shift: int, axis: int) -> None:
    """dst = np.roll(src, shift, axis) for shift +1 or -1, by slice assignment."""
    lead = (slice(None),) * axis
    pairs = [(slice(1, None), slice(None, -1)), (0, -1)]  # (to, from) for shift +1
    for to, frm in pairs:
        if shift < 0:
            to, frm = frm, to
        dst[lead + (to,)] = src[lead + (frm,)]


# Columns of step_into's (A, walk_dim, B) array are independent; it steps
# them in slabs of about this many amplitudes, so that its scratch stays
# small and in cache however large the state.
SLAB_AMPLITUDES = 1 << 15


def step_into(spec: LatticeSpec, src: np.ndarray, out: np.ndarray) -> None:
    """One walk step on axis 1 of an (A, walk_dim, B) array, into `out`.

    Matrix-free, O(walk_dim) per column: along each lattice axis the
    forward coin component is rolled by +1 and the backward one by -1,
    then one 2x2 mix (see :func:`_step_mixes`) acts on the coin axis.
    Equals applying ``build_walk_unitary(spec)`` to axis 1.  `out` may be
    a strided view.  It is either `src` itself, for a step in place, or
    shares no memory with it, and then `src` is not written.
    """
    _, dim, _ = src.shape
    if dim != spec.walk_dim or out.shape != src.shape:
        raise ValueError(
            f"step expects (A, {spec.walk_dim}, B) arrays, got {src.shape} into {out.shape}"
        )
    if out is not src and np.may_share_memory(src, out):
        raise ValueError("step_into's out must be src itself or share no memory with it")
    _step_slabs(spec.N, spec.dimension, spec.theta, src, out)


def _step_slabs(n: int, dimension: int, theta: float, src: np.ndarray, out: np.ndarray) -> None:
    """:func:`step_into` on n sites per axis, unchecked; any n >= 2.

    Each slab is read whole into the scratch before its part of `out` is
    written, and the slabs are disjoint, so `out` may be `src`.
    """
    a, dim, b = src.shape
    mixes = _step_mixes(dimension, theta)
    cols = min(b, max(1, SLAB_AMPLITUDES // dim))
    rows = min(a, max(1, SLAB_AMPLITUDES // (dim * cols)))
    scratch = np.empty(3 * rows * (dim // 2) * cols, dtype=complex)
    for top, left in itertools.product(range(0, a, rows), range(0, b, cols)):
        slab = np.s_[top:top + rows, :, left:left + cols]
        _step_slab(n, dimension, mixes, src[slab], out[slab], scratch)


def _step_slab(
    n: int, dimension: int, mixes: list[np.ndarray], src: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    a, _, b = src.shape
    grid = (a, *(n,) * dimension)
    x = src.reshape(*grid, 2, b)
    y = out.reshape(*grid, 2, b)
    r0, r1, t = scratch[: 3 * (src.size // 2)].reshape(3, *grid, b)
    y0, y1 = y[..., 0, :], y[..., 1, :]
    for axis, m in enumerate(mixes, start=1):
        _roll_into(r0, x[..., 0, :], 1, axis)
        _roll_into(r1, x[..., 1, :], -1, axis)
        # y0 = m00 r0 + m01 r1, y1 = m10 r0 + m11 r1.  The products go into
        # the contiguous buffers where they can: ops on the interleaved
        # y0, y1 cost several times more when B is small.
        np.multiply(r0, m[1, 0], out=t)
        r0 *= m[0, 0]
        np.multiply(r1, m[0, 1], out=y0)
        y0 += r0
        r1 *= m[1, 1]
        np.add(t, r1, out=y1)
        x = y


def walk_matrix(n: int, dimension: int, theta: float) -> np.ndarray:
    """One-step matrix on 2*n**dimension amplitudes: the step of the identity.

    Column j is the step of basis vector j.  Accepts any n >= 2, odd
    rings too, which :class:`LatticeSpec` refuses.
    """
    dim = 2 * n**dimension
    u = np.empty((1, dim, dim), dtype=complex)
    _step_slabs(n, dimension, theta, np.eye(dim, dtype=complex)[None], u)
    return u[0]


def build_walk_unitary(spec: LatticeSpec) -> np.ndarray:
    """Dense walk matrix on the lattice, :func:`step_into` applied to the identity."""
    return walk_matrix(spec.N, spec.dimension, spec.theta)


def momentum_state(spec: LatticeSpec, mode: MomentumMode) -> np.ndarray:
    """Plane-wave amplitudes exp(-i*k.x)/sqrt(n_sites); shift eigenvalues exp(+i*k*dx)."""
    require_on_grid(spec, mode)
    coord = spec.dx * np.arange(spec.N)
    return reduce(np.kron, [np.exp(-1j * k * coord) for k in mode.k]) / sqrt(spec.n_sites)


def pauli_coefficients(k_dx: Sequence[float], theta: float) -> tuple[float, float, float, float]:
    """(r0, r1, r2, r3) of the block at dimensionless momenta k*dx (1 or 2 axes).

    A 1D momentum is taken as k_y = 0.  Scalar libm calls keep the
    values identical however the caller batches them.
    """
    kx_dx, ky_dx = (*k_dx, 0.0)[:2]
    return _pauli_r(cos(kx_dx), sin(kx_dx), cos(ky_dx), sin(ky_dx), cos(theta), sin(theta))


def _pauli_r(ca, sa, cb, sb, ct, st):
    """(r0, r1, r2, r3) from cos and sin of k_x dx, k_y dx and theta: scalars or arrays, rounded alike."""
    return (
        ca * cb * ct - sa * sb * st,
        ca * cb * st + sa * sb * ct,
        -ca * sb * ct + sa * cb * st,
        sa * cb * ct + ca * sb * st,
    )


def mode_coefficients(spec: LatticeSpec, mode: MomentumMode) -> tuple[float, float, float, float]:
    """(r0, r1, r2, r3) of a grid mode's block; :func:`momentum_block` decomposes it whole, for the per-mode API."""
    require_on_grid(spec, mode)
    return pauli_coefficients([k * spec.dx for k in mode.k], spec.theta)


def momentum_block(spec: LatticeSpec, mode: MomentumMode) -> BlockDecomposition:
    return decompose(mode_coefficients(spec, mode))


def label_phase(spec: LatticeSpec, label: EnergyModeLabel) -> float:
    """The label's eigenphase branch*phi: its walk eigenstate steps by exp(i*branch*phi)."""
    return label.branch * eigenphase_from_r(mode_coefficients(spec, label.mode))


def walk_eigenstate(spec: LatticeSpec, label: EnergyModeLabel) -> np.ndarray:
    """Unit eigenstate of the dense walk with eigenvalue exp(i*branch*phi); its coin part is v_plus or v_minus."""
    return np.kron(momentum_state(spec, label.mode), eigenbasis(mode_coefficients(spec, label.mode))[label.branch < 0])


def unit_phases(shape) -> np.ndarray:
    """Seeded unit-modulus amplitudes: in a superposition a fault of size d at one term reads about d."""
    return np.exp(1j * np.random.default_rng(0).uniform(0, 2 * np.pi, shape))


def verify_block_consistency(spec: LatticeSpec, table: dict[str, np.ndarray] | None = None) -> float:
    """Max entrywise deviation of one walk step from F^dag (+)_k M_k F, every mode at once.

    Two :func:`unit_phases` columns go through one :func:`step_into` and
    are matched with their FFT, times each mode's block, transformed back.
    <k| is exp(+i*k.x)/sqrt(n_sites): mode ell is index ell mod N of ifftn.
    The blocks come from the r columns of `table`, :func:`block_table`'s
    (built here when not given), through :func:`~walkqca.blocks.matrix_from_r`,
    the closed form of every block.
    """
    grid, axes = (spec.N,) * spec.dimension, tuple(range(spec.dimension))
    pair = unit_phases((spec.walk_dim, 2))
    stepped = np.empty((1, spec.walk_dim, 2), dtype=complex)
    step_into(spec, pair[None], stepped)
    table = block_table(spec) if table is None else table
    blocks = np.empty((*grid, 2, 2), dtype=complex)
    cells = tuple(table[name] % spec.N for name in MODE_COLUMNS[spec.dimension][: spec.dimension])
    blocks[cells] = matrix_from_r([table[f"r{i}"] for i in range(4)])
    modes = np.fft.ifftn(pair.reshape(*grid, 2, 2), axes=axes, norm="ortho")
    expected = np.fft.fftn(blocks @ modes, axes=axes, norm="ortho").reshape(stepped[0].shape)
    return float(np.max(np.abs(stepped[0] - expected)))


# CSV momentum column names, by the number of axes.
MODE_COLUMNS = {1: ("ell", "k"), 2: ("ell_x", "ell_y", "k_x", "k_y")}


def axis_momenta(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """One axis's indices -N/2+1 .. N/2 and their k, rounded as :func:`momentum_mode` rounds them."""
    half = spec.N // 2
    ell = np.arange(1 - half, half + 1)
    return ell, 2.0 * pi * ell / (spec.N * spec.dx)


# The most momentum modes spectrum and dispersion compute: at 2D N=512
# each takes about 1 s and the process peaks near 130 MB on a 2-vCPU
# Xeon (BENCH_23.json, the change's rows at N=512).  Both grow with the
# mode count, so a larger grid is refused rather than left to run out of memory.
# verify's check lattices take the same cap where the unitarity suite does not run.
GRID_CAP = 512**2


def block_table(spec: LatticeSpec) -> dict[str, np.ndarray]:
    """Every grid mode's block as column arrays, in :func:`momentum_grid` order.

    The keys are the spectrum CSV's: the momentum columns, r0..r3, phi and
    degenerate (0 or 1).  Each value is bit-identical to
    :func:`momentum_block`'s: cos and sin are scalar libm calls, once per
    distinct k*dx; the products are :func:`_pauli_r`'s, elementwise,
    which round as scalars do; and phi and the degeneracy flag come from
    :mod:`~walkqca.blocks`, the one place that computes them for one block
    or a grid.
    """
    ell, k = axis_momenta(spec)
    k_dx = (k * spec.dx).tolist()
    trig = np.array([[cos(v) for v in k_dx], [sin(v) for v in k_dx]])
    # Per mode, its position on each axis, x first; x runs fastest.  A 1D
    # grid takes k_y = 0, as pauli_coefficients does.
    index = np.indices((spec.N,) * spec.dimension).reshape(spec.dimension, -1)[::-1]
    (ca, sa), (cb, sb) = ([trig[:, i] for i in index] + [(cos(0.0), sin(0.0))])[:2]
    r = _pauli_r(ca, sa, cb, sb, cos(spec.theta), sin(spec.theta))
    columns = dict(zip(MODE_COLUMNS[spec.dimension], [ell[i] for i in index] + [k[i] for i in index]))
    return {
        **columns,
        **{f"r{i}": c for i, c in enumerate(r)},
        "phi": eigenphase_from_r(r),
        "degenerate": is_degenerate(r).astype(int),
    }


def spectrum_rows(spec: LatticeSpec) -> list[dict]:
    """Per-mode spectrum rows matching the CSV dump schema: :func:`block_table` by rows."""
    table = block_table(spec)
    return [dict(zip(table, row)) for row in zip(*(column.tolist() for column in table.values()))]
