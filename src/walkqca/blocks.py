"""Momentum-block decompositions shared by the 1D and 2D walks.

For every grid momentum the walk acts on the two coin amplitudes by a 2x2
unitary of the form

    M = r0*I + i*(r1*sigma_x + r2*sigma_y + r3*sigma_z),

with r0**2 + r1**2 + r2**2 + r3**2 = 1.  This module turns the real
four-vector (r0, r1, r2, r3) into the matrix, the eigenphase and the
eigenvector pair, handling the degenerate corners where the closed-form
eigenvectors are undefined.  All but the one-block :func:`eigenbasis` and
:func:`decompose` take one block's scalars or a grid's equal-shape arrays
and round both alike, so grid tables and per-mode blocks agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# |sin phi| below this: the block is a multiple of the identity and any
# orthonormal pair is an eigenbasis.
DEGENERACY_TOL = 1e-9

# The primary eigenvector form divides by sqrt(2*s*(s +- r3)); when the
# relevant s +- r3 falls below this fraction of s the cancellation costs
# precision and the companion form is used instead.
FORM_SWITCH_TOL = 1e-6


@dataclass(frozen=True)
class BlockDecomposition:
    """One momentum mode's 2x2 block and its eigensystem.

    The block maps the coin-amplitude pair (alpha, beta) over (R, L) one
    step forward; eigenvalues are exp(+i*phi) on v_plus and exp(-i*phi)
    on v_minus with phi = arccos(r0) in [0, pi].  Degenerate blocks carry
    the canonical basis vectors and the `degenerate` flag.
    """

    r: tuple[float, float, float, float]
    matrix: np.ndarray
    phi: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    degenerate: bool


def matrix_from_r(r) -> np.ndarray:
    """M of r = (r0, r1, r2, r3): (2, 2) from scalars, (..., 2, 2) from equal-shape arrays, rounded alike."""
    r0, r1, r2, r3 = (np.asarray(c)[..., None, None] for c in r)
    return r0 * IDENTITY_2 + 1j * (r1 * SIGMA_X + r2 * SIGMA_Y + r3 * SIGMA_Z)


def splitting(r):
    """|r_vec| = sqrt(r1**2 + r2**2 + r3**2) = |sin phi|: scalars or equal-shape arrays, rounded alike."""
    return np.sqrt(r[1] * r[1] + r[2] * r[2] + r[3] * r[3])


def is_degenerate(r):
    """Whether |sin phi| is below DEGENERACY_TOL: a bool, or a bool array from equal-shape arrays."""
    return splitting(r) < DEGENERACY_TOL


def eigenphase_from_r(r):
    """Principal eigenphase arccos(r0), evaluated as atan2(|r_vec|, r0): a float, or a float array.

    The atan2 form keeps full precision at every phase: arccos of an r0
    that rounds to 1 returns 0 below sqrt(eps), and arcsin of an |r_vec|
    that rounds to 1 loses half the digits near pi/2.  It is libm's atan2
    once per block, so that a phase keeps its bits however blocks are batched.
    """
    s = splitting(r)
    if s.ndim:
        return np.reshape(list(map(atan2, s.ravel().tolist(), np.ravel(r[0]).tolist())), s.shape)
    return atan2(s, r[0])


def _where(condition, a, b):
    """np.where on a grid; on one block, Python's choice, which costs a tenth of np.where on 0-d values."""
    return np.where(condition, a, b) if isinstance(condition, np.ndarray) else a if condition else b


def eigenvector_pair(r) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of M for exp(+i*phi) and exp(-i*phi): (2,) each from scalars, (..., 2) from arrays.

    Requires s = |r_vec| > 0.  With w = r1 + i*r2, v_plus = (s + r3, w) and v_minus
    = (r3 - s, w), each over the root of 2*s times its pivot s +- r3.  Where the pivot
    falls to FORM_SWITCH_TOL*s a vector takes its companion form, (conj(w), s - r3) or
    (-conj(w), s + r3) over the other pivot's root, equal but for the cancellation.
    """
    s, r3 = splitting(r), r[3]
    w = r[1] + 1j * r[2]
    w_bar = np.conj(w)
    entries, roots = [], []
    for pivot, other, top, companion_top in ((s + r3, s - r3, s + r3, w_bar), (s - r3, s + r3, r3 - s, -w_bar)):
        primary = pivot > FORM_SWITCH_TOL * s
        entries.append([_where(primary, top, companion_top), _where(primary, w, other)])
        roots.append(np.sqrt(2.0 * s * _where(primary, pivot, other)))
    pair = np.array(entries) / np.array(roots)[:, None]  # vector, entry, grid axes
    return tuple(pair.transpose(0, *range(2, pair.ndim), 1))


def eigenbasis(r) -> tuple[np.ndarray, np.ndarray]:
    """One block's (v_plus, v_minus): :func:`eigenvector_pair`, or the canonical basis where the block is degenerate."""
    return tuple(np.eye(2, dtype=complex)) if is_degenerate(r) else eigenvector_pair(r)


def decompose(r: tuple[float, float, float, float]) -> BlockDecomposition:
    """Full decomposition of the block with coefficient vector `r`: the one-block case of the functions above."""
    return BlockDecomposition(r, matrix_from_r(r), eigenphase_from_r(r), *eigenbasis(r), bool(is_degenerate(r)))
