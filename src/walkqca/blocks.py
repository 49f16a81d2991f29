"""Momentum-block decompositions shared by the 1D and 2D walks.

For every grid momentum the walk acts on the two coin amplitudes by a 2x2
unitary of the form

    M = r0*I + i*(r1*sigma_x + r2*sigma_y + r3*sigma_z),

with r0**2 + r1**2 + r2**2 + r3**2 = 1.  This module turns the real
four-vector (r0, r1, r2, r3) into the matrix, the eigenphase and the
eigenvector pair, handling the degenerate corners where the closed-form
eigenvectors are undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, sqrt

import numpy as np

from .lattice import MomentumMode

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

    mode: MomentumMode
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


def eigenphase_from_r(r) -> float:
    """Principal eigenphase arccos(r0), evaluated as atan2(|r_vec|, r0).

    The atan2 form keeps full precision at every phase: arccos of an r0
    that rounds to 1 returns 0 below sqrt(eps), and arcsin of an |r_vec|
    that rounds to 1 loses half the digits near pi/2.
    """
    return atan2(sqrt(r[1] * r[1] + r[2] * r[2] + r[3] * r[3]), r[0])


def eigenvector_pair(r1: float, r2: float, r3: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of r1*sx + r2*sy + r3*sz for eigenvalues +s and -s.

    Requires s = |(r1, r2, r3)| > 0.  Uses the algebraically equivalent
    companion form near the poles where the primary form degenerates to
    0/0.
    """
    s = sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    w = r1 + 1j * r2
    if s + r3 > FORM_SWITCH_TOL * s:
        v_plus = np.array([s + r3, w]) / sqrt(2.0 * s * (s + r3))
    else:
        v_plus = np.array([np.conj(w), s - r3]) / sqrt(2.0 * s * (s - r3))
    if s - r3 > FORM_SWITCH_TOL * s:
        v_minus = np.array([r3 - s, w]) / sqrt(2.0 * s * (s - r3))
    else:
        v_minus = np.array([-np.conj(w), s + r3]) / sqrt(2.0 * s * (s + r3))
    return v_plus, v_minus


def decompose(mode: MomentumMode, r: tuple[float, float, float, float]) -> BlockDecomposition:
    """Full decomposition of the block with coefficient vector `r`."""
    r0, r1, r2, r3 = r
    phi = eigenphase_from_r(r)
    s = sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    if s < DEGENERACY_TOL:
        v_plus = np.array([1.0, 0.0], dtype=complex)
        v_minus = np.array([0.0, 1.0], dtype=complex)
        degenerate = True
    else:
        v_plus, v_minus = eigenvector_pair(r1, r2, r3)
        degenerate = False
    return BlockDecomposition(
        mode=mode,
        r=r,
        matrix=matrix_from_r(r),
        phi=phi,
        v_plus=v_plus,
        v_minus=v_minus,
        degenerate=degenerate,
    )
