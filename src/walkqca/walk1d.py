"""The 1D walk under its dimension-named API; the code is in :mod:`walkqca.walk`.

The 1D walk is the k_y = 0 slice of the generic walk.  State layout: the
walk space has dimension 2N with index x*2 + c, coin c = 0 (R) or 1 (L).
"""

from __future__ import annotations

from . import walk

momentum_block_1d = walk.momentum_block
walk_eigenstate_1d = walk.walk_eigenstate
verify_block_consistency = walk.verify_block_consistency
spectrum_rows_1d = walk.spectrum_rows


def walk_matrix_1d(n_sites: int, theta: float):
    """One-step matrix on 2*n_sites amplitudes; accepts any n_sites >= 2, odd ones too."""
    return walk.walk_matrix(n_sites, 1, theta)


def build_walk_unitary_1d(spec):
    """:func:`walkqca.walk.build_walk_unitary`, refusing lattices of another dimension."""
    if spec.dimension != 1:
        raise ValueError(f"expected a 1D lattice, got dimension {spec.dimension}")
    return walk.build_walk_unitary(spec)
