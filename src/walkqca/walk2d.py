"""The 2D walk under its dimension-named API; the code is in :mod:`walkqca.walk`.

State layout: index (x*N + y)*2 + c over sites (x, y) and coin c, stored
in the {R, L} basis; U and D are the unbiased partner directions.
"""

from __future__ import annotations

from . import walk

momentum_state_2d = walk.momentum_state
momentum_block_2d = walk.momentum_block
walk_eigenstate_2d = walk.walk_eigenstate
verify_block_consistency_2d = walk.verify_block_consistency
spectrum_rows_2d = walk.spectrum_rows


def pauli_coefficients_2d(kx_dx: float, ky_dx: float, theta: float) -> tuple[float, float, float, float]:
    """(r0, r1, r2, r3) of the block at dimensionless momenta (kx*dx, ky*dx)."""
    return walk.pauli_coefficients((kx_dx, ky_dx), theta)


def build_walk_unitary_2d(spec):
    """:func:`walkqca.walk.build_walk_unitary`, refusing lattices of another dimension."""
    if spec.dimension != 2:
        raise ValueError(f"expected a 2D lattice, got dimension {spec.dimension}")
    return walk.build_walk_unitary(spec)
