"""Coined quantum walks promoted to local occupation automata.

Single-particle walk spectra in one and two dimensions, the antisymmetric
multiparticle subspace of the distinguishable-particle tensor space,
fermionic operators over energy modes, a strictly local occupation-number
automaton reproducing the multiparticle dynamics, and the relativistic
long-wavelength limit of all of it.
"""

from .dirac import (
    convergence_study,
    dispersion_table,
    generator_comparison,
)
from .fock import (
    annihilation_op,
    anticommutator,
    creation_op,
    evolution_diagonal,
    fock_basis,
    momentum_mode_ops,
)
from .lattice import (
    energy_labels,
    make_lattice,
    momentum_grid,
    momentum_mode,
)
from .multiparticle import (
    physical_basis_state,
    physical_subspace_projector_residual,
    total_evolution_apply,
)
from .qca import (
    CellLattice,
    build_local_coin,
    one_particle_sector_isomorphism,
    qca_step,
)
from .walk import verify_block_consistency
from .walk1d import build_walk_unitary_1d, momentum_block_1d
from .walk2d import (
    build_walk_unitary_2d,
    momentum_block_2d,
    verify_block_consistency_2d,
)

__version__ = "0.1.0"
