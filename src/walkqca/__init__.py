"""Coined quantum walks promoted to local occupation automata.

Single-particle walk spectra in one and two dimensions, the antisymmetric
multiparticle subspace of the distinguishable-particle tensor space,
fermionic operators over energy modes, a strictly local occupation-number
automaton reproducing the multiparticle dynamics, and the relativistic
long-wavelength limit of all of it.
"""

from .blocks import BlockDecomposition
from .dirac import (
    BranchCutError,
    ConvergenceStudy,
    DispersionRecord,
    GeneratorComparison,
    convergence_study,
    dirac_generator,
    dispersion_table,
    effective_generator,
    generator_comparison,
)
from .fock import (
    DegenerateModeError,
    FockBasis,
    FockOperator,
    annihilation_op,
    anticommutator,
    creation_op,
    evolution_diagonal,
    fock_basis,
    fock_to_firstquantized,
    full_fock_basis,
    momentum_mode_coefficients,
    momentum_mode_ops,
    number_op,
)
from .lattice import (
    HBAR,
    EnergyModeLabel,
    LatticeSpec,
    MomentumMode,
    energy_labels,
    make_lattice,
    mode_ordering_key,
    momentum_grid,
    momentum_mode,
)
from .multiparticle import (
    MultiState,
    PhysicalBasisLabel,
    antisymmetrize,
    eigenphase_check,
    physical_basis_state,
    physical_subspace_projector_residual,
    product_state,
    random_physical_state,
    total_evolution_apply,
    vacuum_state,
)
from .qca import (
    CellLattice,
    build_local_coin,
    locality_check,
    one_particle_sector_isomorphism,
    qca_step,
)
from .verify import CheckResult, VerifyOptions, run_verification
from .walk import verify_block_consistency
from .walk1d import build_walk_unitary_1d, momentum_block_1d, walk_eigenstate_1d
from .walk2d import (
    build_walk_unitary_2d,
    momentum_block_2d,
    verify_block_consistency_2d,
    walk_eigenstate_2d,
)

__version__ = "0.1.0"
