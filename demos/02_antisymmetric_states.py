"""The physical (antisymmetric) sector of the distinguishable-particle space.

Several copies of the walk space, each extended by an "absent" state,
host any particle number up to the factor count.  Restricting to states
where the first n factors are occupied antisymmetrically gives a
fermionic sector that the factor-wise evolution never leaves.
"""

import itertools

import numpy as np

from walkqca import (
    energy_labels,
    make_lattice,
    physical_basis_state,
    physical_subspace_projector_residual,
    total_evolution_apply,
)
from walkqca.multiparticle import (
    antisymmetrize,
    ordered_product_state,
    product_state,
    random_physical_state,
)
from walkqca.walk import walk_eigenstate

spec = make_lattice(dimension=1, N=2, dx=1.0, dt=1.0, theta=0.3)
labels = energy_labels(spec)
n_factors = 3
print(f"walk dimension {spec.walk_dim}, {n_factors} particle slots,"
      f" {len(labels)} energy modes")

# exchange antisymmetry: swapping two labels flips the sign
a, b = labels[0], labels[3]
ordered = ordered_product_state(spec, [a, b], n_factors)
swapped = ordered_product_state(spec, [b, a], n_factors)
print("swap sign flip:", np.allclose(swapped.amplitudes, -ordered.amplitudes))

# Pauli exclusion: a repeated label antisymmetrizes to zero
psi = walk_eigenstate(spec, a)
doubled = product_state([psi, psi, None], spec.walk_dim)
print("repeated mode annihilates:", antisymmetrize(doubled, 2).norm() < 1e-12)

# the energy basis is orthonormal across particle numbers
states = [
    physical_basis_state(spec, combo, n_factors)
    for n in range(3)
    for combo in itertools.combinations(labels, n)
]
gram = np.array([[np.vdot(x.amplitudes, y.amplitudes) for y in states] for x in states])
print(f"energy-basis Gram defect: {np.max(np.abs(gram - np.eye(len(states)))):.2e}")

# the evolution preserves the sector
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(25):
    state = random_physical_state(spec.walk_dim, n_factors, rng)
    evolved = total_evolution_apply(spec, n_factors, state)
    worst = max(worst, physical_subspace_projector_residual(evolved))
print(f"max leakage out of the physical sector over 25 random states: {worst:.2e}")
