"""Single-particle walk spectra in one and two dimensions.

Builds the dense step unitaries, confirms they are exactly unitary, and
walks through the momentum-block picture: every grid momentum carries a
2x2 block whose eigenphases +-phi(k) are the one-step energies.
"""

import numpy as np

from walkqca import (
    build_walk_unitary_1d,
    build_walk_unitary_2d,
    make_lattice,
    momentum_block_1d,
    momentum_block_2d,
    momentum_grid,
    verify_block_consistency,
    verify_block_consistency_2d,
)

spec = make_lattice(dimension=1, N=16, dx=1.0, dt=1.0, theta=0.25)
walk = build_walk_unitary_1d(spec)
defect = np.max(np.abs(walk.conj().T @ walk - np.eye(spec.walk_dim)))
print(f"1D walk on {spec.N} sites, coin angle {spec.theta}")
print(f"  unitarity defect        {defect:.2e}")
print(f"  block-restriction error {verify_block_consistency(spec):.2e}")

print("\n  ell     k*dx      phi(k)    sin-part coefficients (r1, r2, r3)")
for mode in momentum_grid(spec):
    block = momentum_block_1d(spec, mode)
    r = block.r
    print(
        f"  {mode.ell[0]:>3}  {mode.k[0] * spec.dx:>8.4f}  {block.phi:>8.4f}"
        f"    ({r[1]:+.4f}, {r[2]:+.4f}, {r[3]:+.4f})"
    )

# the band is phi(k) = arccos(cos(k dx) cos(theta)): gapped at k = 0 by theta
gap = momentum_block_1d(spec, momentum_grid(spec)[spec.N // 2 - 1]).phi
print(f"\n  band gap at k = 0: phi = {gap:.6f} (= theta = {spec.theta})")

spec2 = make_lattice(dimension=2, N=6, dx=1.0, dt=1.0, theta=0.25)
walk2 = build_walk_unitary_2d(spec2)
defect2 = np.max(np.abs(walk2.conj().T @ walk2 - np.eye(spec2.walk_dim)))
print(f"\n2D walk on {spec2.N}x{spec2.N} sites")
print(f"  unitarity defect        {defect2:.2e}")
print(f"  block-restriction error {verify_block_consistency_2d(spec2):.2e}")

print("\n  eigenphase surface phi(k_x, k_y) (rows: k_y):")
grid = momentum_grid(spec2)
by_ky = {}
for mode in grid:
    by_ky.setdefault(mode.ell[1], []).append(momentum_block_2d(spec2, mode).phi)
for ell_y in sorted(by_ky):
    row = "  ".join(f"{phi:6.3f}" for phi in by_ky[ell_y])
    print(f"  ell_y={ell_y:>2}:  {row}")
