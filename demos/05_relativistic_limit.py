"""The long-wavelength limit: relativistic dispersion and generators.

With c = dx/dt and mc^2 = theta/dt, the one-step eigenphase energy
approaches sqrt(p^2 c^2 + m^2 c^4) and the effective generator
approaches the free relativistic form as (k dx, theta) -> 0.
"""

import numpy as np

from walkqca import (
    convergence_study,
    dispersion_table,
    generator_comparison,
    make_lattice,
    momentum_mode,
)

spec = make_lattice(dimension=1, N=16, dx=1.0, dt=1.0, theta=0.05)
print(f"1D lattice, theta = {spec.theta}: c = {spec.c}, mc^2 = {spec.mc2}")

print("\n  k          E_exact     E_rel       rel_err")
for rec in [r for r in dispersion_table(spec) if 0 <= r.mode.ell[0] <= 4]:
    print(
        f"  {rec.mode.k[0]:>8.4f}  {rec.phi_over_dt:>9.6f}  {rec.e_rel:>9.6f}"
        f"  {rec.rel_err:.2e}"
    )

study = convergence_study(spec, halvings=4)
print("\nhalving (k dx, theta) from (0.1, 0.05):")
print("  scale      dispersion rel_err   generator deviation")
for row in study.rows:
    print(f"  {row.scale:<9}  {row.dispersion_rel_err:.6e}       {row.generator_deviation:.6e}")
print(f"fitted orders: dispersion {study.dispersion_order:.3f},"
      f" generator {study.generator_order:.3f}")

comp = generator_comparison(spec, momentum_mode(spec, 1))
print("\neffective generator at the smallest positive momentum:")
print(np.array2string(comp.h_eff, precision=5, suppress_small=True))
print("relativistic target:")
print(np.array2string(comp.h_dirac, precision=5, suppress_small=True))
print(f"deviation: {comp.deviation:.2e}")

spec2 = make_lattice(dimension=2, N=8, dx=1.0, dt=1.0, theta=0.05)
axis = convergence_study(spec2, halvings=3, base_k_dx=(0.1, 0.0))
generic = convergence_study(spec2, halvings=3, base_k_dx=(0.1, 0.07))
print(f"\n2D, axis ray (k_y = 0): orders dispersion {axis.dispersion_order:.3f},"
      f" generator {axis.generator_order:.3f}")
print(f"2D, generic ray: generator order {generic.generator_order:.3f};"
      f" dispersion order {generic.dispersion_order:.3f}")
print("(the k_x k_y theta anisotropy of the exact eigenphase is first order"
      " relative to the energy, so generic-ray dispersion fits slope 1)")
