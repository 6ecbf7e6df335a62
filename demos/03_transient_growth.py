"""Transient growth: when the norm climbs before it decays.

The generator [[-1, 10], [0, -1]] has both eigenvalues at -1, but the
off-diagonal coupling pushes ||exp(tA)|| up to about 3.3 before the decay
wins.  Entry times see this directly: the first entry time t_0 (into the
unit ball) is strictly positive, and the gaps u_r settle onto 1 = 1/|Re
lambda| from above.  Three independent growth-rate estimates agree with the
spectral abscissa.
"""

import numpy as np

import semistab as ss
from semistab.oracles import spectral_abscissa_triangular

A = np.array([[-1.0, 10.0], [0.0, -1.0]])
model = ss.MatrixSemigroup(A)
traj = model.trajectory()

print("norm curve (note the hump):")
for t in (0.0, 0.5, 1.0, 2.0, 3.0, 3.58, 5.0, 8.0):
    bar = "#" * int(round(10 * model.norm_at(t)))
    print(f"  t={t:5.2f}  ||T(t)|| = {model.norm_at(t):8.4f}  {bar}")

table = ss.entry_time_table(traj, 40)
print(f"\nfirst entry into the unit ball: t_0 = {table.t[0]:.6f} (> 0)")
print("gaps u_r:", " ".join(f"{u:.4f}" for u in table.u[:8]), "...")

growth = ss.growth_characteristic(traj, table, ss.default_growth_grid(traj, table))
print(f"\nentry-route rate  : {growth.omega_entry:+.4f}")
print(f"large-time slope  : {growth.omega_large_t:+.4f}")
print(f"grid infimum      : {growth.omega_inf_grid:+.4f}")
print(f"spectral abscissa : {spectral_abscissa_triangular(A):+.4f}")

radius = ss.gelfand_spectral_radius(model, 1.0)
print(f"\nspectral radius of T(1), e^(max Re lambda): {radius:.6f}")
print(f"e^(-nu) from the classified index         : {np.exp(-ss.classify(table).nu):.6f}")
