"""A quasinilpotent workhorse: the fractional-integration semigroup.

T(t) maps f on [0,1] to its order-t fractional integral.  The operators are
quasinilpotent (spectral radius zero) and the norm falls roughly like
1/(t*Gamma(t)) - faster than any exponential, yet never reaching zero: the
textbook superstable-without-extinction example that lives on a genuinely
infinite-dimensional space, here discretized on n cells.

Runs in about a second at the default n=256; pass another n as the first argument.
"""

import math
import sys

import semistab as ss

n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
model = ss.FractionalIntegration(n)

print(f"discretization: {n} cells; norm at order 1 should be 2/pi = {2/math.pi:.6f}")
print(f"  computed: {model.norm_at(1.0):.6f}")
print()
print(" order t   ||T(t)||        1/(t*Gamma(t))   ratio")
for t in (0.5, 1, 2, 3, 4, 5, 6, 8):
    value = model.norm_at(float(t))
    ref = ss.fractional_reference(float(t))
    print(f"  {t:5.1f}   {value:12.6e}   {ref:12.6e}   {ref/value:5.2f}")

print()
# the discretized kernel is lower-triangular Toeplitz with diagonal
# (1/(2n))^t / Gamma(t+1), so that one point is its whole spectrum; it tends
# to 0 as n grows, the trace of the continuous operator's quasinilpotency
radius = ss.spectral_radius_estimate(model.kernel_matrix(1.0))
print(f"spectral radius of the t=1 operator: {radius:.6e}"
      f"  (1/(2n) = {1 / (2 * n):.6e})")
print("  -> quasinilpotent as n grows: the spectrum tends to zero while the norm is ~0.64")

table = ss.entry_time_table(model.trajectory(), 20)
verdict = ss.classify(table)
stats = ss.tail_statistics(table.u, 8)
print()
print(f"verdict at r_max=20: {verdict.verdict}")
print(f"  u tail mean {stats.tail_mean:.3f}, still decaying "
      f"(tail/mid ratio {stats.decay_ratio:.3f})")
print(f"  second-half u sum {stats.second_half_sum:.2f} -> no finite extinction time")
