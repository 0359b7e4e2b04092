"""
Synthesizing rounding-probability curves
========================================

The probability of rounding down can be optimized per grid fraction to
trade variance against bias.  This script builds all named presets at a
coarse resolution and prints the curve highlights: the bias-minimizing
preset recovers the proximity rule p = 1 - f, the variance-minimizing
presets pin p to an endpoint, the 0.98/0.02 weighting reproduces a
round-to-nearest step, and the equal-weight curves bend in between (the
capped variant keeps |bias| <= 0.05 everywhere).
"""

import numpy as np

from srlab import Preset, optimize_table
from srlab.distopt import bias_of_p, variance_of_p

tables = {preset: optimize_table(preset, grid_size=201, seed=0) for preset in Preset}

sample = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
header = "  ".join(f"p({f:.1f})" for f in sample)
print(f"{'preset':>15}  {header}   max|bias|  max var")
for preset, table in tables.items():
    idx = [int(round(f * (table.grid.size - 1))) for f in sample]
    curve = "  ".join(f"{table.p[j]:6.3f}" for j in idx)
    worst_bias = np.max(np.abs(bias_of_p(table.p, table.grid)))
    worst_var = np.max(variance_of_p(table.p))
    print(f"{preset.value:>15}  {curve}   {worst_bias:9.4f}  {worst_var:7.4f}")

print()
print("equal-weight curve is antisymmetric: p(f) + p(1-f) = 1")
d1 = tables[Preset.D1]
print("max |p(f) + p(1-f) - 1| =", np.max(np.abs(d1.p + d1.p[::-1] - 1.0)))
